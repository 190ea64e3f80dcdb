// Calibration tests: the composed trap paths and domain-switch costs must
// reproduce the paper's Table 4 and Table 5 within tolerance. These are
// the anchor points of the hardware substitution (see DESIGN.md §4).
#include <gtest/gtest.h>

#include <cstdio>

#include "workloads/microbench.h"

namespace lz::workload {
namespace {

constexpr double kTol = 0.12;  // ±12%

void expect_near(const char* what, Cycles measured, double target,
                 double tol = kTol) {
  std::printf("  %-44s measured %8llu   paper %8.0f\n", what,
              static_cast<unsigned long long>(measured), target);
  EXPECT_GT(measured, target * (1 - tol)) << what;
  EXPECT_LT(measured, target * (1 + tol)) << what;
}

TEST(Table4Calibration, CortexA55) {
  const auto costs = measure_trap_costs(arch::Platform::cortex_a55());
  std::printf("Cortex-A55 trap round-trips (Table 4):\n");
  expect_near("host user -> host hypervisor", costs.host_syscall, 299);
  expect_near("guest user -> guest kernel", costs.guest_syscall, 288);
  expect_near("LightZone -> host hypervisor", costs.lz_host_trap, 536);
  std::printf("  %-44s measured %8llu~%llu paper 1798~2179\n",
              "LightZone -> guest kernel",
              static_cast<unsigned long long>(costs.lz_guest_trap_min),
              static_cast<unsigned long long>(costs.lz_guest_trap_max));
  EXPECT_GT(costs.lz_guest_trap_min, 1798 * (1 - kTol));
  EXPECT_LT(costs.lz_guest_trap_max, 2179 * (1 + kTol));
  EXPECT_GT(costs.lz_guest_trap_max, costs.lz_guest_trap_min);
  expect_near("KVM VHE hypercall", costs.kvm_hypercall, 1287);
  expect_near("update HCR_EL2", costs.hcr_update, 88);
  expect_near("update VTTBR_EL2", costs.vttbr_update, 37);
}

TEST(Table4Calibration, Carmel) {
  const auto costs = measure_trap_costs(arch::Platform::carmel());
  std::printf("Carmel trap round-trips (Table 4):\n");
  expect_near("host user -> host hypervisor", costs.host_syscall, 3848);
  expect_near("guest user -> guest kernel", costs.guest_syscall, 1423);
  expect_near("LightZone -> host hypervisor", costs.lz_host_trap, 3316);
  std::printf("  %-44s measured %8llu~%llu paper 29020~32881\n",
              "LightZone -> guest kernel",
              static_cast<unsigned long long>(costs.lz_guest_trap_min),
              static_cast<unsigned long long>(costs.lz_guest_trap_max));
  EXPECT_GT(costs.lz_guest_trap_min, 29020 * (1 - kTol));
  EXPECT_LT(costs.lz_guest_trap_max, 32881 * (1 + kTol));
  expect_near("KVM VHE hypercall", costs.kvm_hypercall, 28580);
  expect_near("update HCR_EL2", costs.hcr_update, 1600);
  expect_near("update VTTBR_EL2", costs.vttbr_update, 1115);

  // The paper's headline ordering: LightZone syscalls beat host syscalls
  // on Carmel despite the extra transitions (§8.1).
  EXPECT_LT(costs.lz_host_trap, costs.host_syscall);
}

TEST(Table4Calibration, AblationsCostMore) {
  for (const auto* plat :
       {&arch::Platform::cortex_a55(), &arch::Platform::carmel()}) {
    const auto base = measure_trap_costs(*plat);
    const auto ab = measure_trap_ablations(*plat);
    std::printf("%s ablations: host %llu -> no-cond-sysreg %llu; nested %llu "
                "-> no-shared-ptregs %llu / no-deferred %llu\n",
                plat->name.data(),
                static_cast<unsigned long long>(base.lz_host_trap),
                static_cast<unsigned long long>(ab.lz_host_trap_no_cond_sysreg),
                static_cast<unsigned long long>(base.lz_guest_trap_min),
                static_cast<unsigned long long>(
                    ab.lz_guest_trap_no_shared_ptregs),
                static_cast<unsigned long long>(
                    ab.lz_guest_trap_no_deferred_sysregs));
    EXPECT_GT(ab.lz_host_trap_no_cond_sysreg,
              base.lz_host_trap + 2 * plat->sysreg_write_vttbr);
    EXPECT_GT(ab.lz_guest_trap_no_shared_ptregs, base.lz_guest_trap_min);
    EXPECT_GT(ab.lz_guest_trap_no_deferred_sysregs,
              ab.lz_guest_trap_no_shared_ptregs);
  }
}

struct Table5Case {
  const arch::Platform* plat;
  Placement placement;
  const char* label;
  // Paper row: PAN (1 domain), then 2/3/32/64/128 domains for LightZone;
  // watchpoint at 1..3 domains.
  double lz_pan, lz2, lz128;
  double wp1, wp3;
};

TEST(Table5Calibration, SwitchCosts) {
  const Table5Case cases[] = {
      {&arch::Platform::carmel(), Placement::kHost, "Carmel Host",
       22, 477, 490, 6759, 6944},
      {&arch::Platform::carmel(), Placement::kGuest, "Carmel Guest",
       22, 495, 507, 2710, 2721},
      {&arch::Platform::cortex_a55(), Placement::kHost, "Cortex",
       11, 59, 82, 915, 927},
  };
  for (const auto& c : cases) {
    const auto lz = [&c](int domains) {
      return switch_avg_cycles(core::BackendKind::kTtbrPan, *c.plat,
                               c.placement, domains, 4000)
          .avg_cycles;
    };
    const double pan = lz(1);
    const double lz2 = lz(2);
    const double lz128 = lz(128);
    const double wp1 =
        watchpoint_switch_avg_cycles(*c.plat, c.placement, 1, 2000);
    const double wp3 =
        watchpoint_switch_avg_cycles(*c.plat, c.placement, 3, 2000);
    std::printf(
        "%s: PAN %.0f (paper %.0f)  TTBR2 %.0f (%.0f)  TTBR128 %.0f (%.0f)  "
        "WP1 %.0f (%.0f)  WP3 %.0f (%.0f)\n",
        c.label, pan, c.lz_pan, lz2, c.lz2, lz128, c.lz128, wp1, c.wp1, wp3,
        c.wp3);
    EXPECT_NEAR(pan, c.lz_pan, c.lz_pan * 0.35) << c.label;
    EXPECT_NEAR(lz2, c.lz2, c.lz2 * 0.25) << c.label;
    EXPECT_NEAR(lz128, c.lz128, c.lz128 * 0.25) << c.label;
    EXPECT_NEAR(wp1, c.wp1, c.wp1 * 0.15) << c.label;
    EXPECT_NEAR(wp3, c.wp3, c.wp3 * 0.15) << c.label;
    // Shape: more domains cost slightly more (TLB pressure), and
    // watchpoint is far more expensive than the gate.
    EXPECT_GE(lz128, lz2 * 0.95) << c.label;
    EXPECT_GT(wp1, lz2 * 3) << c.label;
  }
}

}  // namespace
}  // namespace lz::workload
