// Table 4: cycles spent on empty trap-and-return round-trips, on both
// evaluation SoCs, plus the §5.2 optimisation ablations. Every row is
// measured by actually executing the trap path on the simulated machine
// (real SVC/HVC instructions through the API stub for the LightZone rows).
#include <cstdio>
#include <string>

#include "baselines/backends.h"
#include "bench_util.h"
#include "workloads/microbench.h"

namespace {

using namespace lz;
using namespace lz::workload;

struct PaperRow {
  double carmel_lo, carmel_hi;
  double cortex_lo, cortex_hi;
};

void print_row(const char* label, Cycles carmel, Cycles cortex,
               const PaperRow& paper) {
  std::printf("  %-46s %10llu %18s %8llu %12s\n", label,
              static_cast<unsigned long long>(carmel),
              paper.carmel_lo == paper.carmel_hi
                  ? ("(paper " + std::to_string((long long)paper.carmel_lo) + ")").c_str()
                  : ("(paper " + std::to_string((long long)paper.carmel_lo) +
                     "~" + std::to_string((long long)paper.carmel_hi) + ")")
                        .c_str(),
              static_cast<unsigned long long>(cortex),
              ("(paper " + std::to_string((long long)paper.cortex_lo) +
               (paper.cortex_lo == paper.cortex_hi
                    ? ""
                    : "~" + std::to_string((long long)paper.cortex_hi)) +
               ")")
                  .c_str());
}

void print_table4() {
  std::printf("Table 4: cycles on empty trap-and-return round-trips\n\n");
  std::printf("  %-46s %10s %18s %8s %12s\n", "", "Carmel", "", "CortexA55",
              "");
  const auto carmel = measure_trap_costs(arch::Platform::carmel());
  const auto cortex = measure_trap_costs(arch::Platform::cortex_a55());

  const auto rec = [](const char* key, Cycles carmel_v, Cycles cortex_v) {
    bench::record(std::string("carmel.") + key, carmel_v);
    bench::record(std::string("cortex.") + key, cortex_v);
  };
  rec("host_syscall", carmel.host_syscall, cortex.host_syscall);
  rec("guest_syscall", carmel.guest_syscall, cortex.guest_syscall);
  rec("lz_host_trap", carmel.lz_host_trap, cortex.lz_host_trap);
  rec("lz_guest_trap_min", carmel.lz_guest_trap_min,
      cortex.lz_guest_trap_min);
  rec("lz_guest_trap_max", carmel.lz_guest_trap_max,
      cortex.lz_guest_trap_max);
  rec("kvm_hypercall", carmel.kvm_hypercall, cortex.kvm_hypercall);
  rec("hcr_update", carmel.hcr_update, cortex.hcr_update);
  rec("vttbr_update", carmel.vttbr_update, cortex.vttbr_update);

  print_row("host user mode -> host hypervisor mode", carmel.host_syscall,
            cortex.host_syscall, {3848, 3848, 299, 299});
  print_row("guest user mode -> guest kernel mode", carmel.guest_syscall,
            cortex.guest_syscall, {1423, 1423, 288, 288});
  print_row("LightZone kernel mode -> host hypervisor mode",
            carmel.lz_host_trap, cortex.lz_host_trap, {3316, 3316, 536, 536});
  std::printf("  %-46s %5llu~%-10llu %12s %4llu~%-6llu %8s\n",
              "LightZone kernel mode -> guest kernel mode",
              static_cast<unsigned long long>(carmel.lz_guest_trap_min),
              static_cast<unsigned long long>(carmel.lz_guest_trap_max),
              "(paper 29020~32881)",
              static_cast<unsigned long long>(cortex.lz_guest_trap_min),
              static_cast<unsigned long long>(cortex.lz_guest_trap_max),
              "(paper 1798~2179)");
  print_row("KVM Virtualization Host Extensions hypercall",
            carmel.kvm_hypercall, cortex.kvm_hypercall,
            {28580, 28580, 1287, 1287});
  print_row("update HCR_EL2", carmel.hcr_update, cortex.hcr_update,
            {1550, 1655, 88, 88});
  print_row("update VTTBR_EL2", carmel.vttbr_update, cortex.vttbr_update,
            {1115, 1115, 37, 37});

  std::printf("\nAblations of the Section 5.2 optimisations:\n");
  const auto abc = measure_trap_ablations(arch::Platform::carmel());
  const auto abx = measure_trap_ablations(arch::Platform::cortex_a55());
  rec("ablation.lz_host_trap_no_cond_sysreg",
      abc.lz_host_trap_no_cond_sysreg, abx.lz_host_trap_no_cond_sysreg);
  rec("ablation.lz_guest_trap_no_shared_ptregs",
      abc.lz_guest_trap_no_shared_ptregs,
      abx.lz_guest_trap_no_shared_ptregs);
  rec("ablation.lz_guest_trap_no_deferred_sysregs",
      abc.lz_guest_trap_no_deferred_sysregs,
      abx.lz_guest_trap_no_deferred_sysregs);
  std::printf(
      "  LightZone->host without conditional HCR/VTTBR:  Carmel %llu "
      "(vs %llu), Cortex %llu (vs %llu)\n",
      static_cast<unsigned long long>(abc.lz_host_trap_no_cond_sysreg),
      static_cast<unsigned long long>(carmel.lz_host_trap),
      static_cast<unsigned long long>(abx.lz_host_trap_no_cond_sysreg),
      static_cast<unsigned long long>(cortex.lz_host_trap));
  std::printf(
      "  nested trap without shared pt_regs page:        Carmel %llu, "
      "Cortex %llu\n",
      static_cast<unsigned long long>(abc.lz_guest_trap_no_shared_ptregs),
      static_cast<unsigned long long>(abx.lz_guest_trap_no_shared_ptregs));
  std::printf(
      "  nested trap without deferred system registers:  Carmel %llu, "
      "Cortex %llu\n\n",
      static_cast<unsigned long long>(abc.lz_guest_trap_no_deferred_sysregs),
      static_cast<unsigned long long>(abx.lz_guest_trap_no_deferred_sysregs));
}

// --backend B (B != ttbr_pan): per-verb primitive costs of the chosen
// cost-model backend, the analogue of Table 4's trap round-trips. The
// first-vs-warm access pair makes the mechanism's lazy cost visible (CCA
// pays its GPT walk exactly once per delegated granule).
struct BackendPrimitives {
  Cycles alloc = 0, prot = 0, gate_setup = 0, domain_switch = 0;
  Cycles first_access = 0, warm_access = 0;
};

BackendPrimitives measure_backend_primitives(lz::core::BackendKind kind,
                                             const arch::Platform& plat) {
  lz::core::Env env(lz::core::Env::Options().platform(plat));
  auto be = lz::baseline::make_backend(kind, env);
  auto& m = *env.machine;
  const auto delta = [&m](auto&& fn) {
    const Cycles start = m.cycles();
    fn();
    return m.cycles() - start;
  };
  BackendPrimitives p;
  int pgt = -1;
  p.alloc = delta([&] { pgt = be->alloc().value(); });
  const VirtAddr va = lz::core::Env::kHeapVa;
  p.prot = delta([&] {
    LZ_CHECK_OK(be->prot(va, lz::kPageSize, pgt,
                         lz::core::kLzRead | lz::core::kLzWrite));
  });
  p.gate_setup = delta([&] {
    LZ_CHECK_OK(be->map_gate_pgt(pgt, 1));
    LZ_CHECK_OK(be->set_gate_entry(1, lz::core::Env::kCodeVa + 0x40));
  });
  p.domain_switch = delta([&] { LZ_CHECK(be->switch_to(1).is_ok()); });
  p.first_access = delta([&] { (void)be->access(va); });
  p.warm_access = delta([&] { (void)be->access(va); });
  return p;
}

void print_backend_primitives(lz::core::BackendKind kind) {
  const std::string name = lz::core::to_string(kind);
  std::printf("Backend primitive costs (--backend %s): cycles per verb\n\n",
              name.c_str());
  const auto carmel = measure_backend_primitives(kind, arch::Platform::carmel());
  const auto cortex =
      measure_backend_primitives(kind, arch::Platform::cortex_a55());
  const auto row = [&](const char* key, Cycles carmel_v, Cycles cortex_v) {
    std::printf("  %-24s %10llu %10llu\n", key,
                static_cast<unsigned long long>(carmel_v),
                static_cast<unsigned long long>(cortex_v));
    bench::record("backend." + name + ".carmel." + key, carmel_v);
    bench::record("backend." + name + ".cortex." + key, cortex_v);
  };
  std::printf("  %-24s %10s %10s\n", "", "Carmel", "CortexA55");
  row("alloc", carmel.alloc, cortex.alloc);
  row("prot", carmel.prot, cortex.prot);
  row("gate_setup", carmel.gate_setup, cortex.gate_setup);
  row("switch", carmel.domain_switch, cortex.domain_switch);
  row("first_access", carmel.first_access, cortex.first_access);
  row("warm_access", carmel.warm_access, cortex.warm_access);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  lz::bench::ObsSession obs("table4_traps", argc, argv,
                            lz::bench::kBackendFlag);
  if (obs.backend() != lz::core::BackendKind::kTtbrPan) {
    print_backend_primitives(obs.backend());
  } else {
    print_table4();
  }
  return obs.finish();
}
