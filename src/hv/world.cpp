#include "hv/world.h"

#include "obs/counters.h"

namespace lz::hv {

using sim::CostKind;

namespace {

// Cached handles for world-switch traffic (`hv.world.*`).
struct WorldCounters {
  obs::Counter& sysreg_saved = obs::registry().counter("hv.world.sysreg_saved");
  obs::Counter& sysreg_restored =
      obs::registry().counter("hv.world.sysreg_restored");
  obs::Counter& vm_exit = obs::registry().counter("hv.world.vm_exit");
  obs::Counter& vm_entry = obs::registry().counter("hv.world.vm_entry");
};

WorldCounters& world_counters() {
  static WorldCounters c;
  return c;
}

}  // namespace

void charge_sysreg_save(sim::Machine& m, std::size_t count) {
  const auto& p = m.platform();
  world_counters().sysreg_saved.add(count);
  m.charge(CostKind::kSysreg, count * (p.sysreg_read + p.mem_access));
}

void charge_sysreg_restore(sim::Machine& m, std::size_t count) {
  const auto& p = m.platform();
  world_counters().sysreg_restored.add(count);
  m.charge(CostKind::kSysreg, count * (p.mem_access + p.sysreg_write));
}

std::size_t full_el1_ctx_count() {
  std::size_t count = 0;
  arch::el1_context_regs(&count);
  return count;
}

// HCR_EL2/VTTBR_EL2 rewrites are charged by the actual Host::write_hcr /
// write_vttbr calls at the switch sites, so they are not double-counted
// here.
void charge_full_vm_exit(sim::Machine& m) {
  const auto& p = m.platform();
  world_counters().vm_exit.add();
  const Cycles start = m.account().total();
  charge_sysreg_save(m, full_el1_ctx_count());
  m.charge(CostKind::kCtx, p.fp_simd_ctx + p.gic_ctx + p.timer_ctx);
  static obs::Histogram& h =
      obs::registry().histogram("hv.world.vm_switch_cycles");
  h.record(m.account().total() - start);
}

void charge_full_vm_entry(sim::Machine& m) {
  const auto& p = m.platform();
  world_counters().vm_entry.add();
  const Cycles start = m.account().total();
  charge_sysreg_restore(m, full_el1_ctx_count());
  m.charge(CostKind::kCtx, p.fp_simd_ctx + p.gic_ctx + p.timer_ctx);
  static obs::Histogram& h =
      obs::registry().histogram("hv.world.vm_switch_cycles");
  h.record(m.account().total() - start);
}

}  // namespace lz::hv
