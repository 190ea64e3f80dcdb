#include "workloads/app_driver.h"

#include <algorithm>

#include "baselines/backends.h"

namespace lz::workload {

using arch::ExceptionLevel;
using core::Env;
using core::LzProc;

const char* to_string(Mechanism mech) {
  switch (mech) {
    case Mechanism::kNone: return "vanilla";
    case Mechanism::kLzPan: return "LightZone-PAN";
    case Mechanism::kLzTtbr: return "LightZone-TTBR";
    case Mechanism::kWatchpoint: return "Watchpoint";
    case Mechanism::kLwc: return "lwC";
    case Mechanism::kPoe: return "POE-keys";
    case Mechanism::kCca: return "CCA-GPT";
  }
  return "?";
}

std::optional<LzProc> enter_isolation(Mechanism mech, Env& env,
                                      kernel::Process& proc) {
  switch (mech) {
    case Mechanism::kLzPan:
      return LzProc::enter(*env.module, proc, /*allow_scalable=*/false,
                           /*insn_san=*/2);
    case Mechanism::kLzTtbr:
      return LzProc::enter(*env.module, proc, /*allow_scalable=*/true,
                           /*insn_san=*/1);
    case Mechanism::kPoe:
      return LzProc(baseline::make_backend(core::BackendKind::kPoe, env));
    case Mechanism::kCca:
      return LzProc(baseline::make_backend(core::BackendKind::kCca, env));
    default:
      return std::nullopt;
  }
}

void setup_process_domains(Env& env, kernel::Process& proc, Mechanism mech,
                           LzProc* lz, VirtAddr base, u64 slot, int count) {
  auto& core = env.machine->core();
  const auto slot_va = [&](int d) { return base + static_cast<u64>(d) * slot; };
  if (mech == Mechanism::kLzPan) {
    for (int d = 0; d < count; ++d) {
      LZ_CHECK_OK(lz->lz_prot(slot_va(d), slot, core::kPgtAll,
                              core::kLzRead | core::kLzWrite | core::kLzUser));
      LZ_CHECK_OK(lz->backend().touch(slot_va(d), true, false));
    }
  } else if (lz != nullptr) {
    const VirtAddr entry = Env::kCodeVa + 0x40;
    LZ_CHECK(count + 1 <= static_cast<int>(lz->backend().max_gates()));
    LZ_CHECK_OK(lz->lz_map_gate_pgt(0, 0));
    LZ_CHECK_OK(lz->lz_set_gate_entry(0, entry));
    for (int d = 0; d < count; ++d) {
      const int pgt = lz->lz_alloc().value();
      LZ_CHECK(pgt >= 1);
      LZ_CHECK_OK(
          lz->lz_prot(slot_va(d), slot, pgt, core::kLzRead | core::kLzWrite));
      LZ_CHECK_OK(lz->lz_map_gate_pgt(pgt, d + 1));
      LZ_CHECK_OK(lz->lz_set_gate_entry(d + 1, entry));
      LZ_CHECK_OK(lz->backend().touch(slot_va(d), true, false));
    }
  }

  if (mech == Mechanism::kLzPan || mech == Mechanism::kLzTtbr) {
    lz->enter_world();
    if (mech == Mechanism::kLzPan) core.pstate().pan = true;
    return;
  }
  // The slots live inside the process's heap VMA: back them with frames
  // and put the core into this process's EL0 context so the workload's
  // data accesses translate through its page table.
  auto& k = env.kern();
  for (int d = 0; d < count; ++d) {
    for (u64 off = 0; off < slot; off += kPageSize) {
      LZ_CHECK_OK(k.populate_page(proc, slot_va(d) + off,
                                  kernel::kProtRead | kernel::kProtWrite));
    }
  }
  k.load_ctx(proc, core);
  core.pstate().el = ExceptionLevel::kEl0;
}

Cycles lz_enter_domain(LzProc& lz, Mechanism mech, int domain) {
  return mech == Mechanism::kLzPan
             ? lz.set_pan(false)
             : lz.lz_switch_to_ttbr_gate(domain + 1).value();
}

Cycles lz_exit_domain(LzProc& lz, Mechanism mech) {
  // Back in the default domain (PAN set, or gate 0: the default table,
  // POR reset, GPT base back to the shared view) access is revoked.
  return mech == Mechanism::kLzPan ? lz.set_pan(true)
                                   : lz.lz_switch_to_ttbr_gate(0).value();
}

AppDriver::AppDriver(const AppConfig& config) : config_(config) {
  const auto opts = Env::Options()
                        .platform(*config.platform)
                        .placement(config.placement)
                        .seed(config.seed);
  env_ = std::make_unique<Env>(opts);
  proc_ = &env_->new_process();
  // The Table-4 probe, at shorter run lengths.
  syscall_cost_ = marginal_syscall_cycles(opts, is_lz(), 32, 96);
  lz_ = enter_isolation(config_.mech, *env_, *proc_);
  if (config_.mech == Mechanism::kWatchpoint) {
    wp_ = std::make_unique<baseline::WatchpointIsolation>(*env_->host,
                                                          env_->vm.get());
  } else if (config_.mech == Mechanism::kLwc) {
    lwc_ = std::make_unique<baseline::LwcIsolation>(*env_->host,
                                                    env_->vm.get());
  }
}

AppDriver::~AppDriver() {
  if (is_lz() && lz_->module().active() == &lz_->ctx()) lz_->exit_world();
}

void AppDriver::setup_domains(VirtAddr base, u64 slot, int count) {
  domains_ = count;
  if (lwc_) {
    for (int d = 0; d < count; ++d) {
      const int id = lwc_->create_context();
      LZ_CHECK_OK(lwc_->attach(id, base + static_cast<u64>(d) * slot, slot));
    }
  }
  setup_process_domains(*env_, *proc_, config_.mech, lz_ ? &*lz_ : nullptr,
                        base, slot, count);
  if (wp_) {
    // Only the first 16 slots can be protected (the baseline's cap).
    LZ_CHECK_OK(wp_->setup_arena(base, slot, protected_domains()));
  }
  if (config_.mech == Mechanism::kLzTtbr) {
    // Warm the gates and domain pages.
    for (int d = 0; d < count; ++d) {
      enter_domain(d);
      (void)machine().core().mem_read(base + static_cast<u64>(d) * slot, 8);
    }
  }
}

int AppDriver::protected_domains() const {
  if (config_.mech == Mechanism::kWatchpoint) {
    return std::min(domains_, baseline::WatchpointIsolation::kMaxDomains);
  }
  if (config_.mech == Mechanism::kNone) return 0;
  return domains_;
}

Cycles AppDriver::enter_domain(int domain) {
  if (lz_) return lz_enter_domain(*lz_, config_.mech, domain);
  // Only 16 hardware-watchable domains exist; higher-numbered logical
  // domains share them (the baseline's scalability failure, Table 1).
  if (wp_) return wp_->switch_to(domain % protected_domains());
  if (lwc_) return lwc_->switch_to(domain);
  return 0;
}

Cycles AppDriver::exit_domain(int domain) {
  (void)domain;
  if (lz_) return lz_exit_domain(*lz_, config_.mech);
  if (wp_) return wp_->exit_domains();
  if (lwc_) return lwc_->switch_to(0);
  return 0;
}

Cycles AppDriver::domain_setup_cost() const {
  const auto& plat = *config_.platform;
  switch (config_.mech) {
    case Mechanism::kNone:
      return 0;
    case Mechanism::kLzPan:
      // One lz_prot module call (a LightZone syscall) + PTE updates.
      return syscall_cost_ + 12 * plat.mem_access;
    case Mechanism::kLzTtbr:
      // One batched setup call (lz_alloc + lz_prot + lz_map_gate_pgt are
      // issued together when a key domain is created) + table updates.
      return syscall_cost_ + 40 * plat.mem_access;
    case Mechanism::kWatchpoint:
      return syscall_cost_ + 8 * plat.mem_access;
    case Mechanism::kLwc:
      // lwCreate is a heavyweight fork-like call.
      return 3 * syscall_cost_ + 400 * plat.insn_base;
    case Mechanism::kPoe:
      // One setup call + per-page PTE overlay-index re-tags.
      return syscall_cost_ + 16 * plat.mem_access;
    case Mechanism::kCca:
      // The SMC to the monitor plus the granule delegation itself
      // dominates everything else in domain creation.
      return syscall_cost_ + plat.gpt_delegate;
  }
  return 0;
}

Cycles AppDriver::tlb_miss_cost(bool huge_pages) const {
  const auto& plat = *config_.platform;
  // Native: 4-level stage-1 walk (2 levels with huge pages).
  const unsigned native_levels = huge_pages ? 2 : 4;
  unsigned levels = native_levels;
  if (is_lz()) {
    if (config_.mech == Mechanism::kLzTtbr &&
        lz_->ctx().opts().fake_phys) {
      // Fake-physical randomisation defeats walk-cache contiguity: pay the
      // stage-2 hop for each stage-1 level plus the final stage-2 walk.
      levels = native_levels * 2 + 3;
    } else {
      // Identity stage-2: walk caches absorb the table hops; only the
      // final stage-2 translation adds levels.
      levels = native_levels + 3;
    }
  }
  Cycles cost = levels * plat.tlb_walk_per_level;
  if (config_.placement == Placement::kGuest && is_lz()) {
    // Nested TLB pressure: the guest kernel's VM and the LightZone VM
    // compete for TLB and walk-cache capacity.
    cost *= 2;
  }
  if (config_.mech == Mechanism::kCca) {
    // Every TLB fill under RME also checks the granule's protection
    // state; a GPC-TLB miss walks the GPT.
    cost += plat.gpt_walk;
  }
  return cost;
}

u64 AppDriver::isolation_table_pages() const {
  return is_lz() ? lz_->ctx().isolation_table_pages() : 0;
}

}  // namespace lz::workload
