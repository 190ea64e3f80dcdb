#include "workloads/microbench.h"

#include <optional>

#include "baselines/backends.h"
#include "baselines/lwc.h"
#include "baselines/watchpoint.h"
#include "lightzone/api.h"
#include "sim/assembler.h"
#include "support/rng.h"

namespace lz::workload {

using core::Env;
using core::LzProc;
using kernel::nr::kEmpty;
using kernel::nr::kExit;
using sim::Asm;

namespace {

// A program performing `count` empty syscalls, then exit. Unrolled so the
// marginal cost of one more syscall is movz+svc plus the round-trip.
Asm syscall_program(unsigned count) {
  Asm a;
  for (unsigned i = 0; i < count; ++i) {
    a.movz(8, kEmpty);
    a.svc(0);
  }
  a.movz(8, kExit);
  a.svc(0);
  return a;
}

void install_code(Env& env, kernel::Process& proc, Asm& a) {
  // Code may span several pages.
  for (u64 off = 0; off < a.size_bytes(); off += kPageSize) {
    LZ_CHECK_OK(env.kern().populate_page(
        proc, Env::kCodeVa + off, kernel::kProtRead | kernel::kProtExec));
  }
  const auto walk = proc.pgt().lookup(Env::kCodeVa);
  a.install(env.machine->mem(), page_floor(walk.out_addr));
}

// Marginal cost per syscall measured by differencing two run lengths (the
// process setup, demand faults and exit path cancel out). Each run gets a
// fresh scenario, built and torn down before the next one starts.
template <typename RunFn>
Cycles marginal_cost(const Env::Options& opts, unsigned n1, unsigned n2,
                     RunFn&& run) {
  const auto run_fresh = [&](unsigned n) {
    Env env(opts);
    return run(env, n);
  };
  const Cycles c1 = run_fresh(n1);
  const Cycles c2 = run_fresh(n2);
  return (c2 - c1) / (n2 - n1);
}

// A plain user process of the scenario's placement (host user mode, or
// guest user mode inside an entered VM).
Cycles run_user(Env& env, unsigned syscalls) {
  auto& proc = env.new_process();
  Asm a = syscall_program(syscalls);
  install_code(env, proc, a);
  Cycles total = 0;
  if (env.placement == Env::Placement::kHost) {
    const Cycles start = env.machine->cycles();
    env.host->run_user_process(proc);
    total = env.machine->cycles() - start;
  } else {
    env.vm->enter_vm();
    const Cycles start = env.machine->cycles();
    env.vm->run_user_process(proc);
    total = env.machine->cycles() - start;
    env.vm->exit_vm();
  }
  LZ_CHECK(!proc.alive() && proc.kill_reason().empty());
  return total;
}

Cycles run_lz(Env& env, unsigned syscalls, bool resched_every_trap = false,
              const core::LzOptions* overrides = nullptr) {
  auto& proc = env.new_process();
  Asm a = syscall_program(syscalls);
  install_code(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1, overrides);
  if (resched_every_trap) {
    env.kern().register_syscall(
        kEmpty, [&env](kernel::Process&, const kernel::SyscallArgs&) -> u64 {
          env.kern().bump_sched_generation();
          return 0;
        });
  }
  const Cycles start = env.machine->cycles();
  lz.run(100'000'000);
  LZ_CHECK(!proc.alive() && proc.kill_reason().empty());
  return env.machine->cycles() - start;
}

constexpr unsigned kTrapN1 = 64, kTrapN2 = 192;

}  // namespace

Cycles marginal_syscall_cycles(const Env::Options& opts, bool lightzone,
                               unsigned n1, unsigned n2) {
  if (lightzone) {
    return marginal_cost(opts, n1, n2,
                         [](Env& e, unsigned n) { return run_lz(e, n); });
  }
  return marginal_cost(opts, n1, n2, run_user);
}

TrapCosts measure_trap_costs(const arch::Platform& platform) {
  TrapCosts costs;
  const auto host = Env::Options().platform(platform);
  const auto guest =
      Env::Options().platform(platform).placement(Env::Placement::kGuest);
  costs.host_syscall = marginal_syscall_cycles(host, false, kTrapN1, kTrapN2);
  costs.guest_syscall =
      marginal_syscall_cycles(guest, false, kTrapN1, kTrapN2);
  costs.lz_host_trap = marginal_syscall_cycles(host, true, kTrapN1, kTrapN2);
  costs.lz_guest_trap_min =
      marginal_syscall_cycles(guest, true, kTrapN1, kTrapN2);
  costs.lz_guest_trap_max =
      marginal_cost(guest, kTrapN1, kTrapN2, [](Env& e, unsigned n) {
        return run_lz(e, n, /*resched_every_trap=*/true);
      });
  {
    Env env(guest);
    env.vm->enter_vm();
    // Average over a few round-trips.
    Cycles total = 0;
    constexpr int kReps = 16;
    for (int i = 0; i < kReps; ++i) total += env.vm->kvm_hypercall_roundtrip();
    costs.kvm_hypercall = total / kReps;
    env.vm->exit_vm();
  }
  {
    Env env(host);
    auto& m = *env.machine;
    Cycles start = m.cycles();
    constexpr int kReps = 16;
    for (int i = 0; i < kReps; ++i) {
      env.host->write_hcr(arch::hcr::kRw | (static_cast<u64>(i & 1) << 13));
    }
    costs.hcr_update = (m.cycles() - start) / kReps;
    start = m.cycles();
    for (int i = 0; i < kReps; ++i) {
      env.host->write_vttbr(u64{static_cast<u64>(i + 1)} << 48);
    }
    costs.vttbr_update = (m.cycles() - start) / kReps;
  }
  return costs;
}

TrapAblations measure_trap_ablations(const arch::Platform& platform) {
  TrapAblations ab;
  ab.lz_host_trap_no_cond_sysreg = marginal_cost(
      Env::Options().platform(platform), kTrapN1, kTrapN2,
      [](Env& e, unsigned n) {
        e.host->set_conditional_sysreg_opt(false);
        return run_lz(e, n);
      });
  const auto nested_with = [&](bool shared_ptregs, bool deferred) {
    core::LzOptions opts;
    opts.shared_ptregs = shared_ptregs;
    opts.deferred_sysregs = deferred;
    return marginal_cost(
        Env::Options().platform(platform).placement(Env::Placement::kGuest),
        kTrapN1, kTrapN2, [&opts](Env& e, unsigned n) {
          return run_lz(e, n, /*resched_every_trap=*/false, &opts);
        });
  };
  ab.lz_guest_trap_no_shared_ptregs = nested_with(false, true);
  ab.lz_guest_trap_no_deferred_sysregs = nested_with(true, false);
  return ab;
}

// --- Table 5 ------------------------------------------------------------------

namespace {

// Domain d is the 4 KiB page at kArena + d pages; every gate enters at
// the same static entry.
constexpr VirtAddr kArena = Env::kHeapVa;
constexpr VirtAddr kGateEntry = Env::kCodeVa + 0x40;

VirtAddr domain_va(int d) { return kArena + static_cast<u64>(d) * kPageSize; }

// The Table-5 domain build: domain d gets its own table (d = 0 keeps the
// default one) behind gate d, and its page is faulted in. With
// `asid_tags = false` (live module only) every table shares ASID 1.
void build_domains(LzProc& lz, int domains, bool asid_tags) {
  auto& be = lz.backend();
  LZ_CHECK(domains >= 1 && domains <= be.max_domains());
  for (int d = 0; d < domains; ++d) {
    const int pgt = d == 0 ? 0 : be.alloc().value();
    if (!asid_tags) lz.ctx().pgts[pgt].tbl->set_asid(1);
    LZ_CHECK_OK(be.prot(domain_va(d), kPageSize, pgt,
                        core::kLzRead | core::kLzWrite));
    LZ_CHECK_OK(be.map_gate_pgt(pgt, d));
    LZ_CHECK_OK(be.set_gate_entry(d, kGateEntry));
    LZ_CHECK_OK(be.touch(domain_va(d), /*want_write=*/true,
                         /*want_exec=*/false));
  }
}

struct LoopStats {
  double avg_cycles = 0;  // per switch-and-access, the calling core's ledger
  mem::TlbStats tlb;      // the calling core's TLB delta over the loop
};

// The Table-5 switch-and-access loop on the calling core: visit every
// domain once to warm gates and pages, then `iters` random switches, each
// followed by one 8-byte access in the new domain. Without ASID tags the
// switch also pays a TLB flush (invalidate the VMID, DSB + ISB).
LoopStats switch_and_access(LzProc& lz, sim::Machine& machine, int domains,
                            int iters, u64 seed, bool asid_tags) {
  auto& be = lz.backend();
  for (int d = 0; d < domains; ++d) {
    LZ_CHECK(be.switch_to(d).is_ok());
    (void)be.access(domain_va(d));
  }
  Rng rng(seed);
  const mem::TlbStats before = machine.tlb().stats();
  const Cycles start = machine.account().total();
  for (int i = 0; i < iters; ++i) {
    const int d = static_cast<int>(rng.below(domains));
    LZ_CHECK(be.switch_to(d).is_ok());
    if (!asid_tags) {
      machine.tlb().invalidate_vmid(lz.ctx().vmid);
      machine.charge(sim::CostKind::kSysreg,
                     machine.platform().dsb + machine.platform().isb);
    }
    (void)be.access(domain_va(d));
  }
  LoopStats out;
  out.avg_cycles =
      static_cast<double>(machine.account().total() - start) / iters;
  const mem::TlbStats after = machine.tlb().stats();
  out.tlb.l1_hits = after.l1_hits - before.l1_hits;
  out.tlb.l2_hits = after.l2_hits - before.l2_hits;
  out.tlb.misses = after.misses - before.misses;
  return out;
}

// The PAN mechanism (Table 5's "1 (PAN)" column): one protected domain
// holding every buffer, opened and closed by toggling PAN around each
// access.
double pan_switch_avg_cycles(Env& env, LzProc& lz, int iters) {
  auto& core = env.machine->core();
  LZ_CHECK_OK(lz.lz_prot(kArena, kPageSize, core::kPgtAll,
                         core::kLzRead | core::kLzWrite | core::kLzUser));
  LZ_CHECK_OK(lz.backend().touch(kArena, true, false));
  lz.enter_world();
  core.pstate().pan = true;
  // Warm-up access.
  lz.set_pan(false);
  (void)core.mem_read(kArena, 8);
  lz.set_pan(true);
  const Cycles start = env.machine->cycles();
  for (int i = 0; i < iters; ++i) {
    lz.set_pan(false);
    (void)core.mem_read(kArena, 8);
    lz.set_pan(true);
  }
  const double avg =
      static_cast<double>(env.machine->cycles() - start) / iters;
  lz.exit_world();
  return avg;
}

}  // namespace

SwitchResult switch_avg_cycles(core::BackendKind kind,
                               const arch::Platform& platform,
                               Placement placement, int domains, int iters,
                               u64 seed, bool asid_tags) {
  const bool live = kind == core::BackendKind::kTtbrPan;
  Env env(Env::Options().platform(platform).placement(placement));
  LzProc lz = baseline::make_backend_proc(kind, env);
  SwitchResult out;
  if (live && domains <= 1) {
    out.avg_cycles = pan_switch_avg_cycles(env, lz, iters);
    return out;
  }
  build_domains(lz, domains, asid_tags);
  lz.enter_world();
  out.avg_cycles =
      switch_and_access(lz, *env.machine, domains, iters, seed, asid_tags)
          .avg_cycles;
  LZ_CHECK(!live || lz.proc().alive());
  lz.exit_world();
  out.stats = lz.backend().stats();
  return out;
}

std::vector<SmpSwitchStats> switch_avg_cycles_smp(
    const arch::Platform& platform, Placement placement, unsigned cores,
    int domains, int iters, u64 seed) {
  LZ_CHECK(cores >= 1 && domains >= 2);
  Env env(Env::Options()
              .platform(platform)
              .placement(placement)
              .cores(cores)
              .seed(seed));
  auto& machine = *env.machine;

  // Deterministic setup: one LightZone process per core, prepared
  // sequentially on the main thread so frame-allocation order (and thus
  // every table layout) is independent of thread scheduling. The core
  // binding only routes per-core state (sysregs, accounts) while staging.
  std::vector<std::optional<LzProc>> lzs(cores);
  for (unsigned w = 0; w < cores; ++w) {
    sim::Machine::CoreBinding bind(machine, w);
    lzs[w].emplace(
        baseline::make_backend_proc(core::BackendKind::kTtbrPan, env));
    build_domains(*lzs[w], domains, /*asid_tags=*/true);
  }

  // Concurrent phase: every core runs its own switch-and-access loop.
  // Work streams are disjoint (own process, own VMID, own TLB), so each
  // core's cycle count and TLB statistics are exact and reproducible.
  std::vector<SmpSwitchStats> stats(cores);
  for (unsigned w = 0; w < cores; ++w) {
    env.kern().run_on(w, [&, w](unsigned core_id) {
      auto& lz = *lzs[w];
      lz.enter_world();
      const LoopStats r = switch_and_access(lz, machine, domains, iters,
                                            seed + core_id, true);
      LZ_CHECK(lz.proc().alive());
      stats[core_id] = {r.avg_cycles, r.tlb.hit_rate(), r.tlb.lookups()};
      lz.exit_world();
    });
  }
  env.kern().schedule();
  return stats;
}

double watchpoint_switch_avg_cycles(const arch::Platform& platform,
                                    Placement placement, int domains,
                                    int iters, u64 seed) {
  LZ_CHECK(domains >= 1 &&
           domains <= baseline::WatchpointIsolation::kMaxDomains);
  Env env(Env::Options().platform(platform).placement(placement));
  baseline::WatchpointIsolation wp(*env.host, env.vm.get());
  auto& proc = wp.kern().create_process();
  const VirtAddr arena = 0x40000000;  // 1 GiB-aligned arena
  LZ_CHECK_OK(wp.kern().mmap(proc, arena, 16 * kPageSize,
                             kernel::kProtRead | kernel::kProtWrite,
                             /*populate=*/true));
  LZ_CHECK_OK(wp.setup_arena(arena, kPageSize, domains));

  auto& core = env.machine->core();
  wp.kern().load_ctx(proc, core);
  core.pstate().el = arch::ExceptionLevel::kEl0;
  Rng rng(seed);

  const Cycles start = env.machine->cycles();
  for (int i = 0; i < iters; ++i) {
    const int d = static_cast<int>(rng.below(domains));
    wp.switch_to(d);
    (void)core.mem_read(wp.domain_base(d), 8);
  }
  return static_cast<double>(env.machine->cycles() - start) / iters;
}

double lwc_switch_avg_cycles(const arch::Platform& platform,
                             Placement placement, int domains, int iters,
                             u64 seed) {
  Env env(Env::Options().platform(platform).placement(placement));
  baseline::LwcIsolation lwc(*env.host, env.vm.get());
  for (int d = 0; d < domains; ++d) {
    const int id = lwc.create_context();
    LZ_CHECK_OK(lwc.attach(id, 0x40000000 + static_cast<u64>(d) * kPageSize,
                           kPageSize));
  }
  Rng rng(seed);
  const Cycles start = env.machine->cycles();
  for (int i = 0; i < iters; ++i) {
    lwc.switch_to(static_cast<int>(rng.below(domains)));
    env.machine->charge(sim::CostKind::kMem, platform.mem_access);
  }
  return static_cast<double>(env.machine->cycles() - start) / iters;
}

}  // namespace lz::workload
