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
// process setup, demand faults and exit path cancel out).
template <typename RunFn>
Cycles marginal_cost(Env& env1, Env& env2, unsigned n1, unsigned n2,
                     RunFn&& run) {
  const Cycles c1 = run(env1, n1);
  const Cycles c2 = run(env2, n2);
  return (c2 - c1) / (n2 - n1);
}

Cycles run_host_user(Env& env, unsigned syscalls) {
  auto& proc = env.new_process();
  Asm a = syscall_program(syscalls);
  install_code(env, proc, a);
  const Cycles start = env.machine->cycles();
  env.host->run_user_process(proc);
  LZ_CHECK(!proc.alive() && proc.kill_reason().empty());
  return env.machine->cycles() - start;
}

Cycles run_guest_user(Env& env, unsigned syscalls) {
  auto& proc = env.new_process();
  Asm a = syscall_program(syscalls);
  install_code(env, proc, a);
  env.vm->enter_vm();
  const Cycles start = env.machine->cycles();
  env.vm->run_user_process(proc);
  const Cycles total = env.machine->cycles() - start;
  env.vm->exit_vm();
  LZ_CHECK(!proc.alive() && proc.kill_reason().empty());
  return total;
}

Cycles run_lz(Env& env, unsigned syscalls, bool resched_every_trap = false) {
  auto& proc = env.new_process();
  Asm a = syscall_program(syscalls);
  install_code(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
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

}  // namespace

TrapCosts measure_trap_costs(const arch::Platform& platform) {
  TrapCosts costs;
  constexpr unsigned kN1 = 64, kN2 = 192;

  {
    Env e1(Env::Options().platform(platform)),
        e2(Env::Options().platform(platform));
    costs.host_syscall =
        marginal_cost(e1, e2, kN1, kN2, [](Env& e, unsigned n) {
          return run_host_user(e, n);
        });
  }
  {
    Env e1(Env::Options().platform(platform).placement(Env::Placement::kGuest)),
        e2(Env::Options().platform(platform).placement(Env::Placement::kGuest));
    costs.guest_syscall =
        marginal_cost(e1, e2, kN1, kN2, [](Env& e, unsigned n) {
          return run_guest_user(e, n);
        });
  }
  {
    Env e1(Env::Options().platform(platform)),
        e2(Env::Options().platform(platform));
    costs.lz_host_trap =
        marginal_cost(e1, e2, kN1, kN2, [](Env& e, unsigned n) {
          return run_lz(e, n);
        });
  }
  {
    Env e1(Env::Options().platform(platform).placement(Env::Placement::kGuest)),
        e2(Env::Options().platform(platform).placement(Env::Placement::kGuest));
    costs.lz_guest_trap_min =
        marginal_cost(e1, e2, kN1, kN2, [](Env& e, unsigned n) {
          return run_lz(e, n);
        });
  }
  {
    Env e1(Env::Options().platform(platform).placement(Env::Placement::kGuest)),
        e2(Env::Options().platform(platform).placement(Env::Placement::kGuest));
    costs.lz_guest_trap_max =
        marginal_cost(e1, e2, kN1, kN2, [](Env& e, unsigned n) {
          return run_lz(e, n, /*resched_every_trap=*/true);
        });
  }
  {
    Env env(Env::Options().platform(platform).placement(Env::Placement::kGuest));
    env.vm->enter_vm();
    // Average over a few round-trips.
    Cycles total = 0;
    constexpr int kReps = 16;
    for (int i = 0; i < kReps; ++i) total += env.vm->kvm_hypercall_roundtrip();
    costs.kvm_hypercall = total / kReps;
    env.vm->exit_vm();
  }
  {
    Env env(Env::Options().platform(platform));
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
  constexpr unsigned kN1 = 64, kN2 = 192;
  {
    Env e1(Env::Options().platform(platform)),
        e2(Env::Options().platform(platform));
    e1.host->set_conditional_sysreg_opt(false);
    e2.host->set_conditional_sysreg_opt(false);
    ab.lz_host_trap_no_cond_sysreg =
        marginal_cost(e1, e2, kN1, kN2, [](Env& e, unsigned n) {
          return run_lz(e, n);
        });
  }
  const auto nested_with = [&](bool shared_ptregs, bool deferred) {
    Env e1(Env::Options().platform(platform).placement(Env::Placement::kGuest)),
        e2(Env::Options().platform(platform).placement(Env::Placement::kGuest));
    const auto run = [&](Env& e, unsigned n) {
      auto& proc = e.new_process();
      Asm a = syscall_program(n);
      install_code(e, proc, a);
      core::LzOptions opts;
      opts.shared_ptregs = shared_ptregs;
      opts.deferred_sysregs = deferred;
      LzProc lz = LzProc::enter(*e.module, proc, true, 1, &opts);
      const Cycles start = e.machine->cycles();
      lz.run(100'000'000);
      return e.machine->cycles() - start;
    };
    return marginal_cost(e1, e2, kN1, kN2, run);
  };
  ab.lz_guest_trap_no_shared_ptregs = nested_with(false, true);
  ab.lz_guest_trap_no_deferred_sysregs = nested_with(true, false);
  return ab;
}

// --- Table 5 ------------------------------------------------------------------

double lz_switch_avg_cycles(const arch::Platform& platform,
                            Placement placement, int domains, int iters,
                            u64 seed, bool asid_tags) {
  Env env(Env::Options().platform(platform).placement(
      placement == Placement::kHost ? Env::Placement::kHost
                                    : Env::Placement::kGuest));
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  auto& core = env.machine->core();
  auto& module = lz.module();
  auto& ctx = lz.ctx();
  Rng rng(seed);

  const VirtAddr arena = Env::kHeapVa;
  const VirtAddr entry = Env::kCodeVa + 0x40;

  if (domains <= 1) {
    // PAN mechanism: one protected domain holding every buffer.
    LZ_CHECK_OK(module.prot(ctx, arena, kPageSize, core::kPgtAll,
                            core::kLzRead | core::kLzWrite | core::kLzUser));
    LZ_CHECK_OK(module.touch_page(ctx, arena, true, false));
    lz.enter_world();
    core.pstate().el = arch::ExceptionLevel::kEl1;
    core.pstate().pan = true;
    core.set_sysreg(sim::SysReg::kTtbr0El1, module.domain_ttbr(ctx, 0));
    core.set_sysreg(sim::SysReg::kTtbr1El1, ctx.ctx.ttbr1);
    core.set_sysreg(sim::SysReg::kVbarEl1, ctx.ctx.vbar);
    // Warm-up access.
    lz.set_pan(false);
    (void)core.mem_read(arena, 8);
    lz.set_pan(true);
    const Cycles start = env.machine->cycles();
    for (int i = 0; i < iters; ++i) {
      lz.set_pan(false);
      (void)core.mem_read(arena, 8);
      lz.set_pan(true);
    }
    const double avg =
        static_cast<double>(env.machine->cycles() - start) / iters;
    lz.exit_world();
    return avg;
  }

  // Scalable mechanism: one 4 KiB domain per stage-1 table, one gate each.
  std::vector<int> pgts(domains);
  for (int d = 0; d < domains; ++d) {
    const VirtAddr va = arena + static_cast<u64>(d) * kPageSize;
    const int pgt = d == 0 ? 0 : lz.lz_alloc().value();
    LZ_CHECK(pgt >= 0);
    pgts[d] = pgt;
    if (!asid_tags) {
      // Ablation: all tables share one ASID, forcing TLB invalidation
      // semantics on every switch (modelled as a flush per switch below).
      ctx.pgts[pgt].tbl->set_asid(1);
      // Refresh the published TTBR value.
    }
    LZ_CHECK_OK(module.prot(ctx, va, kPageSize, pgt,
                            core::kLzRead | core::kLzWrite));
    LZ_CHECK_OK(module.map_gate_pgt(ctx, pgt, d));
    LZ_CHECK_OK(module.set_gate_entry(ctx, d, entry));
    LZ_CHECK_OK(module.touch_page(ctx, va, true, false));
  }

  lz.enter_world();
  core.pstate().el = arch::ExceptionLevel::kEl1;
  core.set_sysreg(sim::SysReg::kTtbr0El1, module.domain_ttbr(ctx, 0));
  core.set_sysreg(sim::SysReg::kTtbr1El1, ctx.ctx.ttbr1);
  core.set_sysreg(sim::SysReg::kVbarEl1, ctx.ctx.vbar);

  // Warm up: visit each domain once.
  for (int d = 0; d < domains; ++d) {
    LZ_CHECK(module.exec_gate_switch(ctx, d).is_ok());
    (void)core.mem_read(arena + static_cast<u64>(d) * kPageSize, 8);
  }

  const Cycles start = env.machine->cycles();
  for (int i = 0; i < iters; ++i) {
    const int d = static_cast<int>(rng.below(domains));
    LZ_CHECK(module.exec_gate_switch(ctx, d).is_ok());
    if (!asid_tags) {
      env.machine->tlb().invalidate_vmid(ctx.vmid);
      env.machine->charge(sim::CostKind::kSysreg, platform.dsb + platform.isb);
    }
    (void)core.mem_read(arena + static_cast<u64>(d) * kPageSize, 8);
    LZ_CHECK(proc.alive());
  }
  const double avg =
      static_cast<double>(env.machine->cycles() - start) / iters;
  lz.exit_world();
  return avg;
}

std::vector<SmpSwitchStats> lz_switch_avg_cycles_smp(
    const arch::Platform& platform, Placement placement, unsigned cores,
    int domains, int iters, u64 seed) {
  LZ_CHECK(cores >= 1 && domains >= 2);
  Env env(Env::Options()
              .platform(platform)
              .placement(placement == Placement::kHost
                             ? Env::Placement::kHost
                             : Env::Placement::kGuest)
              .cores(cores)
              .seed(seed));
  auto& machine = *env.machine;
  const VirtAddr arena = Env::kHeapVa;
  const VirtAddr entry = Env::kCodeVa + 0x40;

  // Deterministic setup: one LightZone process per core, prepared
  // sequentially on the main thread so frame-allocation order (and thus
  // every table layout) is independent of thread scheduling. The core
  // binding only routes per-core state (sysregs, accounts) while staging.
  std::vector<std::optional<LzProc>> lzs(cores);
  for (unsigned w = 0; w < cores; ++w) {
    sim::Machine::CoreBinding bind(machine, w);
    auto& proc = env.new_process();
    lzs[w].emplace(LzProc::enter(*env.module, proc, true, 1));
    auto& lz = *lzs[w];
    auto& module = lz.module();
    auto& ctx = lz.ctx();
    for (int d = 0; d < domains; ++d) {
      const VirtAddr va = arena + static_cast<u64>(d) * kPageSize;
      const int pgt = d == 0 ? 0 : module.alloc_pgt(ctx).value();
      LZ_CHECK_OK(module.prot(ctx, va, kPageSize, pgt,
                              core::kLzRead | core::kLzWrite));
      LZ_CHECK_OK(module.map_gate_pgt(ctx, pgt, d));
      LZ_CHECK_OK(module.set_gate_entry(ctx, d, entry));
      LZ_CHECK_OK(module.touch_page(ctx, va, true, false));
    }
  }

  // Concurrent phase: every core runs its own switch-and-access loop.
  // Work streams are disjoint (own process, own VMID, own TLB), so each
  // core's cycle count and TLB statistics are exact and reproducible.
  std::vector<SmpSwitchStats> stats(cores);
  for (unsigned w = 0; w < cores; ++w) {
    env.kern().run_on(w, [&, w](unsigned core_id) {
      auto& lz = *lzs[w];
      auto& module = lz.module();
      auto& ctx = lz.ctx();
      auto& core = machine.core(core_id);
      lz.enter_world();
      core.pstate().el = arch::ExceptionLevel::kEl1;
      core.set_sysreg(sim::SysReg::kTtbr0El1, module.domain_ttbr(ctx, 0));
      core.set_sysreg(sim::SysReg::kTtbr1El1, ctx.ctx.ttbr1);
      core.set_sysreg(sim::SysReg::kVbarEl1, ctx.ctx.vbar);
      Rng rng(seed + core_id);
      for (int d = 0; d < domains; ++d) {  // warm gates and pages
        LZ_CHECK(module.exec_gate_switch(ctx, d).is_ok());
        (void)core.mem_read(arena + static_cast<u64>(d) * kPageSize, 8);
      }
      const mem::TlbStats before = machine.tlb(core_id).stats();
      const Cycles start = machine.account(core_id).total();
      for (int i = 0; i < iters; ++i) {
        const int d = static_cast<int>(rng.below(domains));
        LZ_CHECK(module.exec_gate_switch(ctx, d).is_ok());
        (void)core.mem_read(arena + static_cast<u64>(d) * kPageSize, 8);
        LZ_CHECK(lz.proc().alive());
      }
      auto& s = stats[core_id];
      s.avg_cycles = static_cast<double>(machine.account(core_id).total() -
                                         start) /
                     iters;
      const mem::TlbStats after = machine.tlb(core_id).stats();
      mem::TlbStats d;
      d.l1_hits = after.l1_hits - before.l1_hits;
      d.l2_hits = after.l2_hits - before.l2_hits;
      d.misses = after.misses - before.misses;
      s.hit_rate = d.hit_rate();
      s.lookups = d.lookups();
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
  Env env(Env::Options().platform(platform).placement(
      placement == Placement::kHost ? Env::Placement::kHost
                                    : Env::Placement::kGuest));
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
  Env env(Env::Options().platform(platform).placement(
      placement == Placement::kHost ? Env::Placement::kHost
                                    : Env::Placement::kGuest));
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

BackendSwitchResult backend_switch_avg_cycles(core::BackendKind kind,
                                              const arch::Platform& platform,
                                              Placement placement, int domains,
                                              int iters, u64 seed) {
  BackendSwitchResult out;
  if (kind == core::BackendKind::kTtbrPan) {
    out.avg_cycles =
        lz_switch_avg_cycles(platform, placement, domains, iters, seed);
    return out;
  }
  Env env(Env::Options()
              .platform(platform)
              .placement(placement == Placement::kHost
                             ? Env::Placement::kHost
                             : Env::Placement::kGuest));
  auto be = baseline::make_backend(kind, env);
  LZ_CHECK(domains >= 1 && domains <= be->max_domains());

  const VirtAddr arena = Env::kHeapVa;
  const VirtAddr entry = Env::kCodeVa + 0x40;
  for (int d = 0; d < domains; ++d) {
    const VirtAddr va = arena + static_cast<u64>(d) * kPageSize;
    const int pgt = d == 0 ? 0 : be->alloc().value();
    LZ_CHECK(pgt >= 0);
    LZ_CHECK_OK(be->prot(va, kPageSize, pgt, core::kLzRead | core::kLzWrite));
    LZ_CHECK_OK(be->map_gate_pgt(pgt, d));
    LZ_CHECK_OK(be->set_gate_entry(d, entry));
    LZ_CHECK_OK(be->touch(va, /*want_write=*/true, /*want_exec=*/false));
  }

  Rng rng(seed);
  for (int d = 0; d < domains; ++d) {  // warm every domain once
    LZ_CHECK(be->switch_to(d).is_ok());
    (void)be->access(arena + static_cast<u64>(d) * kPageSize);
  }
  const Cycles start = env.machine->cycles();
  for (int i = 0; i < iters; ++i) {
    const int d = static_cast<int>(rng.below(domains));
    LZ_CHECK(be->switch_to(d).is_ok());
    (void)be->access(arena + static_cast<u64>(d) * kPageSize);
  }
  out.avg_cycles = static_cast<double>(env.machine->cycles() - start) / iters;
  out.stats = be->stats();
  return out;
}

}  // namespace lz::workload
