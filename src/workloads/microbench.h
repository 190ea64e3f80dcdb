// Microbenchmark harnesses reproducing the paper's Table 4 (trap costs)
// and Table 5 (domain-switch costs). Shared by the calibration tests, the
// bench binaries and AppDriver; each primitive exists once:
//
//   * Table 4: every syscall row is a marginal cost, the difference of two
//     unrolled runs of empty syscalls (marginal_syscall_cycles). AppDriver's
//     per-syscall cost is the same probe at its own run lengths.
//   * Table 5: one program over the IsolationBackend seam. One domain build
//     (alloc -> prot -> map_gate_pgt -> set_gate_entry -> touch per domain)
//     and one switch-and-access loop (switch_to(d) + access) serve the live
//     module, every cost-model backend and the SMP variant. Only the PAN
//     program (domains <= 1 on ttbr_pan), the ASID-tag ablation and the SMP
//     run's per-core seeds, accounts and TLB deltas are their own.
#pragma once

#include <vector>

#include "arch/platform.h"
#include "lightzone/api.h"
#include "support/types.h"

namespace lz::workload {

using Placement = core::Env::Placement;

// --- Table 4: empty trap-and-return round-trips ------------------------------
struct TrapCosts {
  Cycles host_syscall = 0;       // host user mode -> host hypervisor mode
  Cycles guest_syscall = 0;      // guest user mode -> guest kernel mode
  Cycles lz_host_trap = 0;       // LightZone kernel mode -> host hyp mode
  Cycles lz_guest_trap_min = 0;  // LightZone kernel mode -> guest kernel
  Cycles lz_guest_trap_max = 0;  //   (fluctuates with rescheduling, §8.1)
  Cycles kvm_hypercall = 0;      // KVM VHE hypercall (full world switch)
  Cycles hcr_update = 0;
  Cycles vttbr_update = 0;
};

TrapCosts measure_trap_costs(const arch::Platform& platform);

// Ablations of the §5.2 optimisations (reported by bench/table4_traps):
// LightZone host trap with conventional HCR/VTTBR switching, and the
// nested trap without the shared-pt_regs / deferred-sysreg optimisations.
struct TrapAblations {
  Cycles lz_host_trap_no_cond_sysreg = 0;
  Cycles lz_guest_trap_no_shared_ptregs = 0;
  Cycles lz_guest_trap_no_deferred_sysregs = 0;
};
TrapAblations measure_trap_ablations(const arch::Platform& platform);

// Marginal cycles of one empty syscall in fresh `opts` scenarios, from
// unrolled runs of `n1` and `n2` syscalls (process setup, demand faults
// and the exit path cancel out): a plain user process under the
// scenario's placement, or with `lightzone` a LightZone process trapping
// from kernel mode.
Cycles marginal_syscall_cycles(const core::Env::Options& opts, bool lightzone,
                               unsigned n1, unsigned n2);

// --- Table 5: domain switching ------------------------------------------------
// The paper's program: create `domains` 4 KiB memory domains, attach each
// to its own table and call gate, then randomly switch + access 8 bytes,
// `iters` times. Returns the average cycles per switch-and-access, plus
// the mechanism-specific totals of the whole run (empty for kTtbrPan).
//
// kTtbrPan is the live LightZone module; its numbers are the published
// goldens. There, domains == 1 runs the PAN program instead (one protected
// domain, PAN toggled around each access), and `asid_tags = false` is the
// §4.1.2 ablation: every table shares one ASID, so each switch pays a TLB
// flush. The model backends charge their mechanism's costs (POR_EL0
// writes, GPT walks, watchpoint reprogramming) into the same ledger.
struct SwitchResult {
  double avg_cycles = 0;
  core::BackendStats stats;
};
SwitchResult switch_avg_cycles(core::BackendKind kind,
                               const arch::Platform& platform,
                               Placement placement, int domains,
                               int iters = 10'000, u64 seed = 42,
                               bool asid_tags = true);

// SMP variant of the Table-5 program on the live module: the same build
// and switch-and-access loop run concurrently on every core of an N-core
// machine, one LightZone process (with its own domains, gates and VMID)
// pinned per core and seeded `seed + core`. Setup is sequential and
// per-core work streams are disjoint, so totals are deterministic. Hit
// rates come from the per-core TLB statistics.
struct SmpSwitchStats {
  double avg_cycles = 0;  // per switch-and-access, this core's ledger only
  double hit_rate = 0;    // combined L1+L2 TLB hit rate during the loop
  u64 lookups = 0;
};
std::vector<SmpSwitchStats> switch_avg_cycles_smp(
    const arch::Platform& platform, Placement placement, unsigned cores,
    int domains, int iters = 10'000, u64 seed = 42);

// The §8 baselines' own Table-5 programs (no gate build: the Watchpoint
// arena and lwC contexts predate the backend seam, and their rows are
// published numbers).
double watchpoint_switch_avg_cycles(const arch::Platform& platform,
                                    Placement placement, int domains,
                                    int iters = 10'000, u64 seed = 42);

double lwc_switch_avg_cycles(const arch::Platform& platform,
                             Placement placement, int domains,
                             int iters = 10'000, u64 seed = 42);

}  // namespace lz::workload
