// Cycle accounting. Every architectural event charges cycles into a
// category so benchmarks can report both totals and breakdowns
// (e.g. how much of a trap round-trip is register switching).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>

#include "obs/counters.h"
#include "support/types.h"

namespace lz::sim {

enum class CostKind : u8 {
  kInsn,       // instruction execution base cost
  kMem,        // data memory accesses (L1 hits)
  kTlb,        // TLB L2 hits and walk costs
  kExcp,       // hardware exception entry / return
  kGpr,        // general-purpose register save/restore
  kSysreg,     // system-register reads/writes
  kCtx,        // bulk context (FP/SIMD, GIC, timers)
  kDispatch,   // software handler dispatch / bookkeeping
  kGate,       // secure call-gate execution
  kWorkload,   // modelled application work (event-level workloads)
  kTlbi,       // DVM broadcast TLB shootdown (TLBI ...IS)
  kCount,
};

inline constexpr std::size_t kNumCostKinds =
    static_cast<std::size_t>(CostKind::kCount);

const char* to_string(CostKind kind);

static_assert(kNumCostKinds <= obs::CycleLedger::kMaxKinds,
              "CostKind no longer fits an obs::CycleLedger shard");

// Per-core cycle account: one shard of the process-wide obs::CycleLedger,
// claimed at construction and released at destruction. Charges come only
// from the thread bound to the owning core (Machine::CoreBinding; the
// scheduler, the SMP workloads and the fuzzers run one worker per core and
// set up on the main thread), so a charge is a plain relaxed load and
// store per field with no read-modify-write — LZ_CONF_CHECK builds trip if
// two threads ever charge one account at once. Any thread may read the
// totals (relaxed atomics, so e.g. the main thread summing
// Machine::cycles() across cores is race-free; addition commutes, so
// totals stay deterministic). A claimed shard may carry a previous
// account's counts; this account counts from them.
class CycleAccount {
 public:
  CycleAccount() : shard_(obs::cycle_ledger().claim()) {
    origin_total_ = shard_.total.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < kNumCostKinds; ++k)
      origin_[k] = shard_.by_kind[k].load(std::memory_order_relaxed);
  }
  ~CycleAccount() { obs::cycle_ledger().release(shard_); }
  CycleAccount(const CycleAccount&) = delete;
  CycleAccount& operator=(const CycleAccount&) = delete;

  void charge(CostKind kind, Cycles c) {
    assert(static_cast<std::size_t>(kind) <
               static_cast<std::size_t>(CostKind::kCount) &&
           "charge() with an out-of-range CostKind");
    shard_.add(static_cast<std::size_t>(kind), c);
    if (obs::timeseries_armed())
      obs::timeseries_poll(obs::cycle_ledger().total());
  }

  Cycles total() const {
    return shard_.total.load(std::memory_order_relaxed) - origin_total_;
  }
  Cycles of(CostKind kind) const {
    const auto k = static_cast<std::size_t>(kind);
    return shard_.by_kind[k].load(std::memory_order_relaxed) - origin_[k];
  }

 private:
  obs::CycleLedger::Shard& shard_;
  Cycles origin_total_ = 0;
  std::array<Cycles, kNumCostKinds> origin_{};
};

}  // namespace lz::sim
