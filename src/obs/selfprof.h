// lz::obs — host-side self-profiler (`host.self.*`).
//
// Cheap TSC bracketing of the engine tiers (outer Core::run, trace-tier
// execute, page-table walker, lz::check oracle) and of the obs stack's own
// work (sampling, exposition, report assembly), flushed at the existing
// run-exit flush points. Ticks are wall-clock and therefore never appear
// in JSON reports; the exposition carries them only while the profiler is
// enabled (--self-profile) — they exist so the obs stack can audit its own
// host cost (ci.sh gates host.self.obs against the engine total).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>

#include "support/types.h"

namespace lz::obs {

// Engine tiers the self-profiler attributes host wall-clock to. kRun is
// the outer Core::run bracket and *includes* its sub-tiers (trace-tier
// execute, walker, oracle); kObs is everything the obs stack does on the
// host (time-series sampling, exposition rendering/writing, report
// assembly) and is disjoint from kRun.
enum class SelfTier : u8 { kRun, kTraceExec, kWalker, kOracle, kObs, kCount };
constexpr std::size_t kNumSelfTiers = static_cast<std::size_t>(SelfTier::kCount);
const char* to_string(SelfTier tier);

// Monotonic host tick source: TSC where cheap, steady_clock nanoseconds
// otherwise. Only ratios between tiers are ever consumed, so the unit does
// not need to be calibrated.
u64 host_ticks();

class SelfProfiler {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Attribute `ticks` to `tier`. Relaxed fetch_add on a per-tier global;
  // sim cores batch per-core and flush at their run-exit flush point, so
  // this is never on a per-instruction path.
  void add(SelfTier tier, u64 ticks) {
    ticks_[static_cast<std::size_t>(tier)].fetch_add(ticks,
                                                     std::memory_order_relaxed);
  }
  u64 ticks(SelfTier tier) const {
    return ticks_[static_cast<std::size_t>(tier)].load(
        std::memory_order_relaxed);
  }

  // Disable and zero all tiers.
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  std::array<std::atomic<u64>, kNumSelfTiers> ticks_{};
};

SelfProfiler& selfprof();

// RAII bracket: reads host_ticks() twice when the profiler is enabled at
// construction, nothing otherwise.
class SelfProfScope {
 public:
  explicit SelfProfScope(SelfTier tier)
      : tier_(tier), start_(selfprof().enabled() ? host_ticks() : 0) {}
  ~SelfProfScope() {
    if (start_ != 0) selfprof().add(tier_, host_ticks() - start_);
  }
  SelfProfScope(const SelfProfScope&) = delete;
  SelfProfScope& operator=(const SelfProfScope&) = delete;

 private:
  SelfTier tier_;
  u64 start_;
};

}  // namespace lz::obs
