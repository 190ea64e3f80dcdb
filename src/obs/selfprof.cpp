#include "obs/selfprof.h"

#include <chrono>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace lz::obs {

const char* to_string(SelfTier tier) {
  switch (tier) {
    case SelfTier::kRun:
      return "run";
    case SelfTier::kTraceExec:
      return "trace_exec";
    case SelfTier::kWalker:
      return "walker";
    case SelfTier::kOracle:
      return "oracle";
    case SelfTier::kObs:
      return "obs";
    case SelfTier::kCount:
      break;
  }
  return "?";
}

u64 host_ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
#endif
}

void SelfProfiler::reset() {
  disable();
  for (auto& t : ticks_) t.store(0, std::memory_order_relaxed);
}

SelfProfiler& selfprof() {
  static SelfProfiler prof;
  return prof;
}

}  // namespace lz::obs
