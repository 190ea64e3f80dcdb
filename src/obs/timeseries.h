// lz::obs — time-series telemetry.
//
// A simulated-cycle-driven sampler: every `period` cycles of global
// simulated work (CycleLedger::total), snapshot the registry's unlabeled
// counters and histograms into the shared bounded ring (ring.h). The
// result is rps / p99-over-time data for saturation sweeps — the substrate
// the fleet-scale serving bench plots stand on — emitted as the
// `timeseries` section of lz.bench.report.v2.
//
// The sampler hooks the hottest function in the tree (CycleLedger::charge)
// so the disabled cost had better be nothing: it is one relaxed load of
// the next-due threshold (parked at ~0 when disarmed) and one compare.
// When armed, the thread whose charge crosses the threshold CAS-claims the
// sample; losers of the race skip. Sampling itself reads counters and
// histogram stats — observe-only, zero simulated cycles charged, so cycle
// totals and golden reports are byte-identical whether or not the sampler
// runs.
//
// Samples are timestamped by the ledger total at claim time. Under SMP the
// claim interleaving (and so exact sample timestamps) may vary run to run;
// the deterministic-report CI legs simply do not pass --ts-period, and the
// section is only emitted when armed.
//
// Armed with an exposition path (--metrics-out), every sample also
// rewrites that file (expose.h), so a running bench can be scraped live.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/ring.h"
#include "support/types.h"

namespace lz::obs {

// The due threshold (detail::g_ts_next_due) and the charge-path slow-path
// declaration live in counters.h next to CycleLedger::charge, the hook
// site; this header owns the sampler itself.

struct TimeSeriesSample {
  Cycles ts = 0;  // ledger total when the sample was claimed
  Snapshot counters;
  std::vector<HistogramStats> histograms;
};

class TimeSeries {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  // Start sampling every `period` simulated cycles, keeping the most
  // recent `capacity` samples (at least one). The first sample is due one
  // period from the current ledger total. A non-empty `exposition_path`
  // is rewritten with the full exposition at every sample.
  void arm(u64 period, std::size_t capacity = kDefaultCapacity,
           std::string exposition_path = {});
  // Park the sampler (and stop the exposition rewrites); keep recorded
  // samples for export.
  void disarm();
  bool armed() const { return period_.load(std::memory_order_relaxed) != 0; }
  u64 period() const { return period_.load(std::memory_order_relaxed); }

  // Drop samples and disarm (test / session boundary).
  void reset();

  // Called (out of line) by CycleLedger::charge when `total` crossed the
  // due threshold; CAS-claims the sample slot and snapshots.
  void poll(u64 total);

  // Force a sample at the current ledger total (end-of-run flush so short
  // runs still export their final state).
  void sample_now();

  std::size_t size() const { return ring_.size(); }
  u64 dropped() const { return ring_.dropped(); }

  // Recorded samples, oldest first.
  std::vector<TimeSeriesSample> samples() const { return ring_.items(); }

 private:
  void take_sample(u64 total);

  std::atomic<u64> period_{0};
  Ring<TimeSeriesSample> ring_;
  // Serialises the exposition rewrites; several cores may sample at once.
  std::mutex exposition_mu_;
  std::string exposition_path_;
};

TimeSeries& timeseries();

}  // namespace lz::obs
