// lz::obs — unified observability for the LightZone model.
//
// This header provides the one labeled registry: every counter and latency
// histogram in the process is a series `name{labels}` in obs::Registry,
// with snapshot/delta/reset semantics, plus the global CycleLedger that
// mirrors every CycleAccount charge so reports (and the event trace's
// clock) can see simulated time without a reference to any particular
// Machine.
//
// Naming convention: `subsystem.object.event`, e.g. `mem.tlb.l1_hit`,
// `sim.core.insn_retired`, `hv.host.hcr_retained`, `lz.module.gate_switch`.
// Registration returns a stable Counter& / Histogram& so hot paths record
// through a cached handle — no string lookup, no allocation, one add.
//
// Series come in three views:
//   * unlabeled (the empty LabelSet): the `counters` and `histograms`
//     sections of every report — snapshot(), histogram_snapshot();
//   * labeled (`name{tenant=,domain=,core=,backend=}`): the per-tenant
//     series behind `--metrics-out`. They register only while
//     labels_enabled() (every wiring site checks that one relaxed load
//     first), so flagless runs execute the exact same instruction and
//     allocation stream as if they did not exist. Each name holds at most
//     kMaxSeriesPerFamily label-sets; later ones fold into one overflow
//     series, rendered with `overflow="true"`;
//   * host (`sim.trace.*`): counters whose values depend on host-side
//     caching and may differ between two byte-identical simulations —
//     host_snapshot(), the report's `"host"` section.
//
// Everything here is process-global and thread-safe: the SMP machine runs
// one std::thread per simulated core, so increments are relaxed atomic adds
// (addition commutes — totals stay deterministic regardless of interleaving)
// and registration/snapshot take the registry mutex. Determinism is part of
// the contract (snapshots are name-sorted, values depend only on the
// executed work).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "support/types.h"

namespace lz::obs {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

// One (name, value) pair per registered counter, sorted by name.
using Snapshot = std::vector<std::pair<std::string, u64>>;

// --- Labels ------------------------------------------------------------------

// The fixed, ordered label vocabulary. Exposition renders present labels in
// this order, so label order can never depend on insertion order.
enum class LabelKey : u8 { kTenant, kDomain, kCore, kBackend, kCount };
constexpr std::size_t kNumLabelKeys = static_cast<std::size_t>(LabelKey::kCount);
const char* to_string(LabelKey key);

// A small fixed vector of label values ("" = label absent). Values are
// sanitized on entry with sanitize_frame (span.h) — the same defence the
// collapsed-stack exporter uses — so a tenant named `evil";x="1` or one
// containing `;`/whitespace can never corrupt the exposition format.
class LabelSet {
 public:
  LabelSet() = default;

  LabelSet& set(LabelKey key, std::string_view value);
  LabelSet& set(LabelKey key, u64 value);

  const std::string& get(LabelKey key) const {
    return values_[static_cast<std::size_t>(key)];
  }
  bool empty() const;

  // Exposition fragment: `{tenant="a",domain="3"}` in LabelKey order, ""
  // when no label is set. Deterministic for a given set of values.
  std::string render() const;

  bool operator<(const LabelSet& o) const { return values_ < o.values_; }
  bool operator==(const LabelSet& o) const { return values_ == o.values_; }

 private:
  std::array<std::string, kNumLabelKeys> values_;
};

// Per-name labeled-series bound. 512 comfortably holds the fleet shapes we
// model (64 workers x a handful of domains) while capping a hostile tenant
// space.
constexpr std::size_t kMaxSeriesPerFamily = 512;

// --- The registry ------------------------------------------------------------

// Which view a series belongs to. Declaration order is the exposition's
// section order, so one pass over the registry renders it.
enum class SeriesKind : u8 {
  kCounter,
  kLabeledCounter,
  kHistogram,
  kLabeledHistogram,
  kHostCounter,
};

// Borrowed form of a SeriesKey, so registry lookups allocate nothing.
struct SeriesKeyRef {
  SeriesKind kind;
  std::string_view name;
  bool overflow;
  const LabelSet& labels;
};

struct SeriesKey {
  SeriesKind kind = SeriesKind::kCounter;
  std::string name;
  // The per-name overflow series (empty labels) sorts after the name's
  // regular series.
  bool overflow = false;
  LabelSet labels;

  operator SeriesKeyRef() const { return {kind, name, overflow, labels}; }
};

// Orders keys and borrowed keys alike: kind, name, overflow, labels. Inline
// with one three-way name compare per node: registration sits on the setup
// path of every Env.
struct SeriesKeyLess {
  using is_transparent = void;
  bool operator()(SeriesKeyRef a, SeriesKeyRef b) const {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (const int c = a.name.compare(b.name); c != 0) return c < 0;
    if (a.overflow != b.overflow) return b.overflow;
    return a.labels < b.labels;
  }
};

// One registered series, as the exposition and tests see it. Pointers stay
// valid for the process lifetime (registrations are never erased).
struct SeriesRef {
  const SeriesKey* key;
  const Counter* counter;      // counter kinds
  const Histogram* histogram;  // histogram kinds
  // Overflow series only: label-sets folded into it since the last reset;
  // an overflow series with nothing folded is not rendered.
  u64 folded;
};

class Registry {
 public:
  // Register `name` (with `labels`) on first use and return a stable
  // handle; later calls with the same name and labels return the same
  // instrument. Empty labels register the unlabeled series. Past
  // kMaxSeriesPerFamily label-sets for one name, the shared overflow
  // series is returned instead.
  Counter& counter(std::string_view name, const LabelSet& labels = {});
  Histogram& histogram(std::string_view name, const LabelSet& labels = {});
  // A host-side counter (see the header comment).
  Counter& host_counter(std::string_view name);

  // The unlabeled series, or nullptr; never registers.
  const Counter* find(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // The `--metrics-out` gate: labeled series register only while it is
  // set. One relaxed load, checked by every wiring site.
  bool labels_enabled() const {
    return labels_enabled_.load(std::memory_order_relaxed);
  }
  void enable_labels() {
    labels_enabled_.store(true, std::memory_order_relaxed);
  }

  // Name-sorted copy of the unlabeled counters.
  Snapshot snapshot() const;
  // Name-sorted copy of the host-side counters only.
  Snapshot host_snapshot() const;
  // Name-sorted stats of the unlabeled histograms that recorded anything,
  // so unused instruments never appear in reports.
  std::vector<HistogramStats> histogram_snapshot() const;
  // Every series in exposition order: SeriesKind, then name, then label-set
  // (overflow last).
  std::vector<SeriesRef> series() const;

  // Per-name `after - before`; names absent from `before` count from zero.
  // Entries that did not move are kept (delta 0) so schemas stay stable.
  static Snapshot delta(const Snapshot& before, const Snapshot& after);

  // Zero every series and clear the labels flag; registrations (and
  // handles) stay valid.
  void reset();

 private:
  struct Series {
    Counter counter;
    std::unique_ptr<Histogram> histogram;  // histogram kinds only
    u64 folded = 0;                        // guarded by mu_
  };

  Series& series_for(SeriesKind kind, std::string_view name,
                     const LabelSet& labels);
  const Series* find_series(SeriesKind kind, std::string_view name) const;
  template <typename Fn>
  void for_each_unlabeled(SeriesKind kind, Fn&& fn) const;

  mutable std::mutex mu_;
  std::map<SeriesKey, Series, SeriesKeyLess> series_;
  std::atomic<bool> labels_enabled_{false};
};

// The process-wide registry all subsystems wire into.
Registry& registry();

namespace detail {
// Next ledger total at which a time-series sample is due (timeseries.h).
// Parked at ~0 while the sampler is disarmed so the hook in
// CycleLedger::charge stays one relaxed load + one never-taken compare.
inline std::atomic<u64> g_ts_next_due{~u64{0}};
}  // namespace detail

// Out-of-line sampling slow path (timeseries.cpp); called only when a
// charge crosses the due threshold.
void timeseries_poll_slow(u64 total);

// Mirror of every CycleAccount charge in the process, indexed by the raw
// CostKind value (obs sits below sim, so the enum itself lives there).
// Doubles as the deterministic clock for the event trace: `total()` is the
// total simulated work performed so far across all machines.
class CycleLedger {
 public:
  static constexpr std::size_t kMaxKinds = 32;

  void charge(std::size_t kind, u64 cycles) {
    const u64 total =
        total_.fetch_add(cycles, std::memory_order_relaxed) + cycles;
    by_kind_[kind].fetch_add(cycles, std::memory_order_relaxed);
    if (total >= detail::g_ts_next_due.load(std::memory_order_relaxed))
      timeseries_poll_slow(total);
  }
  u64 total() const { return total_.load(std::memory_order_relaxed); }
  u64 of(std::size_t kind) const {
    return by_kind_[kind].load(std::memory_order_relaxed);
  }
  void reset() {
    total_.store(0, std::memory_order_relaxed);
    for (auto& k : by_kind_) k.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<u64> total_{0};
  std::array<std::atomic<u64>, kMaxKinds> by_kind_{};
};

CycleLedger& cycle_ledger();

// Convenience for tests and bench runs: zero the registry (clearing its
// labels flag), the ledger, the event trace, the profiler, the span
// tracer, the time-series sampler, the flight recorder, the tenant labels
// and the self-profiler in one call.
void reset_all();

}  // namespace lz::obs
