#include "obs/counters.h"

#include <algorithm>

#include "obs/flight.h"
#include "obs/profiler.h"
#include "obs/selfprof.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace lz::obs {

const char* to_string(LabelKey key) {
  switch (key) {
    case LabelKey::kTenant:
      return "tenant";
    case LabelKey::kDomain:
      return "domain";
    case LabelKey::kCore:
      return "core";
    case LabelKey::kBackend:
      return "backend";
    case LabelKey::kCount:
      break;
  }
  return "?";
}

LabelSet& LabelSet::set(LabelKey key, std::string_view value) {
  values_[static_cast<std::size_t>(key)] = sanitize_frame(value);
  return *this;
}

LabelSet& LabelSet::set(LabelKey key, u64 value) {
  values_[static_cast<std::size_t>(key)] = std::to_string(value);
  return *this;
}

bool LabelSet::empty() const {
  for (const auto& v : values_)
    if (!v.empty()) return false;
  return true;
}

std::string LabelSet::render() const {
  std::string out;
  for (std::size_t i = 0; i < kNumLabelKeys; ++i) {
    if (values_[i].empty()) continue;
    out += out.empty() ? '{' : ',';
    out += to_string(static_cast<LabelKey>(i));
    out += "=\"";
    out += values_[i];
    out += '"';
  }
  if (!out.empty()) out += '}';
  return out;
}

namespace {

const LabelSet kNoLabels;

bool is_histogram(SeriesKind kind) {
  return kind == SeriesKind::kHistogram ||
         kind == SeriesKind::kLabeledHistogram;
}

}  // namespace

Registry::Series& Registry::series_for(SeriesKind kind, std::string_view name,
                                       const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(SeriesKeyRef{kind, name, false, labels});
  if (it == series_.end()) {
    bool overflow = false;
    if (kind == SeriesKind::kLabeledCounter ||
        kind == SeriesKind::kLabeledHistogram) {
      // Cardinality bound: count this name's regular series, which sit
      // between its first label-set and its overflow series.
      const auto first =
          series_.lower_bound(SeriesKeyRef{kind, name, false, kNoLabels});
      const auto last =
          series_.lower_bound(SeriesKeyRef{kind, name, true, kNoLabels});
      overflow = static_cast<std::size_t>(std::distance(first, last)) >=
                 kMaxSeriesPerFamily;
    }
    it = series_
             .try_emplace(SeriesKey{kind, std::string(name), overflow,
                                    overflow ? kNoLabels : labels})
             .first;
    if (is_histogram(kind) && !it->second.histogram)
      it->second.histogram = std::make_unique<Histogram>();
  }
  if (it->first.overflow) ++it->second.folded;
  return it->second;
}

Counter& Registry::counter(std::string_view name, const LabelSet& labels) {
  const SeriesKind kind =
      labels.empty() ? SeriesKind::kCounter : SeriesKind::kLabeledCounter;
  return series_for(kind, name, labels).counter;
}

Histogram& Registry::histogram(std::string_view name, const LabelSet& labels) {
  const SeriesKind kind =
      labels.empty() ? SeriesKind::kHistogram : SeriesKind::kLabeledHistogram;
  return *series_for(kind, name, labels).histogram;
}

Counter& Registry::host_counter(std::string_view name) {
  return series_for(SeriesKind::kHostCounter, name, {}).counter;
}

const Registry::Series* Registry::find_series(SeriesKind kind,
                                              std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(SeriesKeyRef{kind, name, false, kNoLabels});
  return it == series_.end() ? nullptr : &it->second;
}

const Counter* Registry::find(std::string_view name) const {
  const Series* s = find_series(SeriesKind::kCounter, name);
  return s ? &s->counter : nullptr;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  const Series* s = find_series(SeriesKind::kHistogram, name);
  return s ? s->histogram.get() : nullptr;
}

// Visits (name, series) for every series of an unlabeled `kind`, in name
// order, under the registry mutex.
template <typename Fn>
void Registry::for_each_unlabeled(SeriesKind kind, Fn&& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = series_.lower_bound(SeriesKeyRef{kind, {}, false, kNoLabels});
       it != series_.end() && it->first.kind == kind; ++it)
    fn(it->first.name, it->second);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  for_each_unlabeled(SeriesKind::kCounter, [&](const std::string& name,
                                               const Series& s) {
    snap.emplace_back(name, s.counter.value());
  });
  return snap;
}

Snapshot Registry::host_snapshot() const {
  Snapshot snap;
  for_each_unlabeled(SeriesKind::kHostCounter, [&](const std::string& name,
                                                   const Series& s) {
    snap.emplace_back(name, s.counter.value());
  });
  return snap;
}

std::vector<HistogramStats> Registry::histogram_snapshot() const {
  std::vector<HistogramStats> out;
  for_each_unlabeled(SeriesKind::kHistogram, [&](const std::string& name,
                                                 const Series& s) {
    const Histogram& h = *s.histogram;
    if (h.count() == 0) return;  // unused instruments stay out of reports
    out.push_back({name, h.count(), h.min(), h.max(), h.mean(),
                   h.percentile(50.0), h.percentile(90.0),
                   h.percentile(99.0)});
  });
  return out;
}

std::vector<SeriesRef> Registry::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeriesRef> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_)
    out.push_back({&key, &s.counter, s.histogram.get(), s.folded});
  return out;
}

Snapshot Registry::delta(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  out.reserve(after.size());
  for (const auto& [name, value] : after) {
    const auto it = std::lower_bound(
        before.begin(), before.end(), name,
        [](const auto& entry, const std::string& n) { return entry.first < n; });
    const u64 prev =
        (it != before.end() && it->first == name) ? it->second : 0;
    out.emplace_back(name, value - prev);
  }
  return out;
}

void Registry::reset() {
  labels_enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, s] : series_) {
    s.counter.reset();
    if (s.histogram) s.histogram->reset();
    s.folded = 0;
  }
}

Registry& registry() {
  static Registry r;
  return r;
}

CycleLedger::Shard& CycleLedger::claim() {
  std::lock_guard<std::mutex> lock(claim_mu_);
  std::size_t i = 0;
  while (i < kMaxShards && shards_[i].live) ++i;
  LZ_CHECK(i < kMaxShards && "CycleLedger shard pool exhausted");
  shards_[i].live = true;
  if (i >= high_water_.load(std::memory_order_relaxed))
    high_water_.store(i + 1, std::memory_order_release);
  return shards_[i];
}

void CycleLedger::release(Shard& shard) {
  std::lock_guard<std::mutex> lock(claim_mu_);
  shard.live = false;
}

void CycleLedger::reset() {
  const std::size_t n = high_water_.load(std::memory_order_acquire);
  u64 total = 0;
  std::array<u64, kMaxKinds> by_kind{};
  for (std::size_t i = 0; i < n; ++i) {
    total += shards_[i].total.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < kMaxKinds; ++k)
      by_kind[k] += shards_[i].by_kind[k].load(std::memory_order_relaxed);
  }
  base_total_.store(u64{0} - total, std::memory_order_relaxed);
  for (std::size_t k = 0; k < kMaxKinds; ++k)
    base_by_kind_[k].store(u64{0} - by_kind[k], std::memory_order_relaxed);
}

CycleLedger& cycle_ledger() {
  static CycleLedger l;
  return l;
}

void reset_all() {
  registry().reset();
  cycle_ledger().reset();
  trace().clear();
  profiler().reset();
  spans().clear();
  timeseries().reset();
  flight().clear();
  clear_domain_labels();
  selfprof().reset();
}

}  // namespace lz::obs
