#include "obs/histogram.h"

namespace lz::obs {

u64 Histogram::min() const {
  const u64 v = min_.load(std::memory_order_relaxed);
  return v == ~u64{0} ? 0 : v;
}

double Histogram::mean() const {
  const u64 n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

u64 Histogram::bucket_upper(std::size_t index) {
  if (index < kSubBuckets) return static_cast<u64>(index);
  // index = shift * 16 + (v >> shift) with (v >> shift) in [16, 32), so
  // index / 16 recovers shift + 1.
  const unsigned shift = static_cast<unsigned>(index / kSubBuckets) - 1;
  const u64 sub = static_cast<u64>(index % kSubBuckets) + kSubBuckets;
  // The bucket covers [sub << shift, ((sub + 1) << shift) - 1].
  return ((sub + 1) << shift) - 1;
}

u64 Histogram::percentile(double p) const {
  const u64 n = count();
  if (n == 0) return 0;
  // Rank of the percentile sample, 1-based, rounded up (nearest-rank).
  u64 rank = static_cast<u64>(p / 100.0 * static_cast<double>(n) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  u64 seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      const u64 upper = bucket_upper(i);
      const u64 mx = max();
      return upper < mx ? upper : mx;  // never report beyond the seen max
    }
  }
  return max();
}

void Histogram::merge_from(const Histogram& other) {
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    const u64 c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  if (other.count() != 0) {
    atomic_min(min_, other.min());
    atomic_max(max_, other.max());
  }
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~u64{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace lz::obs
