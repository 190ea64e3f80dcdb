// lzperf harness: host clock, in-memory span tracer, counter deltas and the
// result record every workload fills in.
//
// Spans are recorded only from the benchmark's own files, around calls into
// the public functions of the src/ layers. A span keeps its name, start,
// end, the index of the span that caused it, and the id of the op it belongs
// to; all spans stay in memory until the run ends and are reduced there.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "support/types.h"

namespace lzperf {

using lz::Cycles;
using lz::u16;
using lz::u32;
using lz::u64;
using lz::u8;
using Clock = std::chrono::steady_clock;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count());
}

// Layer boundaries the benchmark times. Names follow the src/ modules.
enum class Layer : u8 {
  kOp,  // root span of one op
  kGateSwitch,
  kPanToggle,
  kMemRead,
  kAes,
  kSearch,
  kCharge,
  kRunStraightLine,
  kRunPointerChase,
  kRunDomainSwitch,
  kAlloc,
  kProt,
  kGateMap,
  kFaultIn,
  kProbe,
  kFree,
  // Scenario build (reported in seconds per build, not as a share).
  kDriverBuild,
  kSetupDomains,
  kCopyToUser,
  kCount,
};

const char* layer_name(Layer l);
constexpr bool is_setup_layer(Layer l) { return l >= Layer::kDriverBuild; }

struct Span {
  u64 start_ns = 0;
  u64 end_ns = 0;
  u32 parent = 0;  // kNoSpan for a root
  u32 op = 0;      // id shared by every span of one op
  Layer layer = Layer::kOp;
};

inline constexpr u32 kNoSpan = ~u32{0};

// One thread's spans. Capacity is fixed up front so recording never
// reallocates inside a timed region; a phase stops when it cannot fit the
// next batch of ops.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) { spans_.reserve(capacity); }

  bool has_room(std::size_t n) const {
    return spans_.capacity() - spans_.size() >= n;
  }
  u32 open(Layer l) {
    const u32 idx = static_cast<u32>(spans_.size());
    if (l == Layer::kOp) ++op_;
    spans_.push_back(Span{now_ns(), 0, cur_, op_, l});
    cur_ = idx;
    return idx;
  }
  void close(u32 idx) {
    spans_[idx].end_ns = now_ns();
    cur_ = spans_[idx].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  u32 cur_ = kNoSpan;
  u32 op_ = 0;
};

// RAII span; a null tracer makes it free apart from one branch.
class Scope {
 public:
  Scope(Tracer* t, Layer l) : t_(t), idx_(t != nullptr ? t->open(l) : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  u32 idx_;
};

// Name -> value view of the obs registry (simulated and host-side
// counters together), and the per-name difference of two views.
using Counts = std::map<std::string, u64>;
Counts read_counts();
Counts diff(const Counts& before, const Counts& after);
inline u64 get(const Counts& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// What one timed phase did.
struct Phase {
  double seconds = 0;  // host wall time of the phase
  u64 ops = 0;
  u64 failed = 0;
  unsigned threads = 1;  // host threads that ran ops concurrently
  // Traced phases only: obs registry and Core::decode_count() deltas over
  // the op loops, scenario builds excluded.
  Counts counts;
  u64 decodes = 0;
  Cycles sim_cycles = 0;  // simulated cycles the phase's ops consumed
  std::map<Layer, u64> steps;  // guest instructions retired per run layer
  // Per batch of ops on one thread: ops and guest instructions per host
  // second at the reference host speed (see host_scale). Rates are
  // reported as medians over batches.
  std::vector<double> op_rates, insn_rates;

  void add_batch(u64 batch_ops, u64 batch_insns, u64 batch_ns);
};

// The host's momentary speed relative to a reference host: the reference
// rate of a fixed probe loop divided by the rate it runs at now, on the
// calling thread. The probe is an L1-resident integer loop with
// data-dependent branches and runs none of the program's code, so a change
// to the program cannot move it; the shared host's frequency and
// co-tenant swings move it and the program alike. Multiplying a rate by it
// (or dividing a time by it) cancels those swings. Takes about 1 ms.
double host_scale();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double median(std::vector<double> v);
// Whole-machine rates of a phase: threads x the median per-batch rate.
inline double ops_per_s(const Phase& p) {
  return p.threads * median(p.op_rates);
}
inline double insns_per_s(const Phase& p) {
  return p.threads * median(p.insn_rates);
}
// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

// Per-layer metrics from a traced phase: per span name `.share` (of the
// phase's thread time), `.p50_ns`, `.p99_ns`, `.samples`, `.calls_per_op`,
// `.mips` for the guest-run layers, and `bench.self.share`, the phase time
// no layer span covers.
void layer_metrics(const std::vector<const Tracer*>& tracers,
                   const Phase& phase, std::vector<Metric>& out);

// Median seconds per scenario build of each build layer (`<name>_s`).
void setup_layer_metrics(const Tracer& tracer, std::vector<Metric>& out);

// Ratios read from the phase's counter delta, each next to its base.
void count_metrics(const Phase& phase, std::vector<Metric>& out);

// nproc, CPU model, compiler, build type, LZ_CHECK and trace-tier default.
std::string fingerprint_json();

}  // namespace lzperf
