// lzperf: the repository benchmark. Runs one named workload for a fixed
// host-time window and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   lzperf --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 (untraced run) reports the end-to-end metrics. --trace 1 spends
// half the window untraced and half with a span around every layer call,
// and reports the per-layer metrics, the obs-registry count ratios and
// bench.trace_overhead, the throughput the spans cost. The line before the
// result is the host fingerprint the numbers belong to.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace lzperf;

// Scenario builds timed for setup_s: at least kSetupBuilds, and more until
// kSetupWindowNs of building has passed. Builds take 0.05-2 ms, so the
// median of many is needed to damp host noise.
constexpr int kSetupBuilds = 15;
constexpr u64 kSetupWindowNs = 300'000'000;

int usage(const char* why) {
  std::fprintf(stderr,
               "lzperf: %s\nusage: lzperf --workload "
               "{https_ttbr|nvm_pan|guest_kernels|table2_churn} --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

bool parse_u64(const char* s, u64& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0' && s[0] != '-';
}

// SplitMix64 finaliser: neighbouring --seed values give unrelated inputs.
u64 mix(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(u64 attempted, u64 failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  u64 seed = 0, seconds = 0, trace = 2;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage("missing flag value");
    ++i;
    if (std::strcmp(flag, "--workload") == 0) {
      name = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      have_seed = parse_u64(value, seed);
      if (!have_seed) return usage("--seed takes a whole number");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      have_seconds = parse_u64(value, seconds) && seconds >= 1;
      if (!have_seconds) return usage("--seconds takes a whole number >= 1");
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!parse_u64(value, trace) || trace > 1) {
        return usage("--trace takes 0 or 1");
      }
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_seed || !have_seconds || trace > 1) {
    return usage("--seed, --seconds and --trace are required");
  }
  auto w = make_workload(name, mix(seed));
  if (!w) return usage("unknown workload");
  const bool traced = trace == 1;

  std::printf("lzperf-host: %s\n", fingerprint_json().c_str());
  std::fflush(stdout);

  // Room for the build spans of every scenario a set-up window can hold.
  Tracer setup_tracer(traced ? 1 << 16 : 0);
  std::vector<double> builds;
  const u64 setup0 = now_ns();
  while (builds.size() < kSetupBuilds ||
         (now_ns() - setup0 < kSetupWindowNs &&
          (!traced || setup_tracer.has_room(8)))) {
    const u64 t0 = now_ns();
    w->build(traced ? &setup_tracer : nullptr);
    builds.push_back(static_cast<double>(now_ns() - t0) / 1e9 / host_scale());
  }

  std::vector<Metric> metrics;
  u64 attempted = 0, failed = 0;
  if (!traced) {
    const Phase p = w->run(Clock::now() + std::chrono::seconds(seconds),
                           nullptr);
    attempted = p.ops;
    failed = p.failed + w->verify();
    metrics = {
        {"ops_per_s", ops_per_s(p), "op/s"},
        {"sim_mips", insns_per_s(p) / 1e6, "MIPS"},
        {"setup_s", median(builds), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"op_ok_ratio",
         attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted : 0,
         "ratio"},
    };
  } else {
    const auto half = std::chrono::milliseconds(seconds * 500);
    const Phase plain = w->run(Clock::now() + half, nullptr);
    std::vector<Tracer> tracers;
    for (unsigned i = 0; i < w->threads(); ++i) {
      tracers.emplace_back(w->span_capacity());
    }
    const Phase p = w->run(Clock::now() + half, &tracers);
    attempted = plain.ops + p.ops;
    failed = plain.failed + p.failed + w->verify();
    std::vector<const Tracer*> views;
    for (const Tracer& t : tracers) views.push_back(&t);
    layer_metrics(views, p, metrics);
    setup_layer_metrics(setup_tracer, metrics);
    count_metrics(p, metrics);
    const double plain_rate = ops_per_s(plain);
    metrics.push_back(
        {"bench.trace_overhead",
         plain_rate > 0 ? 1.0 - ops_per_s(p) / plain_rate : 0, "ratio"});
  }
  // An op that fails more than one check is counted by each; keep the
  // total within the ops attempted.
  failed = std::min(failed, attempted);
  print_result(attempted, failed, metrics);
  return 0;
}
