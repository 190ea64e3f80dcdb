// Shared plumbing for the bench binaries' command lines and reports.
//
// Every bench main, fuzz_table2, fuzz_a64 and lz_report included, parses
// its flags through one strict parser (FlagParser, flag_parser.h; no
// per-binary hand-rolled loops). ObsSession itself reads the observability
// flags, so all seven report-writing binaries accept them:
//
//   --json <path>           write a machine-readable lz.bench.report.v2
//                           document (headline results, per-CostKind cycle
//                           breakdown, counter snapshot, latency histograms
//                           and the cycle-sampling profile)
//   --trace <path>          arm the lz::obs event ring *and* the span
//                           tracer for the same region and dump both as
//                           Chrome trace-event JSON (instant events +
//                           nested duration spans)
//   --profile <path>        write the profiler's collapsed-stack file
//                           (flamegraph.pl / speedscope input)
//   --sample-period <N>     profiler sampling period in simulated cycles
//                           (default 4096; 0 disables sampling)
//   --ts-period <N>         time-series sampling period in simulated
//                           cycles (0 = off); adds the "timeseries"
//                           report section
//   --metrics-out <path>    register the labeled (per-tenant) series and
//                           write the Prometheus-style text exposition at
//                           finish(); with --ts-period every time-series
//                           sample also rewrites the file, so a running
//                           bench can be scraped live
//   --self-profile          arm host-side self-profiling (`host.self.*`
//                           TSC tick attribution per engine tier) and
//                           include it in the exposition — wall-clock, so
//                           never part of byte-identity gates
//   --help / -h             print this flag summary and exit 0
//
// Three more flags steer the workload, and a binary accepts one only when
// its main reads it (passes the matching BenchFlag to ObsSession):
//
//   --cores <N>             size of the SMP machine, 1-64 (binary default
//                           when not given)
//   --iters <K>             workload scale factor (default 1; 0 exits 2)
//   --backend <B>           isolation backend to evaluate: ttbr_pan
//                           (default — the live LightZone module; leaves
//                           every golden byte-identical), poe, cca,
//                           watchpoint, or lwc (cost-model backends)
//
// --cores sizes the live module's SMP machine, so it cannot be combined
// with a cost-model --backend (exit 2 rather than dropping --cores).
// The superblock trace tier is switched off for a whole run with the
// environment variable LZ_TRACE_TIER=0 (pure interpreter; simulated
// results are identical by contract, only host MIPS move).
//
// Anything else — an unknown flag, a workload flag the binary does not
// read, a positional argument — is an error: the binary prints the
// offender to stderr and exits 2, so a typo can never silently run the
// wrong experiment. So does a numeric value that is not entirely a
// non-negative decimal integer in range (`5x`, `-1`, `abc`). Both the
// --help text and the unknown-flag message come from one place here, so
// they cannot drift between binaries. A bench whose
// --json/--trace/--profile/--metrics-out artifact cannot be written exits 1.
//
// The benches are deterministic, so two runs of the same binary produce
// byte-identical simulation sections. Host-timed headline numbers (MIPS)
// are wall-clock by nature; such a bench runs kRepeats in-process repeats
// and record_stats() reports their mean plus `.min` / `.median` keys.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "flag_parser.h"
#include "lightzone/backend.h"
#include "obs/counters.h"
#include "obs/expose.h"
#include "obs/flight.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/selfprof.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/cost.h"

namespace lz::bench {

// Workload flags a bench main reads, or-ed together into the `accepted`
// mask it hands to ObsSession; the parser rejects the ones left out.
enum BenchFlag : unsigned {
  kCoresFlag = 1u << 0,    // --cores N
  kItersFlag = 1u << 1,    // --iters K
  kBackendFlag = 1u << 2,  // --backend B
};

// In-process repeats of a host-timed measurement (see record_stats()).
inline constexpr unsigned kRepeats = 3;

struct ObsOptions {
  std::string json_path;
  std::string trace_path;
  std::string profile_path;
  u64 sample_period = obs::Profiler::kDefaultPeriod;  // 0 = profiler off
  u64 ts_period = 0;   // --ts-period N: time-series sampling (0 = off)
  unsigned cores = 0;  // --cores N: size of the SMP machine (0 = not given)
  u64 iters = 1;       // --iters K: workload scale factor
  // --backend B: which IsolationBackend the bench evaluates.
  core::BackendKind backend = core::BackendKind::kTtbrPan;
  // --metrics-out F: register labeled series, write the exposition to F.
  std::string metrics_path;
  bool self_profile = false;  // --self-profile: host.self.* tick brackets
};

// The one flag summary every bench binary prints for --help, listing the
// workload flags in `accepted` only; keep in sync with the header comment
// above.
inline void print_bench_usage(const char* argv0, unsigned accepted,
                              std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [flags]\n"
      "  --json <path>          write lz.bench.report.v2 JSON\n"
      "  --trace <path>         Chrome/Perfetto trace: arch events + spans\n"
      "  --profile <path>       collapsed stacks (flamegraph.pl input)\n"
      "  --sample-period <N>    profiler period, simulated cycles "
      "(default %llu, 0 = off)\n"
      "  --ts-period <N>        time-series sampling period, simulated "
      "cycles (0 = off)\n"
      "  --metrics-out <path>   per-tenant series; write Prometheus-style\n"
      "                         exposition (rewritten at every --ts-period\n"
      "                         sample, so a running bench can be scraped)\n"
      "  --self-profile         host.self.* wall-clock tier attribution\n",
      argv0, static_cast<unsigned long long>(obs::Profiler::kDefaultPeriod));
  if (accepted & kCoresFlag) {
    std::fprintf(out,
                 "  --cores <N>            SMP machine size (default: "
                 "binary-specific)\n");
  }
  if (accepted & kItersFlag) {
    std::fprintf(out,
                 "  --iters <K>            workload scale factor (default "
                 "1)\n");
  }
  if (accepted & kBackendFlag) {
    std::fprintf(out,
                 "  --backend <B>          ttbr_pan (default) | poe | cca | "
                 "watchpoint | lwc\n");
    if (accepted & kCoresFlag) {
      std::fprintf(out,
                   "                         (--cores needs ttbr_pan)\n");
    }
  }
  std::fprintf(out,
               "  --help, -h             this text\n"
               "  LZ_TRACE_TIER=0        (environment) interpreter only "
               "(A/B: tier speedup)\n");
}

// The --backend value as a BackendKind; an unknown name dies through `p`.
inline core::BackendKind parse_backend(const FlagParser& p,
                                       const std::string& value) {
  const auto kind = core::backend_from_string(value);
  if (!kind) p.die("unknown backend", value);
  return *kind;
}

// Largest --cores any bench or fuzz main accepts.
inline constexpr u64 kMaxCores = 64;

// Parses argv against the shared flag set plus the workload flags in
// `accepted`. Anything else (and malformed values for known flags) is
// fatal: exit(2) with a message naming the offender.
inline ObsOptions parse_bench_flags(int argc, char** argv, unsigned accepted) {
  ObsOptions opts;
  std::string backend_str;
  FlagParser p(argc, argv, [&](std::FILE* out) {
    print_bench_usage(argv[0], accepted, out);
  });
  while (p.next()) {
    if (p.arg() == "--self-profile") {
      opts.self_profile = true;
    } else if (!(p.take("--json", &opts.json_path) ||
                 p.take("--metrics-out", &opts.metrics_path) ||
                 p.take("--trace", &opts.trace_path) ||
                 p.take("--profile", &opts.profile_path) ||
                 p.take_number("--sample-period", &opts.sample_period) ||
                 p.take_number("--ts-period", &opts.ts_period) ||
                 ((accepted & kCoresFlag) &&
                  p.take_number("--cores", &opts.cores, 1, kMaxCores)) ||
                 ((accepted & kItersFlag) &&
                  p.take_number("--iters", &opts.iters, 1)) ||
                 ((accepted & kBackendFlag) &&
                  p.take("--backend", &backend_str)))) {
      p.die("unknown flag", p.arg());
    }
  }
  if (!backend_str.empty()) opts.backend = parse_backend(p, backend_str);
  if (opts.cores > 0 && opts.backend != core::BackendKind::kTtbrPan) {
    p.die("--cores needs the ttbr_pan backend, got --backend", backend_str);
  }
  return opts;
}

// One per bench main. Construction parses the command line (`accepted`
// names the BenchFlags this main reads), resets all process-wide
// observability state (so the report covers exactly this run), arms the
// event ring when a trace was requested, and arms the sampling profiler
// when a report or a collapsed-stack file was requested; finish()
// assembles and writes the artifacts.
class ObsSession {
 public:
  static constexpr std::size_t kTraceCapacity = 1u << 16;

  ObsSession(std::string bench_name, int argc, char** argv,
             unsigned accepted = 0)
      : opts_(parse_bench_flags(argc, argv, accepted)),
        report_(std::move(bench_name)) {
    obs::reset_all();
    if (!opts_.trace_path.empty()) {
      obs::trace().arm(kTraceCapacity);
      obs::spans().arm(kTraceCapacity);
    }
    // Live scrape file: under --metrics-out every time-series sample also
    // rewrites the exposition snapshot, so `watch cat FILE` observes the run.
    if (opts_.ts_period > 0) {
      obs::timeseries().arm(opts_.ts_period,
                            obs::TimeSeries::kDefaultCapacity,
                            opts_.metrics_path);
    }
    if (!opts_.metrics_path.empty()) obs::registry().enable_labels();
    if (opts_.self_profile) obs::selfprof().enable();
    const bool want_profile =
        !opts_.profile_path.empty() || !opts_.json_path.empty();
    if (want_profile && opts_.sample_period > 0) {
      obs::profiler().arm(opts_.sample_period);
    }
    // Black boxes are most valuable in unattended runs; make sure a stray
    // abort (LZ_CHECK, oracle fail-stop) dumps the last events per core.
    obs::install_flight_abort_handler();
    instance_ = this;
  }
  ~ObsSession() {
    if (instance_ == this) instance_ = nullptr;
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  void add_result(std::string key, double value) {
    report_.add_result(std::move(key), value);
  }
  void add_result(std::string key, u64 value) {
    report_.add_result(std::move(key), value);
  }

  // Records a repeated host-timed measurement: mean under the bare key,
  // plus `.min` and `.median` keys so reports expose run-to-run variance.
  void add_stats(const std::string& key, std::vector<double> values) {
    if (values.empty()) return;
    double sum = 0;
    for (const double v : values) sum += v;
    report_.add_result(key, sum / static_cast<double>(values.size()));
    std::sort(values.begin(), values.end());
    report_.add_result(key + ".min", values.front());
    report_.add_result(key + ".median", values[values.size() / 2]);
  }

  // Writes the requested artifacts after the print_* phase and returns the
  // process exit status: 0, or 1 when any artifact could not be written
  // (each failure is named on stderr), so mains end with
  // `return obs.finish();`.
  int finish() {
    bool ok = true;
    if (opts_.ts_period > 0) {
      // Final snapshot catches the tail between the last period boundary
      // and the end of the run; set_timeseries() while armed records the
      // period itself. Disarming also ends the live exposition rewrites
      // before the final one below.
      obs::timeseries().sample_now();
      if (!opts_.json_path.empty()) report_.set_timeseries(obs::timeseries());
      obs::timeseries().disarm();
    }
    const bool spans_armed = obs::spans().armed();
    if (!opts_.trace_path.empty()) {
      obs::trace().disarm();
      obs::spans().disarm();
      if (obs::trace().write_chrome_json(opts_.trace_path,
                                         obs::spans().chrome_fragment())) {
        std::printf("obs: wrote %zu trace events + %zu spans to %s\n",
                    obs::trace().size(), obs::spans().size(),
                    opts_.trace_path.c_str());
      } else {
        std::fprintf(stderr, "obs: failed to write trace to %s\n",
                     opts_.trace_path.c_str());
        ok = false;
      }
    }
    if (!opts_.profile_path.empty()) {
      if (obs::profiler().write_collapsed(opts_.profile_path)) {
        std::printf("obs: wrote %llu profile samples to %s\n",
                    static_cast<unsigned long long>(obs::profiler().samples()),
                    opts_.profile_path.c_str());
      } else {
        std::fprintf(stderr, "obs: failed to write profile to %s\n",
                     opts_.profile_path.c_str());
        ok = false;
      }
    }
    if (!opts_.metrics_path.empty()) {
      if (obs::write_exposition(opts_.metrics_path)) {
        std::printf("obs: wrote metrics exposition to %s\n",
                    opts_.metrics_path.c_str());
      } else {
        std::fprintf(stderr, "obs: failed to write metrics exposition to %s\n",
                     opts_.metrics_path.c_str());
        ok = false;
      }
    }
    if (opts_.json_path.empty()) {
      obs::profiler().disarm();
      return ok ? 0 : 1;
    }
    const auto& ledger = obs::cycle_ledger();
    report_.set_cycles_total(ledger.total());
    for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
      report_.add_cycles(sim::to_string(static_cast<sim::CostKind>(k)),
                         ledger.of(k));
    }
    report_.add_counters(obs::registry().snapshot());
    report_.add_histograms(obs::registry().histogram_snapshot());
    // Capture the profile while the profiler is still armed so the section
    // records the effective sampling period.
    if (opts_.sample_period > 0) report_.set_profile(obs::profiler());
    // Optional sections: emitted only when their instrument ran, so reports
    // from flagless runs stay byte-identical with the checked-in golden.
    if (spans_armed) report_.set_spans(obs::spans());
    // Host-counter section ("host"): `sim.trace.*` and friends in every
    // report, not just bench/throughput's results. Emitted only when the
    // engine registered host counters (Report skips empty sections), and
    // values depend on host-side caching — lz_report's
    // --require-sim-identical strips this member before comparing.
    report_.add_host_counters(obs::registry().host_snapshot());
    obs::profiler().disarm();
    if (report_.write(opts_.json_path)) {
      std::printf("obs: wrote report to %s\n", opts_.json_path.c_str());
    } else {
      std::fprintf(stderr, "obs: failed to write report to %s\n",
                   opts_.json_path.c_str());
      ok = false;
    }
    return ok ? 0 : 1;
  }

  static ObsSession* instance() { return instance_; }

  unsigned cores() const { return opts_.cores; }
  u64 iters() const { return opts_.iters; }
  core::BackendKind backend() const { return opts_.backend; }

 private:
  ObsOptions opts_;
  obs::Report report_;
  inline static ObsSession* instance_ = nullptr;
};

// Headline-number hook for the table printers: records into the active
// session's report, if any (no-op when the binary runs without --json).
inline void record(std::string key, double value) {
  if (auto* s = ObsSession::instance()) s->add_result(std::move(key), value);
}
inline void record(std::string key, u64 value) {
  if (auto* s = ObsSession::instance()) s->add_result(std::move(key), value);
}

// Repeated-measurement hook: mean under `key`, plus `.min`/`.median`.
inline void record_stats(const std::string& key, std::vector<double> values) {
  if (auto* s = ObsSession::instance()) s->add_stats(key, std::move(values));
}

// Report-key slug of a printed row label: "Carmel Host" -> "carmel_host".
inline std::string slug_of(const char* label) {
  std::string s(label);
  for (char& c : s) c = c == ' ' ? '_' : static_cast<char>(std::tolower(c));
  return s;
}

}  // namespace lz::bench
