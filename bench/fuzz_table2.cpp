// Randomized Table-2 conformance fuzz driver.
//
//   fuzz_table2 [--seed S] [--cores N] [--streams M] [--ops K]
//               [--backend ttbr_pan|poe|cca|watchpoint|lwc]
//
// Runs M seeded streams of Table-2 calls (K ops each, processes pinned
// round-robin over N cores) through check::replay_gate: twice on N cores,
// which must be byte-identical, and once on 1 core, which must produce the
// same status streams and the same counters modulo the documented
// SMP-variant set.
//
// Each op is also checked against the ShadowTable2 reference model as it
// executes, and (in LZ_CHECK builds) every TLB hit is re-walked by the
// sim::Core oracle. Any divergence → nonzero exit. A malformed or zero
// value, or --cores outside 1-64, exits 2 before any run.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "check/fuzz.h"
#include "obs/flight.h"

int main(int argc, char** argv) {
  using lz::check::FuzzConfig;
  FuzzConfig cfg;
  cfg.seed = 1;
  cfg.cores = 4;
  cfg.ops_per_stream = 2600;
  std::string backend;
  lz::bench::FlagParser flags(argc, argv, [argv](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--seed S] [--cores N] [--streams M] [--ops K] "
                 "[--backend B]\n",
                 argv[0]);
  });
  while (flags.next()) {
    if (!(flags.take_number("--seed", &cfg.seed) ||
          flags.take_number("--cores", &cfg.cores, 1, lz::bench::kMaxCores) ||
          flags.take_number("--streams", &cfg.streams, 1) ||
          flags.take_number("--ops", &cfg.ops_per_stream, 1) ||
          flags.take("--backend", &backend))) {
      flags.die("unknown flag", flags.arg());
    }
  }
  if (!backend.empty()) cfg.backend = lz::bench::parse_backend(flags, backend);
  cfg.streams = lz::check::stream_count(cfg.streams, cfg.cores);

  // A crashed fuzz run (LZ_CHECK, oracle abort) should leave a state trail:
  // dump the flight recorder's per-core black box on abort.
  lz::obs::install_flight_abort_handler();

  std::printf(
      "fuzz_table2: backend=%s seed=%llu cores=%u streams=%u ops/stream=%d\n",
      lz::core::to_string(cfg.backend),
      static_cast<unsigned long long>(cfg.seed), cfg.cores, cfg.streams,
      cfg.ops_per_stream);

  const int failures = lz::check::replay_gate(cfg.cores, [&cfg](unsigned n) {
    FuzzConfig run = cfg;
    run.cores = n;
    return lz::check::run_table2_fuzz(run);
  });

  if (failures != 0) {
    std::printf("fuzz_table2: %d failure(s)\n", failures);
    // Divergence without a fail-stop abort (captured handler): still dump
    // the black box so the failing op sequence's tail is on record.
    lz::obs::flight_dump(stderr);
    return 1;
  }
  std::printf("fuzz_table2: OK (%llu ops x3 runs, zero divergence)\n",
              static_cast<unsigned long long>(cfg.streams) *
                  static_cast<unsigned long long>(cfg.ops_per_stream));
  return 0;
}
