// Encoded-A64 stream fuzz driver.
//
//   fuzz_a64 [--seed S] [--cores N] [--streams M] [--insns K]
//            [--max-steps T]
//
// Runs M seeded streams of encoded A64 instructions (K generator picks
// each, processes pinned round-robin over N cores) through the full
// LightZone entry/sanitizer/gate/fault path with every in-build oracle
// armed — the break-before-make write-protocol monitor on all PTE stores
// and the TLB-vs-walk cross-check on every TLB hit — through
// check::replay_gate: twice on N cores, which must be byte-identical, and
// once on 1 core, which must produce the same outcome streams and the same
// counters modulo the documented SMP-variant set.
//
// Any oracle divergence aborts fail-stop with a flight-recorder dump; any
// replay mismatch prints the offending stream's words (the byte-identical
// reproducer) and exits nonzero. A malformed or zero value, or --cores
// outside 1-64, exits 2 before any run.
#include <cstdio>

#include "bench_util.h"
#include "check/fuzz_a64.h"
#include "obs/flight.h"

int main(int argc, char** argv) {
  using lz::check::FuzzA64Config;
  FuzzA64Config cfg;
  cfg.seed = 1;
  cfg.cores = 4;
  lz::bench::FlagParser flags(argc, argv, [argv](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--seed S] [--cores N] [--streams M] [--insns K] "
                 "[--max-steps T]\n",
                 argv[0]);
  });
  while (flags.next()) {
    if (!(flags.take_number("--seed", &cfg.seed) ||
          flags.take_number("--cores", &cfg.cores, 1, lz::bench::kMaxCores) ||
          flags.take_number("--streams", &cfg.streams, 1) ||
          flags.take_number("--insns", &cfg.insns_per_stream, 1) ||
          flags.take_number("--max-steps", &cfg.max_steps, 1))) {
      flags.die("unknown flag", flags.arg());
    }
  }
  cfg.streams = lz::check::stream_count(cfg.streams, cfg.cores);

  // An oracle abort (BBM violation, stale TLB entry) should leave a state
  // trail: dump the flight recorder's per-core black box on abort.
  lz::obs::install_flight_abort_handler();

  std::printf("fuzz_a64: seed=%llu cores=%u streams=%u insns/stream=%d "
              "max-steps=%llu\n",
              static_cast<unsigned long long>(cfg.seed), cfg.cores,
              cfg.streams, cfg.insns_per_stream,
              static_cast<unsigned long long>(cfg.max_steps));

  const int failures = lz::check::replay_gate(
      cfg.cores,
      [&cfg](unsigned n) {
        FuzzA64Config run = cfg;
        run.cores = n;
        return lz::check::run_a64_fuzz(run);
      },
      // The mismatching stream's words: with the seed, the byte-identical
      // reproducer.
      [&cfg](std::size_t s) {
        const auto words =
            lz::check::a64_stream_words(cfg, static_cast<unsigned>(s));
        std::printf("    words:");
        for (std::size_t i = 0; i < words.size(); ++i) {
          std::printf("%s%08x", i % 8 == 0 ? "\n      " : " ", words[i]);
        }
        std::printf("\n");
      });

  if (failures != 0) {
    std::printf("fuzz_a64: %d failure(s)\n", failures);
    lz::obs::flight_dump(stderr);
    return 1;
  }
  std::printf("fuzz_a64: OK (%u streams x3 runs, zero divergence)\n",
              cfg.streams);
  return 0;
}
