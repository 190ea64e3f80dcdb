// The fuzzers' shared stream outcome and their one replay gate.
//
// Both fuzz drivers (fuzz.h, fuzz_a64.h) reduce a run to a FuzzOutcome.
// replay_gate() runs a campaign three times and holds the runs to the
// determinism contract both drivers keep:
//
//   run A, run B (requested cores)  — byte-identical: same hash, same
//                                     streams, same counters.
//   run C (same streams, 1 core)    — same streams, and the same counters
//                                     modulo is_smp_variant_counter.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "check/check.h"
#include "lightzone/backend.h"
#include "obs/counters.h"
#include "support/types.h"

namespace lz::check {

inline constexpr u64 kFnvOffsetBasis = 1469598103934665603ULL;

// FNV-1a over `bytes`, continuing from `h`.
u64 fnv1a(std::string_view bytes, u64 h = kFnvOffsetBasis);

// FNV-1a over all streams in order, each followed by a 0xFF separator.
u64 hash_streams(const std::vector<std::vector<u8>>& streams);

// Seed of stream s's own Rng: a function of (seed, s) only, never of the
// core the stream lands on or of the core count.
u64 stream_seed(u64 seed, unsigned s);

// A campaign's stream count: `streams`, or one stream per core when 0.
unsigned stream_count(unsigned streams, unsigned cores);

// One fuzz run, as both fuzz drivers report it.
struct FuzzOutcome {
  core::BackendKind backend = core::BackendKind::kTtbrPan;
  // What a stream's bytes record ("status" per Table-2 call, "outcome" per
  // A64 stream); names the gate's verdict lines.
  const char* stream_kind = "outcome";
  std::string tally;  // the run's totals, e.g. "10400 ops (95 skipped)"
  std::vector<std::vector<u8>> streams;  // [stream] recorded bytes
  u64 hash = 0;                          // hash_streams(streams)
  std::vector<Divergence> divergences;   // kind "shadow.status" (Table 2)
  obs::Snapshot counters;  // Env-scoped counter delta of the whole run
};

// Counter diff between two fuzz runs. Counters of different backends are
// not comparable (mechanisms bump different counters by design), so that
// case returns one "backend mismatch" line instead of pages of spurious
// divergence; same-backend runs forward to check::diff_counters.
std::vector<std::string> diff_fuzz_counters(const FuzzOutcome& a,
                                            const FuzzOutcome& b,
                                            const IgnoreFn& ignore = nullptr);

// The replay gate. `campaign(n)` runs the same streams on n cores. Runs A
// and B on `cores` and C on one core, prints A's `run A:` line and the
// `ok:`/`FAIL:` verdicts, and returns the failure count. A stream mismatch
// prints the first mismatching stream of both runs, then calls
// `dump_stream` with its index.
int replay_gate(unsigned cores,
                const std::function<FuzzOutcome(unsigned cores)>& campaign,
                const std::function<void(std::size_t stream)>& dump_stream =
                    nullptr);

}  // namespace lz::check
