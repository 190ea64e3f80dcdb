// Randomized Table-2 fuzz driver.
//
// Generates seeded streams of Table-2 calls (lz_alloc / lz_free / lz_prot /
// lz_map_gate_pgt / lz_set_gate_entry / touch / gate switch), runs every
// call against the live module AND the independent ShadowTable2 model, and
// records each call's Status into a per-stream byte stream.
//
// Determinism contract, which check::replay_gate (replay.h) enforces: a
// stream's op sequence depends only on (seed, stream index), never on the
// machine topology. Stream s always fuzzes its own process with its own Rng
// (check::stream_seed), scheduled on core s % cores.
//
// Gate switches whose validation would pass but whose mapped table has been
// freed are recorded as kSkippedOp instead of executed: architecturally the
// switch lands in a zeroed TTBRTab slot and kills the process (see
// ShadowTable2::gate_runnable), which would end the stream early.
#pragma once

#include "check/replay.h"
#include "lightzone/backend.h"
#include "support/types.h"

namespace lz::arch {
struct Platform;
}  // namespace lz::arch

namespace lz::check {

// Status-stream byte recorded for a generated-but-not-executed op.
inline constexpr u8 kSkippedOp = 0xFE;

struct FuzzConfig {
  u64 seed = 1;
  unsigned cores = 1;    // simulated cores
  unsigned streams = 0;  // op streams (processes); 0 = one per core
  int ops_per_stream = 1000;
  const arch::Platform* platform = nullptr;  // null = Cortex-A55
  // Which IsolationBackend the streams exercise. kTtbrPan fuzzes the live
  // module (plus the in-build TLB oracle); the others fuzz their cost-model
  // backend through the identical op generator, with the shadow carrying
  // the matching backend tag.
  core::BackendKind backend = core::BackendKind::kTtbrPan;
};

// Runs the campaign. streams[s][op] is the Errc byte of stream s's op
// (kSkippedOp if not executed); stream_kind is "status".
FuzzOutcome run_table2_fuzz(const FuzzConfig& cfg);

}  // namespace lz::check
