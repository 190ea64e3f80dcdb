// Encoded-A64 stream fuzzer (LightEMU-style driving).
//
// Generates seeded streams of *encoded* A64 instruction words, writes each
// stream into a fresh process's code page, enters the process into
// LightZone, and executes it on the simulated core with every in-build
// oracle armed — the break-before-make write-protocol monitor
// (check::BbmMonitor) observing each PTE store the module performs on the
// stream's behalf, and the TLB-vs-walk cross-check on every TLB hit.
//
// Streams are biased toward the surfaces the sanitizer (§6.3, Table 3) and
// the secure gate (§6.2) care about:
//   * sensitive system instructions — ERET, LDTR/STTR, MSR/MRS of
//     privileged registers, TLBI, DC/IC SYS space — in "dirty" streams the
//     static sanitizer must reject, and in unsanitized "wild" streams the
//     runtime traps must catch;
//   * gate-adjacent sequences — BR into gate entries, mid-gate offsets,
//     unregistered gate ids, and wrong link registers the phase-2 check
//     must land on BRK;
//   * syscalls that force break-before-make table transitions — munmap,
//     mprotect (tightening), and the Table-2 verbs via SVC.
//
// Determinism contract (check::replay_gate, replay.h): a stream's
// instruction words and its architectural outcome bytes depend only on
// (seed, stream index), never on the machine topology or on physical frame
// placement, so a failing stream is reproduced exactly by re-running its
// seed. Divergences reported by the armed oracles are fail-stop
// (flight-recorder dump + abort) unless a capturing handler is installed.
#pragma once

#include <vector>

#include "check/replay.h"
#include "support/types.h"

namespace lz::arch {
struct Platform;
}  // namespace lz::arch

namespace lz::check {

struct FuzzA64Config {
  u64 seed = 1;
  unsigned cores = 1;    // simulated cores
  unsigned streams = 0;  // instruction streams (processes); 0 = one per core
  int insns_per_stream = 48;  // generator picks; each emits 1..~15 words
  u64 max_steps = 400;        // per-stream execution budget (gate loops!)
  const arch::Platform* platform = nullptr;  // null = Cortex-A55
};

// Runs the campaign. streams[s] holds stream s's architectural outcome
// bytes: mode, san level, stop reason, step count (lo, hi), alive flag, and
// a final byte folding the kill reason (killed) or the exit code
// (exited/running). Everything there is PA-independent by construction.
FuzzOutcome run_a64_fuzz(const FuzzA64Config& cfg);

// The encoded words of stream s: with cfg's seed, the byte-identical
// reproducer of that stream.
std::vector<u32> a64_stream_words(const FuzzA64Config& cfg, unsigned s);

}  // namespace lz::check
