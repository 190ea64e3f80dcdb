// Tests for the pluggable IsolationBackend API: the TtbrPanBackend
// refactor gate (pre-refactor Table-5 numbers reproduced exactly), Status
// parity of the Table-2 verbs across every backend, the mechanism-specific
// cost structure of the POE and CCA models, per-backend fuzzing, and the
// C-shim errno mapping.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/backends.h"
#include "check/fuzz.h"
#include "lightzone/api.h"
#include "workloads/microbench.h"

namespace lz {
namespace {

using baseline::make_backend;
using baseline::make_backend_proc;
using core::BackendKind;
using core::Env;
using workload::switch_avg_cycles;
using workload::Placement;

constexpr BackendKind kModelKinds[] = {BackendKind::kPoe, BackendKind::kCca,
                                       BackendKind::kWatchpoint,
                                       BackendKind::kLwc};
constexpr BackendKind kAllKinds[] = {BackendKind::kTtbrPan, BackendKind::kPoe,
                                     BackendKind::kCca,
                                     BackendKind::kWatchpoint,
                                     BackendKind::kLwc};

TEST(BackendNameTest, RoundTripsThroughStrings) {
  for (const BackendKind kind : kAllKinds) {
    const auto parsed = core::backend_from_string(core::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << core::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(core::backend_from_string("mpk").has_value());
  EXPECT_FALSE(core::backend_from_string("").has_value());
}

// The refactor gate: routing every Table-2 verb through the IsolationBackend
// interface must not move a single cycle. These are the pre-refactor
// Table-5 row values at kIters=6000 (the bench's configuration), pinned
// exactly — EXPECT_DOUBLE_EQ, not a tolerance.
TEST(TtbrPanBackendTest, ReproducesPreRefactorTable5Exactly) {
  constexpr int kIters = 6000;
  const struct {
    const arch::Platform& plat;
    double expect[6];  // domains 1, 2, 3, 32, 64, 128
  } kRows[] = {
      {arch::Platform::cortex_a55(),
       {12, 67, 67, 69.840666666666664, 71.135333333333335,
        72.280000000000001}},
      {arch::Platform::carmel(),
       {23, 464, 464, 468.26100000000002, 470.20299999999997,
        471.92000000000002}},
  };
  const int kDomains[] = {1, 2, 3, 32, 64, 128};
  for (const auto& row : kRows) {
    for (int i = 0; i < 6; ++i) {
      const auto r = switch_avg_cycles(
          BackendKind::kTtbrPan, row.plat, Placement::kHost, kDomains[i],
          kIters);
      EXPECT_DOUBLE_EQ(r.avg_cycles, row.expect[i])
          << "freq=" << row.plat.freq_ghz << " domains=" << kDomains[i];
      EXPECT_EQ(r.stats.key_recycles, 0u);
      EXPECT_EQ(r.stats.gpt_walks, 0u);
    }
  }
}

// kNoGate / kBadRange / kNoPgt / kBadGate parity: every backend must speak
// the exact same Status vocabulary for the same invalid inputs.
TEST(BackendParityTest, ErrorStatusesMatchAcrossBackends) {
  for (const BackendKind kind : kAllKinds) {
    Env env;
    core::LzProc lz = make_backend_proc(kind, env);
    SCOPED_TRACE(core::to_string(kind));
    // The live module's switch path asserts an active world; the model
    // backends' enter_world is a no-op.
    lz.enter_world();
    // Switch through a gate nobody configured: kNoGate.
    EXPECT_EQ(lz.lz_switch_to_ttbr_gate(3).status().errc(), Errc::kNoGate);
    // Gate id beyond the table: kBadGate.
    EXPECT_EQ(lz.lz_switch_to_ttbr_gate(1 << 20).status().errc(),
              Errc::kBadGate);
    EXPECT_EQ(lz.lz_map_gate_pgt(0, 1 << 20).errc(), Errc::kBadGate);
    // Unaligned / empty prot ranges: kBadRange.
    EXPECT_EQ(lz.lz_prot(Env::kHeapVa + 8, kPageSize, 0, core::kLzRead)
                  .errc(),
              Errc::kBadRange);
    EXPECT_EQ(lz.lz_prot(Env::kHeapVa, 0, 0, core::kLzRead).errc(),
              Errc::kBadRange);
    // Dead / never-allocated table: kNoPgt.
    EXPECT_EQ(lz.lz_free(70000).errc(), Errc::kNoPgt);
    EXPECT_EQ(lz.lz_prot(Env::kHeapVa, kPageSize, 70000, core::kLzRead)
                  .errc(),
              Errc::kNoPgt);
    // Freeing the default table is also refused everywhere.
    EXPECT_EQ(lz.lz_free(0).errc(), Errc::kNoPgt);
    lz.exit_world();
  }
}

TEST(BackendParityTest, AllocIdsMatchAcrossBackends) {
  for (const BackendKind kind : kAllKinds) {
    Env env;
    core::LzProc lz = make_backend_proc(kind, env);
    SCOPED_TRACE(core::to_string(kind));
    // pgt 0 is the default domain made at enter; allocations count up.
    EXPECT_EQ(lz.lz_alloc().value(), 1);
    EXPECT_EQ(lz.lz_alloc().value(), 2);
    EXPECT_TRUE(lz.lz_free(1).is_ok());
    // First-free-slot policy: the freed id is reused.
    EXPECT_EQ(lz.lz_alloc().value(), 1);
  }
}

TEST(WatchpointBackendTest, CapsAtSixteenDomains) {
  Env env;
  auto be = make_backend(BackendKind::kWatchpoint, env);
  // Slots 1..15 on top of the default domain, then the pairs run out.
  for (int i = 1; i < 16; ++i) EXPECT_EQ(be->alloc().value(), i);
  EXPECT_EQ(be->alloc().status().errc(), Errc::kResourceExhausted);
}

// POE: switching among <= 15 allocated domains never recycles a key and
// never invalidates a TLB entry; the 16th assignable domain forces the
// round-robin shootdown path.
TEST(PoeBackendTest, RecyclesKeysOnlyBeyondSixteenDomains) {
  {
    const auto r = switch_avg_cycles(
        BackendKind::kPoe, arch::Platform::cortex_a55(), Placement::kHost,
        /*domains=*/15, /*iters=*/2000);
    EXPECT_EQ(r.stats.key_recycles, 0u);
    EXPECT_EQ(r.stats.shootdown_pages, 0u);
  }
  {
    const auto r = switch_avg_cycles(
        BackendKind::kPoe, arch::Platform::cortex_a55(), Placement::kHost,
        /*domains=*/32, /*iters=*/2000);
    EXPECT_GT(r.stats.key_recycles, 0u);
    EXPECT_GE(r.stats.shootdown_pages, r.stats.key_recycles);
  }
}

TEST(PoeBackendTest, SwitchIsCheaperThanKernelRoundtrip) {
  // The whole point of POE: a switch is MSR POR_EL0 + ISB, no syscall and
  // no TLBI, so it must land far below the TTBR gate path.
  const auto poe = switch_avg_cycles(
      BackendKind::kPoe, arch::Platform::cortex_a55(), Placement::kHost,
      /*domains=*/8, /*iters=*/2000);
  const auto ttbr = switch_avg_cycles(
      BackendKind::kTtbrPan, arch::Platform::cortex_a55(), Placement::kHost,
      /*domains=*/8, /*iters=*/2000);
  EXPECT_LT(poe.avg_cycles, ttbr.avg_cycles);
}

TEST(CcaBackendTest, ChargesGptWalkOncePerDelegationEpoch) {
  Env env;
  auto be = make_backend(BackendKind::kCca, env);
  const int pgt = be->alloc().value();
  ASSERT_TRUE(
      be->prot(Env::kHeapVa, 2 * kPageSize, pgt, core::kLzRead).is_ok());
  EXPECT_EQ(be->stats().delegations, 2u);  // one per granule
  ASSERT_TRUE(be->map_gate_pgt(pgt, 1).is_ok());
  ASSERT_TRUE(be->set_gate_entry(1, Env::kCodeVa + 0x40).is_ok());
  ASSERT_TRUE(be->switch_to(1).is_ok());
  // First access after delegation walks the GPT; the second is cached.
  const Cycles first = be->access(Env::kHeapVa);
  const Cycles warm = be->access(Env::kHeapVa);
  EXPECT_GT(first, warm);
  EXPECT_EQ(be->stats().gpt_walks, 1u);
  // Freeing undelegates every granule the domain owned.
  ASSERT_TRUE(be->free_domain(pgt).is_ok());
  EXPECT_EQ(be->stats().undelegations, 2u);
}

// Per-backend fuzz smoke: the shared op generator runs against every
// cost-model backend with the matching shadow tag and must diverge nowhere,
// and the replay gate must find every run byte-identical.
TEST(BackendFuzzTest, ModelBackendsFuzzCleanAndReplayExactly) {
  for (const BackendKind kind : kModelKinds) {
    SCOPED_TRACE(core::to_string(kind));
    check::FuzzConfig cfg;
    cfg.backend = kind;
    cfg.ops_per_stream = 400;
    const auto campaign = [&cfg, kind](unsigned) {
      auto out = check::run_table2_fuzz(cfg);
      EXPECT_EQ(out.backend, kind);
      return out;
    };
    EXPECT_EQ(check::replay_gate(1, campaign), 0);
  }
}

TEST(BackendFuzzTest, CrossBackendCounterComparisonIsRejected) {
  check::FuzzConfig cfg;
  cfg.ops_per_stream = 100;
  cfg.backend = BackendKind::kPoe;
  const auto poe = check::run_table2_fuzz(cfg);
  cfg.backend = BackendKind::kCca;
  const auto cca = check::run_table2_fuzz(cfg);
  const auto diff = check::diff_fuzz_counters(poe, cca);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_NE(diff[0].find("backend mismatch"), std::string::npos);
  EXPECT_NE(diff[0].find("poe"), std::string::npos);
  EXPECT_NE(diff[0].find("cca"), std::string::npos);
}

// The unified C shims translate the same Status vocabulary to the same
// errno-style ints for every backend.
TEST(Table2ShimTest, ErrnoMappingIsDocumentedTable) {
  EXPECT_EQ(core::table2::errno_of(Status::ok()), 0);
  EXPECT_EQ(core::table2::errno_of(Status(Errc::kResourceExhausted, "")),
            -12);
  EXPECT_EQ(core::table2::errno_of(Status(Errc::kPermissionDenied, "")), -1);
  EXPECT_EQ(core::table2::errno_of(Status(Errc::kFailedPrecondition, "")),
            -1);
  EXPECT_EQ(core::table2::errno_of(Status(Errc::kNotFound, "")), -2);
  EXPECT_EQ(core::table2::errno_of(Status(Errc::kNoPgt, "")), -22);
  EXPECT_EQ(core::table2::errno_of(Status(Errc::kBadGate, "")), -22);
  // Result<int> shim: ok -> value, error -> mapped errno.
  EXPECT_EQ(core::table2::to_c_int(Result<int>(7)), 7);
  EXPECT_EQ(core::table2::to_c_int(
                Result<int>(Status(Errc::kResourceExhausted, ""))),
            -12);
}

}  // namespace
}  // namespace lz
