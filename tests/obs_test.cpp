// lz::obs — counters, event trace, and report serialisation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mem/tlb.h"
#include "obs/counters.h"
#include "obs/expose.h"
#include "obs/histogram.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/ring.h"
#include "obs/trace.h"
#include "sim/cost.h"
#include "workloads/microbench.h"

namespace lz {
namespace {

using obs::Json;
using obs::Registry;
using obs::Report;
using obs::Snapshot;

class ObsTest : public ::testing::Test {
 protected:
  // Every test starts (and leaves) the process-global observability state
  // clean so tests stay order-independent.
  void SetUp() override { obs::reset_all(); }
  void TearDown() override {
    obs::trace().disarm();
    obs::reset_all();
  }
};

// --- Counter registry --------------------------------------------------------

TEST_F(ObsTest, CounterHandleIsStableAndShared) {
  auto& a = obs::registry().counter("test.obj.event");
  a.add();
  a.add(41);
  auto& b = obs::registry().counter("test.obj.event");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 42u);
}

TEST_F(ObsTest, FindDoesNotRegister) {
  EXPECT_EQ(obs::registry().find("test.not.registered"), nullptr);
  obs::registry().counter("test.now.registered");
  EXPECT_NE(obs::registry().find("test.now.registered"), nullptr);
}

TEST_F(ObsTest, SnapshotIsNameSorted) {
  obs::registry().counter("test.zz").add(1);
  obs::registry().counter("test.aa").add(2);
  obs::registry().counter("test.mm").add(3);
  const Snapshot snap = obs::registry().snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  }
}

TEST_F(ObsTest, DeltaSubtractsPerName) {
  auto& c1 = obs::registry().counter("test.delta.one");
  auto& c2 = obs::registry().counter("test.delta.two");
  c1.add(10);
  const Snapshot before = obs::registry().snapshot();
  c1.add(5);
  c2.add(7);
  obs::registry().counter("test.delta.fresh").add(3);
  const Snapshot after = obs::registry().snapshot();

  const Snapshot d = Registry::delta(before, after);
  const auto value_of = [&d](std::string_view name) -> u64 {
    for (const auto& [n, v] : d) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing delta entry " << name;
    return 0;
  };
  EXPECT_EQ(value_of("test.delta.one"), 5u);
  EXPECT_EQ(value_of("test.delta.two"), 7u);
  // Names absent from `before` count from zero.
  EXPECT_EQ(value_of("test.delta.fresh"), 3u);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsHandles) {
  auto& c = obs::registry().counter("test.reset.me");
  c.add(9);
  obs::registry().reset();
  EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
  c.add(2);
  EXPECT_EQ(obs::registry().find("test.reset.me")->value(), 2u);
}

// One registry, three views: an unlabeled counter, a labeled series and a
// host counter each surface only in their own view, and reset_all() zeroes
// all three and clears the labels flag.
TEST_F(ObsTest, RegistryViewsKeepUnlabeledLabeledAndHostSeriesApart) {
  obs::registry().enable_labels();
  obs::LabelSet tenant;
  tenant.set(obs::LabelKey::kTenant, "t0");
  auto& plain = obs::registry().counter("test.view.plain");
  auto& labeled = obs::registry().counter("test.view.labeled", tenant);
  auto& host = obs::registry().host_counter("test.view.host");
  plain.add(1);
  labeled.add(2);
  host.add(3);

  const auto names = [](const Snapshot& snap) {
    std::vector<std::string> out;
    for (const auto& [name, value] : snap) out.push_back(name);
    return out;
  };
  const auto has = [](const std::vector<std::string>& v, const char* name) {
    return std::find(v.begin(), v.end(), name) != v.end();
  };
  const auto unlabeled = names(obs::registry().snapshot());
  EXPECT_TRUE(has(unlabeled, "test.view.plain"));
  EXPECT_FALSE(has(unlabeled, "test.view.labeled"));
  EXPECT_FALSE(has(unlabeled, "test.view.host"));
  const auto host_only = names(obs::registry().host_snapshot());
  EXPECT_FALSE(has(host_only, "test.view.plain"));
  EXPECT_FALSE(has(host_only, "test.view.labeled"));
  EXPECT_TRUE(has(host_only, "test.view.host"));
  EXPECT_EQ(obs::registry().find("test.view.labeled"), nullptr);
  EXPECT_EQ(obs::registry().find("test.view.host"), nullptr);

  // The exposition renders each in its own section: unlabeled counters,
  // then labeled counters, then (after the summaries) host counters.
  const std::string text = obs::render_exposition();
  const auto at = [&](const char* line) {
    const auto pos = text.find(line);
    EXPECT_NE(pos, std::string::npos) << line << "\n" << text;
    return pos;
  };
  const auto plain_at = at("\ntest_view_plain 1\n");
  const auto labeled_at = at("\ntest_view_labeled{tenant=\"t0\"} 2\n");
  const auto host_at = at("\ntest_view_host 3\n");
  EXPECT_LT(plain_at, labeled_at);
  EXPECT_LT(labeled_at, host_at);
  EXPECT_EQ(text.find("test_view_labeled 2"), std::string::npos);

  obs::reset_all();
  EXPECT_FALSE(obs::registry().labels_enabled());
  EXPECT_EQ(plain.value(), 0u);
  EXPECT_EQ(labeled.value(), 0u);
  EXPECT_EQ(host.value(), 0u);
}

// --- The shared ring ---------------------------------------------------------

TEST_F(ObsTest, SharedRingWrapsOldestFirstAndCountsDrops) {
  obs::Ring<int> ring;
  EXPECT_FALSE(ring.push(1));  // never reset: capacity 0 ignores pushes
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.items().empty());

  ring.reset(3);
  EXPECT_EQ(ring.capacity(), 3u);
  for (int v = 0; v < 3; ++v) EXPECT_FALSE(ring.push(v));
  EXPECT_EQ(ring.items(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ring.dropped(), 0u);
  // Wraparound: each push past capacity overwrites the oldest entry.
  for (int v = 3; v < 8; ++v) EXPECT_TRUE(ring.push(v));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 5u);
  EXPECT_EQ(ring.items(), (std::vector<int>{5, 6, 7}));

  ring.clear();  // keeps the capacity, drops entries and the drop count
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  ring.push(9);
  EXPECT_EQ(ring.items(), (std::vector<int>{9}));

  ring.reset(0);  // the one arm(0) rule: clamp to a single slot
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(1);
  EXPECT_TRUE(ring.push(2));
  EXPECT_EQ(ring.items(), (std::vector<int>{2}));
}

// --- CycleLedger mirror ------------------------------------------------------

TEST_F(ObsTest, CycleAccountChargesMirrorIntoLedger) {
  sim::CycleAccount account;
  account.charge(sim::CostKind::kGate, 12);
  account.charge(sim::CostKind::kInsn, 30);
  account.charge(sim::CostKind::kGate, 8);
  EXPECT_EQ(account.total(), 50u);
  EXPECT_EQ(obs::cycle_ledger().total(), 50u);
  EXPECT_EQ(
      obs::cycle_ledger().of(static_cast<std::size_t>(sim::CostKind::kGate)),
      20u);
}

TEST_F(ObsTest, EveryCostKindHasAName) {
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
    const char* name = sim::to_string(static_cast<sim::CostKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u) << "CostKind " << k;
    EXPECT_STRNE(name, "?") << "CostKind " << k;
  }
}

#ifndef NDEBUG
TEST_F(ObsTest, ChargeAssertsOnOutOfRangeKindInDebug) {
  sim::CycleAccount account;
  EXPECT_DEATH(account.charge(sim::CostKind::kCount, 1), "out-of-range");
}
#endif

// --- Event trace -------------------------------------------------------------

TEST_F(ObsTest, DisarmedTraceRecordsNothing) {
  EXPECT_FALSE(obs::trace().armed());
  obs::trace().gate_switch(1, 2);
  EXPECT_EQ(obs::trace().size(), 0u);
}

TEST_F(ObsTest, RingBufferWrapsAndCountsDrops) {
  obs::trace().arm(4);
  for (u16 g = 0; g < 10; ++g) obs::trace().gate_switch(g, 0);
  EXPECT_EQ(obs::trace().size(), 4u);
  EXPECT_EQ(obs::trace().dropped(), 6u);
  // Oldest-first: the survivors are the last four emits.
  const auto events = obs::trace().events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].kind, obs::EventKind::kGateSwitch);
    EXPECT_EQ(events[i].a0, 6u + i);
  }
}

TEST_F(ObsTest, TraceDropsSurfaceInCounterAndChromeMetadata) {
  obs::trace().arm(4);
  for (u16 g = 0; g < 10; ++g) obs::trace().gate_switch(g, 0);
  // Silent truncation is never silent: the registry counter mirrors the
  // ring's drop count, and the Chrome export carries it as metadata.
  const obs::Counter* c = obs::registry().find("obs.trace.dropped");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), obs::trace().dropped());
  EXPECT_EQ(c->value(), 6u);
  const std::string json = obs::trace().to_chrome_json();
  EXPECT_NE(json.find("\"dropped_events\":6"), std::string::npos);
}

TEST_F(ObsTest, TraceTimestampsFollowTheCycleLedger) {
  obs::trace().arm(8);
  sim::CycleAccount account;
  account.charge(sim::CostKind::kInsn, 100);
  obs::trace().pan_toggle(true);
  account.charge(sim::CostKind::kInsn, 50);
  obs::trace().pan_toggle(false);
  const auto events = obs::trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 100u);
  EXPECT_EQ(events[1].ts, 150u);
}

// Two identical armed runs of a real workload must serialise to the same
// bytes: the trace clock is simulated cycles, never wall time.
TEST_F(ObsTest, TraceJsonIsDeterministicAcrossRuns) {
  const auto run_once = [] {
    obs::reset_all();
    obs::trace().arm(1024);
    workload::lz_switch_avg_cycles(arch::Platform::cortex_a55(),
                                   workload::Placement::kHost, 2, 40);
    std::string json = obs::trace().to_chrome_json();
    obs::trace().disarm();
    return json;
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_GT(first.size(), 2u);
  EXPECT_EQ(first, second);
}

TEST_F(ObsTest, ChromeTraceFileParsesAndValidates) {
  obs::trace().arm(1024);
  workload::lz_switch_avg_cycles(arch::Platform::cortex_a55(),
                                 workload::Placement::kHost, 2, 20);
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::trace().write_chrome_json(path));
  EXPECT_GT(obs::trace().size(), 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = Json::parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());

  const Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->size(), obs::trace().size());
  u64 prev_ts = 0;
  for (const Json& e : events->elements()) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("name"), nullptr);
    EXPECT_EQ(e.find("ph")->as_string(), "i");
    const u64 ts = e.find("ts")->as_u64();
    EXPECT_GE(ts, prev_ts);  // ledger clock is monotonic
    prev_ts = ts;
  }
  std::remove(path.c_str());
}

TEST_F(ObsTest, TraceEventArgsCarryArchitecturalDetail) {
  obs::trace().arm(16);
  obs::trace().tlb_inval(obs::TlbScope::kAsid, 7, 3);
  obs::trace().excp_entry(0x15, 0, 1, 0x56000000, false);
  const std::string json = obs::trace().to_chrome_json();
  EXPECT_NE(json.find("\"tlb-inval\""), std::string::npos);
  EXPECT_NE(json.find("\"asid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"vmid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"excp-entry\""), std::string::npos);
}

// --- Json --------------------------------------------------------------------

TEST_F(ObsTest, JsonRoundTripsScalarsExactly) {
  Json obj = Json::object();
  obj.set("u", Json::number(u64{18446744073709551615ull}));
  obj.set("d", Json::number(471.92000000000002));
  obj.set("s", Json::string("a\"b\\c\n\t"));
  obj.set("b", Json::boolean(true));
  const std::string text = obj.dump();
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("u")->as_u64(), 18446744073709551615ull);
  EXPECT_EQ(parsed->find("d")->as_double(), 471.92000000000002);
  EXPECT_EQ(parsed->find("s")->as_string(), "a\"b\\c\n\t");
  EXPECT_TRUE(parsed->find("b")->as_bool());
  // Serialisation is canonical: dump(parse(dump(x))) == dump(x).
  EXPECT_EQ(parsed->dump(), text);
}

TEST_F(ObsTest, JsonRejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(Json::parse("[1,2] trailing").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
}

// --- Report ------------------------------------------------------------------

TEST_F(ObsTest, ReportRoundTripsThroughItsOwnParser) {
  Report report("obs_test_bench");
  report.add_result("series.point", 123.5);
  report.add_result("series.count", u64{77});
  report.set_cycles_total(1000);
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
    report.add_cycles(sim::to_string(static_cast<sim::CostKind>(k)),
                      k * 10);
  }
  obs::registry().counter("test.report.counter").add(5);
  report.add_counters(obs::registry().snapshot());

  const std::string text = report.to_string();
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(Report::validate(*doc));

  EXPECT_EQ(doc->find("schema")->as_string(), "lz.bench.report.v2");
  EXPECT_EQ(doc->find("bench")->as_string(), "obs_test_bench");
  EXPECT_EQ(doc->find("results")->find("series.point")->as_double(), 123.5);
  EXPECT_EQ(doc->find("results")->find("series.count")->as_u64(), 77u);
  EXPECT_EQ(doc->find("cycles")->find("total")->as_u64(), 1000u);
  const Json* by_kind = doc->find("cycles")->find("by_kind");
  ASSERT_NE(by_kind, nullptr);
  EXPECT_EQ(by_kind->size(), sim::kNumCostKinds);
  EXPECT_EQ(
      doc->find("counters")->find("test.report.counter")->as_u64(), 5u);
}

TEST_F(ObsTest, ValidateRejectsWrongSchemaOrMissingSections) {
  Report report("x");
  report.add_result("r", u64{1});
  auto doc = report.to_json();
  EXPECT_TRUE(Report::validate(doc));
  doc.set("schema", Json::string("lz.bench.report.v0"));
  EXPECT_FALSE(Report::validate(doc));
  // The v1 tag is rejected too: v2 is the only schema.
  doc.set("schema", Json::string("lz.bench.report.v1"));
  EXPECT_FALSE(Report::validate(doc));
  EXPECT_FALSE(Report::validate(Json::object()));
}

// A v2 report carries latency histograms and the sampling profile, and its
// validator checks both sections.
TEST_F(ObsTest, V2ReportRoundTripsWithHistogramsAndProfile) {
  obs::profiler().arm(64);
  workload::lz_switch_avg_cycles(arch::Platform::cortex_a55(),
                                 workload::Placement::kHost, 2, 40);
  Report report("v2_style");
  report.add_result("r", u64{1});
  report.set_cycles_total(obs::cycle_ledger().total());
  report.add_counters(obs::registry().snapshot());
  report.add_histograms(obs::registry().histogram_snapshot());
  report.set_profile(obs::profiler());
  obs::profiler().disarm();

  const auto doc = Json::parse(report.to_string());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(Report::validate(*doc));
  EXPECT_EQ(doc->find("schema")->as_string(), Report::kSchema);

  // The workload's gate switches landed in the latency histogram with a
  // full percentile row.
  const Json* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* gate = hists->find("lz.gate.switch_cycles");
  ASSERT_NE(gate, nullptr);
  EXPECT_GT(gate->find("count")->as_u64(), 0u);
  EXPECT_GE(gate->find("p99")->as_u64(), gate->find("p50")->as_u64());
  EXPECT_GE(gate->find("max")->as_u64(), gate->find("p99")->as_u64());

  // The profile section attributes samples per domain and per EL.
  const Json* prof = doc->find("profile");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->find("period")->as_u64(), 64u);
  EXPECT_GT(prof->find("samples")->as_u64(), 0u);
  ASSERT_NE(prof->find("by_domain"), nullptr);
  EXPECT_GT(prof->find("by_domain")->size(), 0u);
  ASSERT_NE(prof->find("hotspots"), nullptr);
  EXPECT_GT(prof->find("hotspots")->size(), 0u);

  // Stripping the histograms section invalidates the v2 document.
  auto no_hist = *doc;
  no_hist.set("histograms", Json::number(u64{0}));
  EXPECT_FALSE(Report::validate(no_hist));
}

// End-to-end: the exact flow the bench binaries run behind --json.
TEST_F(ObsTest, BenchStyleReportCapturesWorkloadActivity) {
  const double avg = workload::lz_switch_avg_cycles(
      arch::Platform::cortex_a55(), workload::Placement::kHost, 2, 40);

  Report report("bench_style");
  report.add_result("cortex_host.lz.2", avg);
  const auto& ledger = obs::cycle_ledger();
  report.set_cycles_total(ledger.total());
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
    report.add_cycles(sim::to_string(static_cast<sim::CostKind>(k)),
                      ledger.of(k));
  }
  report.add_counters(obs::registry().snapshot());

  const auto doc = Json::parse(report.to_string());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(Report::validate(*doc));
  // The workload really ran: cycles accumulated, the TLB and the gate
  // counters moved.
  EXPECT_GT(doc->find("cycles")->find("total")->as_u64(), 0u);
  const Json* counters = doc->find("counters");
  EXPECT_GT(counters->find("mem.tlb.l1_hit")->as_u64(), 0u);
  EXPECT_GT(counters->find("lz.module.gate_switch")->as_u64(), 0u);
  EXPECT_GT(counters->find("sim.core.insn_retired")->as_u64(), 0u);
}

// --- Tlb stats export --------------------------------------------------------

TEST_F(ObsTest, TlbStatsHitRate) {
  mem::TlbStats stats;
  EXPECT_EQ(stats.hit_rate(), 0.0);  // no lookups yet
  stats.l1_hits = 90;
  stats.l2_hits = 5;
  stats.misses = 5;
  EXPECT_EQ(stats.lookups(), 100u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.95);
}

}  // namespace
}  // namespace lz
