// lz::obs v4 — labeled series in obs::Registry and their exposition.
// Covers the labeled registration discipline (stable handles, fixed label
// order, sanitized values, bounded cardinality with an explicit overflow
// series), deterministic Prometheus-style rendering, the live exposition
// rewrite riding the TimeSeries due-threshold hook, the host-side
// self-profiler, the observe-only contract (registering labeled series
// changes no simulated cycles), and the flight recorder's torn-slot-
// tolerant reader under concurrent multi-core writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/platform.h"
#include "obs/counters.h"
#include "obs/expose.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/selfprof.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/cost.h"
#include "workloads/httpd.h"

namespace lz {
namespace {

using obs::LabelKey;
using obs::LabelSet;
using obs::SeriesRef;
using workload::AppConfig;
using workload::HttpdParams;
using workload::Mechanism;
using workload::Placement;

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset_all(); }
  void TearDown() override {
    obs::timeseries().reset();
    obs::reset_all();
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }

  // Every registered series named `name`, in exposition order.
  static std::vector<SeriesRef> series_of(std::string_view name) {
    std::vector<SeriesRef> out;
    for (const SeriesRef& s : obs::registry().series())
      if (s.key->name == name) out.push_back(s);
    return out;
  }

  static bool file_exists(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f) std::fclose(f);
    return f != nullptr;
  }
};

// --- Labels ------------------------------------------------------------------

TEST_F(MetricsTest, LabelSetRendersInFixedKeyOrder) {
  // Insertion order backend-then-tenant must not leak into the rendering:
  // LabelKey order (tenant, domain, core, backend) is the contract.
  LabelSet labels;
  labels.set(LabelKey::kBackend, "poe");
  labels.set(LabelKey::kTenant, "worker0");
  labels.set(LabelKey::kCore, u64{3});
  EXPECT_EQ(labels.render(), "{tenant=\"worker0\",core=\"3\",backend=\"poe\"}");
  EXPECT_EQ(LabelSet{}.render(), "");
  EXPECT_TRUE(LabelSet{}.empty());
  EXPECT_FALSE(labels.empty());
}

TEST_F(MetricsTest, LabelValuesAreSanitizedOnEntry) {
  // A tenant named to break out of the quoted value (or to smuggle the
  // collapsed-stack ';' separator) must come out inert — same
  // sanitize_frame defence the profiler exporter uses.
  LabelSet labels;
  labels.set(LabelKey::kTenant, "evil\";x=\"1");
  labels.set(LabelKey::kDomain, "a b;c\\d");
  const std::string rendered = labels.render();
  EXPECT_EQ(rendered.find('\\'), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find(' '), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find(';'), std::string::npos) << rendered;
  // The only quotes left are the value delimiters themselves.
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '"'), 4) << rendered;
  EXPECT_NE(rendered.find("evil"), std::string::npos) << rendered;
}

// --- Labeled series ----------------------------------------------------------

TEST_F(MetricsTest, FamilyHandlesAreStableAndShared) {
  LabelSet a;
  a.set(LabelKey::kTenant, "a");
  obs::Counter& series = obs::registry().counter("test.requests", a);
  // Same name and labels -> same instrument.
  EXPECT_EQ(&series, &obs::registry().counter("test.requests", a));
  series.add(3);
  obs::registry().counter("test.requests", a).add(2);

  const auto all = series_of("test.requests");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].key->kind, obs::SeriesKind::kLabeledCounter);
  EXPECT_EQ(all[0].counter->value(), 5u);
  EXPECT_FALSE(all[0].key->overflow);
  EXPECT_EQ(all[0].key->labels.get(LabelKey::kTenant), "a");
}

TEST_F(MetricsTest, FamilyCardinalityIsBounded) {
  for (std::size_t i = 0; i < obs::kMaxSeriesPerFamily + 5; ++i) {
    LabelSet labels;
    labels.set(LabelKey::kTenant, "tenant" + std::to_string(i));
    obs::registry().counter("test.cardinality", labels).add(1);
  }

  // The five overflowing label-sets all folded into one shared series,
  // flagged and appended after the real (label-sorted) series.
  const auto all = series_of("test.cardinality");
  ASSERT_EQ(all.size(), obs::kMaxSeriesPerFamily + 1);
  EXPECT_FALSE(all[all.size() - 2].key->overflow);
  EXPECT_TRUE(all.back().key->overflow);
  EXPECT_EQ(all.back().folded, 5u);
  EXPECT_EQ(all.back().counter->value(), 5u);
}

// --- Exposition --------------------------------------------------------------

TEST_F(MetricsTest, ExpositionIsDeterministicAndSorted) {
  obs::registry().enable_labels();
  // Register in anti-alphabetical order; the exposition must sort.
  LabelSet b_labels, a_labels;
  b_labels.set(LabelKey::kTenant, "z");
  a_labels.set(LabelKey::kTenant, "a");
  obs::registry().counter("zz.family", b_labels).add(7);
  obs::registry().counter("aa.family", a_labels).add(1);

  const std::string once = obs::render_exposition();
  const std::string twice = obs::render_exposition();
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once.rfind("# lz.obs exposition v1\n", 0), 0u) << once;
  // Dots mangle to underscores; aa renders before zz.
  const auto aa = once.find("aa_family{tenant=\"a\"} 1\n");
  const auto zz = once.find("zz_family{tenant=\"z\"} 7\n");
  ASSERT_NE(aa, std::string::npos) << once;
  ASSERT_NE(zz, std::string::npos) << once;
  EXPECT_LT(aa, zz);
}

TEST_F(MetricsTest, ExpositionRendersHistogramSeries) {
  obs::registry().enable_labels();
  LabelSet labels;
  labels.set(LabelKey::kTenant, "w0");
  labels.set(LabelKey::kDomain, u64{4});
  obs::Histogram& h =
      obs::registry().histogram("lz.tenant.gate_switch_cycles", labels);
  for (u64 v : {100, 200, 300, 400}) h.record(v);

  const std::string text = obs::render_exposition();
  const char* prefix = "lz_tenant_gate_switch_cycles";
  for (const char* q : {"0.5", "0.9", "0.99"}) {
    const std::string want = std::string(prefix) +
                             "{tenant=\"w0\",domain=\"4\",quantile=\"" + q +
                             "\"}";
    EXPECT_NE(text.find(want), std::string::npos) << text;
  }
  EXPECT_NE(text.find(std::string(prefix) +
                      "_count{tenant=\"w0\",domain=\"4\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(std::string(prefix) +
                      "_sum{tenant=\"w0\",domain=\"4\"} 1000\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("_min{tenant=\"w0\",domain=\"4\"} 100\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("_max{tenant=\"w0\",domain=\"4\"} 400\n"),
            std::string::npos)
      << text;
}

TEST_F(MetricsTest, ExpositionFlagsOverflowSeries) {
  obs::registry().enable_labels();
  for (std::size_t i = 0; i < obs::kMaxSeriesPerFamily + 1; ++i) {
    LabelSet labels;
    labels.set(LabelKey::kTenant, "t" + std::to_string(i));
    obs::registry().counter("test.overflow", labels).add(1);
  }
  const std::string text = obs::render_exposition();
  EXPECT_NE(text.find("test_overflow{overflow=\"true\"} 1\n"),
            std::string::npos);
}

// --- Observe-only contract ---------------------------------------------------

TEST_F(MetricsTest, EnabledPlaneChangesNoSimulatedCycles) {
  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 50;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         Mechanism::kLzTtbr, 42};

  const auto off = workload::run_httpd(config, params);
  const auto counters_off = obs::registry().snapshot();

  obs::reset_all();
  obs::registry().enable_labels();
  const auto on = workload::run_httpd(config, params);
  const auto counters_on = obs::registry().snapshot();

  // Identical simulated work, identical counters — recording is free in
  // simulated time even though the registry captured per-tenant series.
  EXPECT_EQ(on.cycles_per_request, off.cycles_per_request);
  EXPECT_EQ(counters_on, counters_off);
  const auto series = series_of("httpd.requests");
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series[0].counter->value(), 50u);
}

// POE runs its domain switches through the same LzProc verb as TTBR, so an
// --metrics-out run sees them in the backend-labeled switch series.
TEST_F(MetricsTest, AppDriverPoeRecordsBackendSwitchCycles) {
  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 10;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         Mechanism::kPoe, 42};
  obs::registry().enable_labels();
  (void)workload::run_httpd(config, params);
  u64 poe_switches = 0;
  for (const auto& s : series_of("lz.backend.switch_cycles")) {
    if (s.key->labels.render().find("backend=\"poe\"") != std::string::npos) {
      poe_switches += s.histogram->count();
    }
  }
  // 37 gated crypto calls per request, each a switch in and a switch out.
  EXPECT_EQ(poe_switches, 10u * 37 * 2);
}

TEST_F(MetricsTest, DisabledPlaneRecordsNothing) {
  // Registrations survive reset_all() (handles are stable for the process
  // lifetime), so gauge the disabled run by growth and value movement.
  ASSERT_FALSE(obs::registry().labels_enabled());
  const std::size_t requests_before = series_of("httpd.requests").size();
  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 10;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         Mechanism::kLzPan, 42};
  (void)workload::run_httpd(config, params);
  EXPECT_EQ(series_of("httpd.requests").size(), requests_before);
  for (const auto& s : series_of("httpd.requests")) {
    EXPECT_EQ(s.counter->value(), 0u);  // reset zeroed it; this run added 0
  }
  for (const auto& s : series_of("httpd.request_cycles")) {
    EXPECT_EQ(s.histogram->count(), 0u);
  }
}

// --- Live exposition ---------------------------------------------------------

TEST_F(MetricsTest, PumpRidesTheTimeSeriesHook) {
  const std::string path = temp_path("pump_exposition.prom");
  std::remove(path.c_str());
  obs::registry().enable_labels();
  obs::timeseries().arm(/*period=*/5000, obs::TimeSeries::kDefaultCapacity,
                        path);

  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 100;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         Mechanism::kLzTtbr, 42};
  (void)workload::run_httpd(config, params);

  // The workload burned well over one sampling period, so the sampler
  // fired and each sample rewrote the snapshot file — nothing else wrote it.
  EXPECT_GT(obs::timeseries().size(), 0u);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[32] = {};
  ASSERT_GT(std::fread(header, 1, sizeof(header) - 1, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(header).rfind("# lz.obs exposition v1", 0), 0u);
  std::remove(path.c_str());
}

TEST_F(MetricsTest, WriteExpositionRoundTripsDeterministically) {
  obs::registry().enable_labels();
  LabelSet labels;
  labels.set(LabelKey::kTenant, "t");
  obs::registry().counter("round.trip", labels).add(9);
  const std::string a = temp_path("expo_a.prom");
  const std::string b = temp_path("expo_b.prom");
  ASSERT_TRUE(obs::write_exposition(a));
  ASSERT_TRUE(obs::write_exposition(b));
  std::ifstream fa(a), fb(b);
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- Self-profiler -----------------------------------------------------------

TEST_F(MetricsTest, SelfProfilerAccumulatesOnlyWhenEnabled) {
  ASSERT_FALSE(obs::selfprof().enabled());
  {
    obs::SelfProfScope scope(obs::SelfTier::kObs);
  }
  EXPECT_EQ(obs::selfprof().ticks(obs::SelfTier::kObs), 0u);

  obs::selfprof().enable();
  {
    obs::SelfProfScope scope(obs::SelfTier::kObs);
    // Enough work that even a coarse tick source observes time passing.
    volatile u64 sink = 0;
    for (u64 i = 0; i < 200000; ++i) sink = sink + i;
  }
  EXPECT_GT(obs::selfprof().ticks(obs::SelfTier::kObs), 0u);
  EXPECT_EQ(obs::selfprof().ticks(obs::SelfTier::kRun), 0u);

  obs::selfprof().reset();
  EXPECT_FALSE(obs::selfprof().enabled());
  EXPECT_EQ(obs::selfprof().ticks(obs::SelfTier::kObs), 0u);
}

TEST_F(MetricsTest, SelfProfilerAttributesEngineTiersDuringRuns) {
  obs::selfprof().enable();
  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 50;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         Mechanism::kLzTtbr, 42};
  (void)workload::run_httpd(config, params);
  // The outer run bracket always accumulates; the walker fires on TLB
  // misses, which this workload generates by construction.
  EXPECT_GT(obs::selfprof().ticks(obs::SelfTier::kRun), 0u);
  EXPECT_GT(obs::selfprof().ticks(obs::SelfTier::kWalker), 0u);
}

// --- reset_all() -------------------------------------------------------------

TEST_F(MetricsTest, ResetAllDisarmsAndZeroesThePlane) {
  const std::string probe = temp_path("reset_probe.prom");
  std::remove(probe.c_str());
  obs::registry().enable_labels();
  obs::selfprof().enable();
  obs::timeseries().arm(/*period=*/100, obs::TimeSeries::kDefaultCapacity,
                        probe);
  LabelSet labels;
  labels.set(LabelKey::kTenant, "t");
  obs::registry().counter("reset.family", labels).add(5);
  obs::selfprof().add(obs::SelfTier::kObs, 10);

  obs::reset_all();

  EXPECT_FALSE(obs::registry().labels_enabled());
  EXPECT_FALSE(obs::selfprof().enabled());
  EXPECT_FALSE(obs::timeseries().armed());
  EXPECT_EQ(obs::selfprof().ticks(obs::SelfTier::kObs), 0u);
  // The disarmed sampler no longer rewrites the exposition file.
  sim::CycleAccount account;
  account.charge(sim::CostKind::kInsn, 1000);
  EXPECT_FALSE(file_exists(probe));
  const auto series = series_of("reset.family");
  ASSERT_EQ(series.size(), 1u);  // registration survives, value is zeroed
  EXPECT_EQ(series[0].counter->value(), 0u);
}

// --- Flight recorder under concurrency ---------------------------------------

// Satellite: the black box's reader must tolerate torn in-flight slots
// while multiple simulated cores write concurrently. Writers hammer
// per-core rings; a reader thread renders the report the whole time. Under
// the TSan leg this doubles as a data-race proof for the relaxed-atomic
// slot protocol.
TEST_F(MetricsTest, FlightRecorderToleratesConcurrentWriters) {
  constexpr unsigned kWriters = 4;
  constexpr u64 kEventsPerWriter = 2000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    u64 renders = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string report = obs::flight().report();
      (void)report;
      ++renders;
    }
    EXPECT_GT(renders, 0u);
  });

  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      const unsigned prev = obs::set_current_core(w + 1);
      for (u64 i = 0; i < kEventsPerWriter; ++i) {
        obs::Event e;
        e.ts = i;
        e.kind = obs::EventKind::kGateSwitch;
        e.a0 = w;
        e.a1 = i;
        obs::flight().record(e);
      }
      obs::set_current_core(prev);
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(obs::flight().recorded(), kWriters * kEventsPerWriter);
  const std::string report = obs::flight().report();
  for (unsigned w = 0; w < kWriters; ++w) {
    EXPECT_NE(report.find("core " + std::to_string(w + 1) + ":"),
              std::string::npos)
        << report;
  }
  // Quiescent ring: every surviving slot was fully published, so each
  // core's section shows exactly the ring depth.
  const u64 kept = obs::FlightRecorder::kEventsPerCore;
  EXPECT_NE(report.find("#" + std::to_string(kEventsPerWriter - kept + 1) +
                        " "),
            std::string::npos)
      << report;
}

}  // namespace
}  // namespace lz
