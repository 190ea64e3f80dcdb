// Figure 3: average throughput of original, LightZone-PAN, LightZone-TTBR,
// Watchpoint, and simulated-lwC Nginx (1 worker, 1 KB HTTPS file) on
// Carmel Host/Guest and Cortex Host/Guest, across client concurrency —
// plus the §9.1 memory-overhead numbers.
#include <cctype>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "obs/counters.h"
#include "workloads/httpd.h"

namespace {

using namespace lz;
using namespace lz::workload;

constexpr Mechanism kMechs[] = {Mechanism::kNone, Mechanism::kLzPan,
                                Mechanism::kLzTtbr, Mechanism::kWatchpoint,
                                Mechanism::kLwc};

struct Combo {
  const arch::Platform* plat;
  Placement placement;
  const char* label;
  // Paper throughput losses in the same order as kMechs[1..]: PAN, TTBR,
  // Watchpoint, lwC.
  double paper[4];
};

const Combo kCombos[] = {
    {&arch::Platform::carmel(), Placement::kHost, "Carmel Host",
     {1.35, 5.65, 45.46, 59.03}},
    {&arch::Platform::carmel(), Placement::kGuest, "Carmel Guest",
     {25.24, 26.91, 23.58, 26.65}},
    {&arch::Platform::cortex_a55(), Placement::kHost, "Cortex Host",
     {0.91, 3.01, 6.14, 13.71}},
    {&arch::Platform::cortex_a55(), Placement::kGuest, "Cortex Guest",
     {1.98, 2.03, 6.04, 21.24}},
};

std::string slug_of(const char* label) {
  std::string s(label);
  for (char& c : s) c = c == ' ' ? '_' : static_cast<char>(std::tolower(c));
  return s;
}

void print_fig3() {
  std::printf(
      "Figure 3: Nginx throughput (requests/s), 1 worker, 1 KB HTTPS file,\n"
      "10 runs averaged by construction (deterministic model)\n\n");
  for (const auto& combo : kCombos) {
    HttpdParams params = HttpdParams::defaults(*combo.plat);
    params.requests = 1500;

    std::printf("%s\n  %-15s", combo.label, "concurrency:");
    for (const int c : {1, 2, 4, 8, 16, 32, 64}) std::printf(" %8d", c);
    std::printf(" %10s\n", "loss");

    double base_rps = 0;
    for (std::size_t m = 0; m < std::size(kMechs); ++m) {
      const AppConfig config{combo.plat, combo.placement, kMechs[m], 42};
      const auto result = run_httpd(config, params);
      std::printf("  %-15s", to_string(kMechs[m]));
      for (const int c : {1, 2, 4, 8, 16, 32, 64}) {
        std::printf(" %8.0f", httpd_throughput_rps(result, params, config, c));
      }
      const double sat = httpd_throughput_rps(result, params, config, 64);
      bench::record(slug_of(combo.label) + "." + to_string(kMechs[m]) +
                        ".rps_at_64",
                    sat);
      // Per-tenant rps sample for --metrics-out: the single-worker sweep
      // contributes one saturation-rps sample per combo/mechanism to the
      // "httpd-worker" tenant's distribution.
      if (obs::registry().labels_enabled()) {
        obs::LabelSet labels;
        labels.set(obs::LabelKey::kTenant, "httpd-worker");
        obs::registry().histogram("httpd.rps", labels).record(static_cast<u64>(sat));
      }
      if (m == 0) {
        base_rps = sat;
        std::printf(" %10s\n", "(base)");
      } else {
        const double loss = 100.0 * (base_rps - sat) / base_rps;
        std::printf("  %5.2f%% (paper %.2f%%)\n", loss, combo.paper[m - 1]);
        bench::record(slug_of(combo.label) + "." + to_string(kMechs[m]) +
                          ".loss_pct",
                      loss);
      }
    }
    std::printf("\n");
  }

  // §9.1 memory overheads.
  HttpdParams params = HttpdParams::defaults(arch::Platform::carmel());
  params.requests = 50;
  const AppConfig pan_cfg{&arch::Platform::carmel(), Placement::kHost,
                          Mechanism::kLzPan, 42};
  const AppConfig ttbr_cfg{&arch::Platform::carmel(), Placement::kHost,
                           Mechanism::kLzTtbr, 42};
  const auto pan = run_httpd(pan_cfg, params);
  const auto ttbr = run_httpd(ttbr_cfg, params);
  // Baseline Nginx: 21.7 MB (paper). Fragmentation: one page per key.
  const double base_mb = 21.7;
  const double frag_pct =
      100.0 * (pan.key_pages * kPageSize) / (base_mb * 1024 * 1024) ;
  std::printf(
      "Memory overheads (Section 9.1, paper: fragmentation 1.6%%, page "
      "tables 1.2%% PAN / 22.2%% TTBR):\n"
      "  key-page fragmentation %.1f%%; page tables: PAN %.1f%% (%llu "
      "pages), TTBR %.1f%% (%llu pages)\n\n",
      frag_pct,
      100.0 * (pan.isolation_table_pages * kPageSize) /
          (base_mb * 1024 * 1024),
      static_cast<unsigned long long>(pan.isolation_table_pages),
      100.0 * (ttbr.isolation_table_pages * kPageSize) /
          (base_mb * 1024 * 1024),
      static_cast<unsigned long long>(ttbr.isolation_table_pages));
  bench::record("memory.key_page_fragmentation_pct", frag_pct);
  bench::record("memory.pan_table_pages", pan.isolation_table_pages);
  bench::record("memory.ttbr_table_pages", ttbr.isolation_table_pages);
}

// --backend B (B != ttbr_pan): the same Nginx model with the chosen
// isolation backend standing in for LightZone — vanilla as the baseline
// row, then the backend's mechanism. poe/cca run the cost-model backends
// through AppDriver; watchpoint/lwc reuse the existing baselines, now
// reachable from the same flag the other benches use.
Mechanism mech_of_backend(lz::core::BackendKind kind) {
  switch (kind) {
    case lz::core::BackendKind::kPoe: return Mechanism::kPoe;
    case lz::core::BackendKind::kCca: return Mechanism::kCca;
    case lz::core::BackendKind::kWatchpoint: return Mechanism::kWatchpoint;
    case lz::core::BackendKind::kLwc: return Mechanism::kLwc;
    case lz::core::BackendKind::kTtbrPan: break;
  }
  return Mechanism::kLzTtbr;
}

void print_fig3_backend(lz::core::BackendKind kind) {
  const Mechanism mech = mech_of_backend(kind);
  const std::string name = lz::core::to_string(kind);
  std::printf(
      "Figure 3 (--backend %s): Nginx throughput (requests/s), 1 worker,\n"
      "1 KB HTTPS file, %s vs vanilla\n\n",
      name.c_str(), to_string(mech));
  for (const auto& combo : kCombos) {
    HttpdParams params = HttpdParams::defaults(*combo.plat);
    params.requests = 1500;
    std::printf("%s\n  %-15s", combo.label, "concurrency:");
    for (const int c : {1, 2, 4, 8, 16, 32, 64}) std::printf(" %8d", c);
    std::printf(" %10s\n", "loss");
    double base_rps = 0;
    for (const Mechanism m : {Mechanism::kNone, mech}) {
      const AppConfig config{combo.plat, combo.placement, m, 42};
      const auto result = run_httpd(config, params);
      std::printf("  %-15s", to_string(m));
      for (const int c : {1, 2, 4, 8, 16, 32, 64}) {
        std::printf(" %8.0f", httpd_throughput_rps(result, params, config, c));
      }
      const double sat = httpd_throughput_rps(result, params, config, 64);
      const std::string base =
          "backend." + name + "." + slug_of(combo.label);
      if (m == Mechanism::kNone) {
        base_rps = sat;
        bench::record(base + ".vanilla.rps_at_64", sat);
        std::printf(" %10s\n", "(base)");
      } else {
        const double loss = 100.0 * (base_rps - sat) / base_rps;
        std::printf("  %5.2f%%\n", loss);
        bench::record(base + ".rps_at_64", sat);
        bench::record(base + ".loss_pct", loss);
      }
    }
    std::printf("\n");
  }
}

// --cores N: multi-worker scaling on the SMP machine — one worker process
// pinned per core (nginx's worker-per-core deployment), all sharing one
// kernel and physical memory. Throughput should scale near-linearly with
// cores for every mechanism: LightZone's per-core TLBs and per-process
// VMID/ASID tags keep domain switches local, so no cross-core shootdowns
// land on the request path.
void print_fig3_smp(unsigned cores) {
  std::printf(
      "Figure 3 (SMP): Nginx throughput (requests/s), %u worker(s) on %u "
      "cores,\n1 KB HTTPS file, 64 clients, Cortex-A55 host\n\n",
      cores, cores);
  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 800;
  constexpr int kConcurrency = 64;
  for (const auto mech :
       {Mechanism::kNone, Mechanism::kLzPan, Mechanism::kLzTtbr}) {
    const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                           mech, 42};
    const auto smp = run_httpd_smp(config, params, cores, kConcurrency);
    std::printf("  %-15s %8.0f req/s total (", to_string(mech),
                smp.total_rps);
    for (unsigned c = 0; c < smp.per_core.size(); ++c) {
      std::printf("%score%u %.0f cyc/req", c == 0 ? "" : ", ", c,
                  smp.per_core[c].cycles_per_request);
    }
    std::printf(")\n");
    const std::string base =
        std::string("smp.cortex_host.") + to_string(mech);
    bench::record(base + ".total_rps", smp.total_rps);
    for (unsigned c = 0; c < smp.per_core.size(); ++c) {
      bench::record(base + ".core" + std::to_string(c) + ".cycles_per_req",
                    smp.per_core[c].cycles_per_request);
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  lz::bench::ObsSession obs("fig3_nginx", argc, argv,
                            lz::bench::kBackendFlag | lz::bench::kCoresFlag);
  if (obs.backend() != lz::core::BackendKind::kTtbrPan) {
    print_fig3_backend(obs.backend());
  } else if (obs.cores() > 0) {
    print_fig3_smp(obs.cores());
  } else {
    print_fig3();
  }
  return obs.finish();
}
