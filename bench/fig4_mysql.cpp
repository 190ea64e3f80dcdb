// Figure 4: average throughput of original, LightZone-PAN, LightZone-TTBR,
// Watchpoint, and simulated-lwC MySQL (sysbench OLTP read-write, 10 tables
// x 10,000 records) across client thread counts on Carmel Host/Guest and
// Cortex Host/Guest — plus the §9.2 memory-overhead numbers.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "workloads/dbms.h"

namespace {

using namespace lz;
using namespace lz::workload;
using bench::slug_of;

constexpr Mechanism kMechs[] = {Mechanism::kNone, Mechanism::kLzPan,
                                Mechanism::kLzTtbr, Mechanism::kWatchpoint,
                                Mechanism::kLwc};

struct Combo {
  const arch::Platform* plat;
  Placement placement;
  const char* label;
  // Paper losses: PAN, TTBR, Watchpoint, lwC (approximate; §9.2 text).
  double paper[4];
};

const Combo kCombos[] = {
    {&arch::Platform::carmel(), Placement::kHost, "Carmel Host",
     {0.1, 3.79, 8.35, 11.80}},
    {&arch::Platform::carmel(), Placement::kGuest, "Carmel Guest",
     {10.0, 10.0, 10.0, 10.0}},
    {&arch::Platform::cortex_a55(), Placement::kHost, "Cortex Host",
     {0.9, 2.84, 2.34, 12.76}},
    {&arch::Platform::cortex_a55(), Placement::kGuest, "Cortex Guest",
     {0.9, 2.35, 1.18, 5.47}},
};

void print_fig4() {
  std::printf(
      "Figure 4: MySQL throughput (transactions/s), sysbench OLTP "
      "read-write,\n10 tables x 10,000 records\n\n");
  for (const auto& combo : kCombos) {
    DbmsParams params = DbmsParams::defaults(*combo.plat);
    params.transactions = 600;
    const int cores = combo.plat == &arch::Platform::carmel() ? 8 : 4;

    std::printf("%s\n  %-15s", combo.label, "threads:");
    for (const int t : {1, 2, 4, 8, 16, 32}) std::printf(" %8d", t);
    std::printf(" %10s\n", "loss");

    double base_tps = 0;
    for (std::size_t m = 0; m < std::size(kMechs); ++m) {
      const AppConfig config{combo.plat, combo.placement, kMechs[m], 42};
      const auto result = run_dbms(config, params);
      std::printf("  %-15s", to_string(kMechs[m]));
      for (const int t : {1, 2, 4, 8, 16, 32}) {
        std::printf(" %8.0f", dbms_tps(result, params, config, t, cores));
      }
      const double sat = dbms_tps(result, params, config, 32, cores);
      bench::record(slug_of(combo.label) + "." + to_string(kMechs[m]) +
                        ".tps_at_32",
                    sat);
      if (m == 0) {
        base_tps = sat;
        std::printf(" %10s\n", "(base)");
      } else {
        const double loss = 100.0 * (base_tps - sat) / base_tps;
        std::printf("  %5.2f%% (paper ~%.2f%%)\n", loss, combo.paper[m - 1]);
        bench::record(slug_of(combo.label) + "." + to_string(kMechs[m]) +
                          ".loss_pct",
                      loss);
      }
    }
    std::printf("\n");
  }

  // §9.2 memory overheads (paper: app 13.3%, page tables 0.2% PAN / 9.8%
  // scalable; baseline MySQL 512.9 MB).
  DbmsParams params = DbmsParams::defaults(arch::Platform::carmel());
  params.transactions = 30;
  const auto pan = run_dbms({&arch::Platform::carmel(), Placement::kHost,
                             Mechanism::kLzPan, 42},
                            params);
  const auto ttbr = run_dbms({&arch::Platform::carmel(), Placement::kHost,
                              Mechanism::kLzTtbr, 42},
                             params);
  std::printf(
      "Memory overheads (Section 9.2): isolation page tables PAN %llu "
      "pages, TTBR %llu pages\n(paper: 0.2%% vs 9.8%% of a 512.9 MB "
      "baseline; the model hosts %d stack domains + 1 data domain)\n\n",
      static_cast<unsigned long long>(pan.isolation_table_pages),
      static_cast<unsigned long long>(ttbr.isolation_table_pages),
      params.connections);
  bench::record("memory.pan_table_pages", pan.isolation_table_pages);
  bench::record("memory.ttbr_table_pages", ttbr.isolation_table_pages);
}

}  // namespace

int main(int argc, char** argv) {
  lz::bench::ObsSession obs("fig4_mysql", argc, argv);
  print_fig4();
  return obs.finish();
}
