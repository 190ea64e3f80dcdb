// Table 1: qualitative comparison of in-process isolation frameworks for
// ARM64. The LightZone row's properties are demonstrated by this repo's
// tests; the scalability and switch-cost figures for LightZone and the
// two implemented baselines are measured live.
#include <cstdio>

#include "bench_util.h"
#include "workloads/microbench.h"

namespace {

using namespace lz;
using namespace lz::workload;

void print_table1() {
  std::printf(
      "Table 1: in-process isolation frameworks for ARM64 (paper, with the\n"
      "implemented rows verified by this reproduction)\n\n");
  std::printf("  %-18s %-12s %-10s %-8s %-4s\n", "ARM64", "Scalability",
              "Efficiency", "Security", "PCB");
  std::printf("  %-18s %-12s %-10s %-8s %-4s\n", "Watchpoint [23]", "x (16)",
              "+-", "yes", "yes");
  std::printf("  %-18s %-12s %-10s %-8s %-4s\n", "PANIC [61]", "x (2)", "yes",
              "no", "yes");
  std::printf("  %-18s %-12s %-10s %-8s %-4s\n", "Capacity [15]", "x (16)",
              "no", "yes", "no");
  std::printf("  %-18s %-12s %-10s %-8s %-4s\n", "LFI [64]", "yes (2^16)",
              "+-", "yes", "no");
  std::printf("  %-18s %-12s %-10s %-8s %-4s\n", "LightZone (this)",
              "yes (2^16)", "yes", "yes", "yes");
  std::printf("  %-18s %-12s %-10s %-8s %-4s\n", "lwC [31] (portable)",
              "yes (inf)", "no", "yes", "yes");

  // Live evidence on the Cortex-A55 model, host placement.
  const auto& plat = arch::Platform::cortex_a55();
  const auto lz = [&plat](int domains) {
    return switch_avg_cycles(core::BackendKind::kTtbrPan, plat,
                             Placement::kHost, domains, 2000)
        .avg_cycles;
  };
  const double lz2 = lz(2);
  const double lz128 = lz(128);
  const double pan = lz(1);
  const double wp = watchpoint_switch_avg_cycles(plat, Placement::kHost, 3,
                                                 1000);
  const double lwc = lwc_switch_avg_cycles(plat, Placement::kHost, 3, 1000);
  bench::record("cortex_host.lz_pan.1", pan);
  bench::record("cortex_host.lz_ttbr.2", lz2);
  bench::record("cortex_host.lz_ttbr.128", lz128);
  bench::record("cortex_host.watchpoint.3", wp);
  bench::record("cortex_host.lwc.3", lwc);
  std::printf(
      "\nMeasured on the %s model (host): LightZone PAN %.0f cyc/switch, "
      "TTBR %.0f (2 domains) .. %.0f (128 domains); Watchpoint %.0f; lwC "
      "%.0f.\n",
      plat.name.data(), pan, lz2, lz128, wp, lwc);
  std::printf(
      "Scalability to 2^16 domains: lz_alloc ids are 16-bit (tested to "
      "several hundred live tables); Watchpoint is capped at 16 by the 4\n"
      "watchpoint register pairs; PCB holds because the sanitizer operates "
      "on raw instruction encodings, not source.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  lz::bench::ObsSession obs("table1_comparison", argc, argv);
  print_table1();
  return obs.finish();
}
