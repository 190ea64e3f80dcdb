// Figure 5: time overhead of LightZone-PAN, LightZone-TTBR, Watchpoint and
// simulated lwC on the NVM data-structure benchmark (2 MB buffers,
// fixed-complexity substring searches), for varying domain counts, on
// Carmel Host/Guest and Cortex Host/Guest — plus the §9.3 memory numbers.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "workloads/nvm.h"

namespace {

using namespace lz;
using namespace lz::workload;
using bench::slug_of;

struct Combo {
  const arch::Platform* plat;
  Placement placement;
  const char* label;
  double paper_pan, paper_ttbr;  // average overheads reported in §9.3
};

const Combo kCombos[] = {
    {&arch::Platform::carmel(), Placement::kHost, "Carmel Host", 1.75,
     12.92},
    {&arch::Platform::carmel(), Placement::kGuest, "Carmel Guest", 4.39,
     16.64},
    {&arch::Platform::cortex_a55(), Placement::kHost, "Cortex Host", 0.26,
     1.81},
    {&arch::Platform::cortex_a55(), Placement::kGuest, "Cortex Guest", 0.20,
     3.76},
};

void print_fig5() {
  std::printf(
      "Figure 5: NVM benchmark time overhead (%%) vs number of 2 MB buffer "
      "domains\n(searches of 7,000-8,500 cycles; domain switch before and "
      "after each search)\n\n");
  const int kDomainCounts[] = {2, 4, 8, 16, 32, 64, 128};
  for (const auto& combo : kCombos) {
    std::printf("%s  (paper averages: PAN <= %.2f%%, TTBR <= %.2f%%)\n",
                combo.label, combo.paper_pan, combo.paper_ttbr);
    std::printf("  %-15s", "domains:");
    for (const int d : kDomainCounts) std::printf(" %7d", d);
    std::printf("\n");

    for (const auto mech : {Mechanism::kLzPan, Mechanism::kLzTtbr,
                            Mechanism::kWatchpoint, Mechanism::kLwc}) {
      std::printf("  %-15s", to_string(mech));
      for (const int d : kDomainCounts) {
        if (mech == Mechanism::kWatchpoint && d > 16) {
          std::printf(" %7s", "-");  // beyond the 16-domain cap
          continue;
        }
        NvmParams params;
        params.searches = 6000;
        params.buffers = d;
        const auto base = run_nvm(
            {combo.plat, combo.placement, Mechanism::kNone, 42}, params);
        const auto prot =
            run_nvm({combo.plat, combo.placement, mech, 42}, params);
        const double overhead = nvm_overhead_pct(prot, base);
        std::printf(" %6.2f%%", overhead);
        bench::record(slug_of(combo.label) + "." + to_string(mech) +
                          ".overhead_pct." + std::to_string(d),
                      overhead);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  // §9.3 memory overheads (paper: baseline 309 MB; page tables negligible
  // for PAN, 12.1% for scalable protection with huge pages).
  NvmParams params;
  params.searches = 500;
  params.buffers = 64;
  const auto pan = run_nvm({&arch::Platform::carmel(), Placement::kHost,
                            Mechanism::kLzPan, 42},
                           params);
  const auto ttbr = run_nvm({&arch::Platform::carmel(), Placement::kHost,
                             Mechanism::kLzTtbr, 42},
                            params);
  std::printf(
      "Memory overheads (Section 9.3): isolation page tables PAN %llu "
      "pages, TTBR %llu pages for %d buffers\n(paper: negligible vs 12.1%% "
      "of a 309 MB baseline)\n\n",
      static_cast<unsigned long long>(pan.isolation_table_pages),
      static_cast<unsigned long long>(ttbr.isolation_table_pages),
      params.buffers);
  bench::record("memory.pan_table_pages", pan.isolation_table_pages);
  bench::record("memory.ttbr_table_pages", ttbr.isolation_table_pages);
}

}  // namespace

int main(int argc, char** argv) {
  lz::bench::ObsSession obs("fig5_nvm", argc, argv);
  print_fig5();
  return obs.finish();
}
