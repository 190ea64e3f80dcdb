// Shared machinery for the three application benchmarks (§9): one
// evaluation configuration = platform x placement x isolation mechanism.
// The driver owns a full Env (machine + host + optional guest VM + module),
// wires up the chosen mechanism, and exposes the event-level cost hooks the
// application models charge: domain switches (executing the *real* call
// gate / PAN toggle / ioctl paths), per-syscall costs (measured from real
// trap round-trips), and TLB-miss costs under the active paging depth.
#pragma once

#include <memory>
#include <optional>

#include "baselines/lwc.h"
#include "baselines/watchpoint.h"
#include "lightzone/api.h"
#include "workloads/microbench.h"

namespace lz::workload {

enum class Mechanism : u8 {
  kNone,        // vanilla (baseline)
  kLzPan,       // LightZone, PAN isolation
  kLzTtbr,      // LightZone, scalable TTBR isolation
  kWatchpoint,  // Watchpoint baseline [23]
  kLwc,         // simulated lwC [31]
  kPoe,         // FEAT_S1POE overlay-key cost model (PoeBackend)
  kCca,         // CCA granule-protection cost model (CcaBackend)
};

const char* to_string(Mechanism mech);

struct AppConfig {
  const arch::Platform* platform = &arch::Platform::cortex_a55();
  Placement placement = Placement::kHost;
  Mechanism mech = Mechanism::kNone;
  u64 seed = 42;
};

class AppDriver {
 public:
  explicit AppDriver(const AppConfig& config);
  ~AppDriver();

  const AppConfig& config() const { return config_; }
  sim::Machine& machine() { return *env_->machine; }
  Cycles cycles() const { return env_->machine->cycles(); }
  void charge_app(Cycles c) {
    env_->machine->charge(sim::CostKind::kWorkload, c);
  }

  // --- Domains ----------------------------------------------------------------
  // Create `count` isolation domains over page-aligned slots starting at
  // `base`, each `slot` bytes (setup_process_domains below). For PAN they
  // share the single protected domain; for TTBR/POE/CCA each gets a
  // domain + call gate; Watchpoint caps at 16 (extra domains stay
  // unprotected — its scalability failure).
  void setup_domains(VirtAddr base, u64 slot, int count);
  int domains() const { return domains_; }
  // Number of domains the mechanism actually protects.
  int protected_domains() const;

  // One-way switch granting access to `domain` (the real gate / PAN toggle
  // / ioctl path; lz_enter_domain below for every LzProc mechanism).
  // Returns cycles consumed.
  Cycles enter_domain(int domain);
  Cycles exit_domain(int domain);

  // Amortised per-domain setup work (lz_alloc + lz_prot + lz_map_gate_pgt
  // as kernel-module calls, lwC context creation, ...).
  Cycles domain_setup_cost() const;

  // --- Per-event costs ----------------------------------------------------------
  // One syscall of the application under this configuration (vanilla
  // process vs kernel-mode LightZone process), measured from real runs.
  Cycles syscall_cost() const { return syscall_cost_; }
  void charge_syscalls(int count) {
    env_->machine->charge(sim::CostKind::kDispatch,
                          static_cast<Cycles>(count) * syscall_cost_);
  }

  // One TLB miss of application data under the active translation depth
  // (native 4-level walk; +stage-2 depth for LightZone processes; the
  // fake-physical layer defeats walk-cache locality for TTBR mode).
  Cycles tlb_miss_cost(bool huge_pages = false) const;
  void charge_tlb_misses(double count, bool huge_pages = false) {
    env_->machine->charge(
        sim::CostKind::kTlb,
        static_cast<Cycles>(count * tlb_miss_cost(huge_pages)));
  }

  int cores() const {
    // Jetson AGX Xavier: 8 Carmel cores; Banana Pi BPI-M5: 4 A55 cores.
    return config_.platform == &arch::Platform::carmel() ? 8 : 4;
  }
  double freq_hz() const { return config_.platform->freq_ghz * 1e9; }

  // Memory accounting for §9's overhead numbers.
  u64 isolation_table_pages() const;

  core::Env& env() { return *env_; }
  kernel::Process& proc() { return *proc_; }
  // The LightZone (PAN/TTBR) process, or null for every other mechanism.
  core::LzProc* lz() { return is_lz() ? &*lz_ : nullptr; }

 private:
  bool is_lz() const {
    return config_.mech == Mechanism::kLzPan ||
           config_.mech == Mechanism::kLzTtbr;
  }

  AppConfig config_;
  std::unique_ptr<core::Env> env_;
  // PAN, TTBR, POE and CCA (enter_isolation); the module()/ctx() surface
  // exists only for PAN/TTBR.
  std::optional<core::LzProc> lz_;
  std::unique_ptr<baseline::WatchpointIsolation> wp_;
  std::unique_ptr<baseline::LwcIsolation> lwc_;
  kernel::Process* proc_ = nullptr;
  int domains_ = 0;
  Cycles syscall_cost_ = 0;
};

// --- One process's domains ------------------------------------------------------
// Shared by AppDriver and the multi-worker httpd (one call per worker).

// The LzProc `proc` speaks under `mech`: lz_enter into the real module for
// PAN/TTBR, the cost-model backend for POE/CCA. nullopt for vanilla and for
// Watchpoint/lwC, whose Fig. 3-5 models are not the Table-2 contract
// (DESIGN.md §14).
std::optional<core::LzProc> enter_isolation(Mechanism mech, core::Env& env,
                                            kernel::Process& proc);

// Builds `count` domains over the page-aligned slots base + d * slot of
// `proc` and puts the calling thread's core into the process:
//   no LzProc — back the slots with frames and enter EL0;
//   PAN       — every slot joins the single PAN domain (user pages);
//   TTBR/POE/CCA — the Table-2 gate build: gate 0 returns to the default
//               domain, domain d sits behind gate d + 1;
// then PAN/TTBR enter the LightZone world at EL1 on the default table and
// POE/CCA run the process at EL0 like vanilla.
void setup_process_domains(core::Env& env, kernel::Process& proc,
                           Mechanism mech, core::LzProc* lz, VirtAddr base,
                           u64 slot, int count);

// The domain switch of every LzProc mechanism: PAN off / on, or gate
// d + 1 in and gate 0 (the default domain) out. Returns cycles consumed.
Cycles lz_enter_domain(core::LzProc& lz, Mechanism mech, int domain);
Cycles lz_exit_domain(core::LzProc& lz, Mechanism mech);

}  // namespace lz::workload
