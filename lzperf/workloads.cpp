#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "lightzone/api.h"
#include "obs/counters.h"
#include "sim/assembler.h"
#include "sim/machine.h"
#include "support/rng.h"
#include "workloads/app_driver.h"
#include "workloads/crypto/aes.h"
#include "workloads/httpd.h"
#include "workloads/nvm.h"

namespace lzperf {
namespace {

using lz::kPageSize;
using lz::PhysAddr;
using lz::Rng;
using lz::VirtAddr;
using lz::core::Env;
using lz::workload::AppConfig;
using lz::workload::AppDriver;
using lz::workload::Mechanism;

// A scenario the program cannot build is not a measurement: stop without a
// result.
void require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "lzperf: set-up failed: %s\n", what);
    std::exit(1);
  }
}

u64 insns_retired() {
  const auto* c = lz::obs::registry().find("sim.core.insn_retired");
  return c != nullptr ? c->value() : 0;
}

// Snapshot of what a traced op region changes: registry counters and the
// decoder count of the cores it runs on.
class CountWindow {
 public:
  CountWindow(bool on, const std::vector<lz::sim::Core*>& cores)
      : on_(on), cores_(cores) {
    if (!on_) return;
    before_ = read_counts();
    for (const auto* c : cores_) decodes_ += c->decode_count();
  }
  void close(Phase& p) {
    if (!on_) return;
    for (const auto& [name, v] : diff(before_, read_counts())) {
      p.counts[name] += v;
    }
    u64 after = 0;
    for (const auto* c : cores_) after += c->decode_count();
    p.decodes += after - decodes_;
  }

 private:
  bool on_;
  std::vector<lz::sim::Core*> cores_;
  Counts before_;
  u64 decodes_ = 0;
};

// One program call's outputs, compared exactly between the program's own
// workload function and the benchmark's replay of it.
struct Batch {
  double cycles_per_op = 0;
  double checksum = 0;
  friend bool operator==(const Batch&, const Batch&) = default;
};

// Counts the ops of every batch in `batches` that differs from `ref`.
u64 mismatched_ops(const std::vector<Batch>& batches, const Batch& ref,
                   u64 ops_per_batch) {
  u64 failed = 0;
  for (const Batch& b : batches) {
    if (!(b == ref)) failed += ops_per_batch;
  }
  return failed;
}

// --- https_ttbr ----------------------------------------------------------------
// The Fig. 3 Nginx model under LightZone-TTBR. Untraced: workload::run_httpd.
// Traced: the same request loop replayed here with a span around every layer
// call; it must reproduce run_httpd's cycles per request and checksum.

constexpr int kHttpdRequests = 500;  // requests per run_httpd call
constexpr int kHttpdKeys = 64;

struct HttpdScenario {
  std::unique_ptr<AppDriver> driver;
  std::array<std::array<u8, lz::workload::crypto::kAesKeySize>, kHttpdKeys>
      keys{};
  std::array<u8, 1024> response{};

  // Mirrors run_httpd's set-up, consuming its Rng in the same order.
  HttpdScenario(const AppConfig& config, Tracer* t) {
    {
      const Scope s(t, Layer::kDriverBuild);
      driver = std::make_unique<AppDriver>(config);
    }
    Rng rng(config.seed);
    {
      const Scope s(t, Layer::kSetupDomains);
      driver->setup_domains(Env::kHeapVa, kPageSize, kHttpdKeys);
    }
    {
      const Scope s(t, Layer::kCopyToUser);
      for (int k = 0; k < kHttpdKeys; ++k) {
        for (auto& b : keys[k]) b = static_cast<u8>(rng.next());
        require(driver->env().kern().copy_to_user(
                    driver->proc(),
                    Env::kHeapVa + static_cast<u64>(k) * kPageSize,
                    keys[k].data(), keys[k].size()),
                "copy_to_user of a key");
      }
    }
    for (auto& b : response) b = static_cast<u8>(rng.next());
  }
};

class HttpsTtbr final : public Workload {
 public:
  explicit HttpsTtbr(u64 seed)
      : params_(lz::workload::HttpdParams::defaults(*config_.platform)) {
    config_.mech = Mechanism::kLzTtbr;
    config_.seed = seed;
    params_.requests = kHttpdRequests;
    params_.concurrent_keys = kHttpdKeys;
  }

  void build(Tracer* t) override { const HttpdScenario s(config_, t); }

  std::size_t span_capacity() const override { return 16 * kSpansPerBatch; }

  Phase run(Clock::time_point deadline,
            std::vector<Tracer>* tracers) override {
    Tracer* t = tracers != nullptr ? &tracers->front() : nullptr;
    Phase p;
    const u64 t0 = now_ns();
    do {
      if (t != nullptr && !t->has_room(kSpansPerBatch)) break;
      const u64 b0 = now_ns();
      const u64 i0 = insns_retired();
      if (t == nullptr) {
        const auto r = lz::workload::run_httpd(config_, params_);
        untraced_.push_back({r.cycles_per_request, r.response_checksum});
      } else {
        traced_.push_back(replay(t, p));
      }
      p.ops += kHttpdRequests;
      p.add_batch(kHttpdRequests, insns_retired() - i0, now_ns() - b0);
    } while (Clock::now() < deadline);
    p.seconds = static_cast<double>(now_ns() - t0) / 1e9;
    return p;
  }

  u64 verify() override {
    Phase scratch;
    const Batch ref = traced_.empty() ? replay(nullptr, scratch) : traced_[0];
    // A reference replay that failed its own checks vouches for nothing.
    if (scratch.failed > 0) return untraced_.size() * kHttpdRequests;
    return mismatched_ops(untraced_, ref, kHttpdRequests) +
           mismatched_ops(traced_, ref, kHttpdRequests);
  }

 private:
  // Spans per request: the op, 2 charge groups, 2 x 37 gate switches,
  // 2 x 37 key reads and one AES pass; plus the scenario build.
  static constexpr std::size_t kSpansPerBatch = 152 * kHttpdRequests + 8;

  // run_httpd's request loop with the key check it leaves out: the bytes
  // fetched through the gate must be the key installed for that domain.
  Batch replay(Tracer* t, Phase& p) {
    namespace crypto = lz::workload::crypto;
    HttpdScenario s(config_, t);
    AppDriver& driver = *s.driver;
    auto& machine = driver.machine();
    auto& core = machine.core();
    auto& lz = *driver.lz();
    CountWindow window(t != nullptr, {&core});
    const lz::Cycles start = machine.cycles();
    double checksum = 0;
    for (int r = 0; r < kHttpdRequests; ++r) {
      const Scope op(t, Layer::kOp);
      bool ok = true;
      const int key_id = r % kHttpdKeys;
      {
        const Scope c(t, Layer::kCharge);
        machine.charge(lz::sim::CostKind::kDispatch,
                       driver.domain_setup_cost());
        driver.charge_syscalls(params_.syscalls_per_request);
      }
      const VirtAddr key_va =
          Env::kHeapVa + static_cast<u64>(key_id) * kPageSize;
      for (int call = 0; call < params_.gated_crypto_calls; ++call) {
        {
          const Scope g(t, Layer::kGateSwitch);
          ok &= lz.lz_switch_to_ttbr_gate(key_id + 1).is_ok();
        }
        lz::sim::Core::MemResult lo, hi;
        {
          const Scope m(t, Layer::kMemRead);
          lo = core.mem_read(key_va, 8);
        }
        {
          const Scope m(t, Layer::kMemRead);
          hi = core.mem_read(key_va + 8, 8);
        }
        u8 key[crypto::kAesKeySize];
        std::memcpy(key, &lo.value, 8);
        std::memcpy(key + 8, &hi.value, 8);
        ok &= lo.ok && hi.ok &&
              std::memcmp(key, s.keys[key_id].data(), sizeof(key)) == 0;
        {
          const Scope g(t, Layer::kGateSwitch);
          ok &= lz.lz_switch_to_ttbr_gate(0).is_ok();
        }
        if (call == 0) {
          const Scope a(t, Layer::kAes);
          const auto expanded = crypto::aes_expand_key(key);
          u8 iv[crypto::kAesBlockSize] = {};
          iv[0] = static_cast<u8>(r);
          u8 buf[1024];
          std::memcpy(buf, s.response.data(), sizeof(buf));
          crypto::aes_cbc_encrypt(expanded, iv, buf, sizeof(buf));
          checksum += buf[0] + buf[512] + buf[1023];
        }
      }
      {
        const Scope c(t, Layer::kCharge);
        driver.charge_tlb_misses(params_.tlb_misses_per_request);
        driver.charge_app(params_.app_cycles_per_request);
      }
      if (!ok) ++p.failed;
    }
    const lz::Cycles cycles = machine.cycles() - start;
    p.sim_cycles += cycles;
    window.close(p);
    return {static_cast<double>(cycles) / kHttpdRequests, checksum};
  }

  AppConfig config_;
  lz::workload::HttpdParams params_;
  std::vector<Batch> untraced_, traced_;
};

// --- nvm_pan -------------------------------------------------------------------
// The Fig. 5 NVM search under LightZone-PAN. Untraced: workload::run_nvm.
// Traced: its search loop replayed here with spans.

constexpr int kNvmSearches = 50'000;  // searches per run_nvm call
constexpr int kNvmBuffers = 8;
// The resident content run_nvm installs in every buffer (workloads/nvm.cpp).
constexpr char kHaystack[] =
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua";
constexpr char kNeedle[] = "dolore";

struct NvmScenario {
  std::unique_ptr<AppDriver> driver;

  NvmScenario(const AppConfig& config, Tracer* t) {
    {
      const Scope s(t, Layer::kDriverBuild);
      driver = std::make_unique<AppDriver>(config);
    }
    {
      const Scope s(t, Layer::kSetupDomains);
      driver->setup_domains(Env::kHeapVa, kPageSize, kNvmBuffers);
    }
    const Scope s(t, Layer::kCopyToUser);
    for (int b = 0; b < kNvmBuffers; ++b) {
      require(driver->env().kern().copy_to_user(
                  driver->proc(),
                  Env::kHeapVa + static_cast<u64>(b) * kPageSize, kHaystack,
                  sizeof(kHaystack)),
              "copy_to_user of a buffer");
    }
  }
};

class NvmPan final : public Workload {
 public:
  explicit NvmPan(u64 seed) {
    config_.mech = Mechanism::kLzPan;
    config_.seed = seed;
    params_.searches = kNvmSearches;
    params_.buffers = kNvmBuffers;
  }

  void build(Tracer* t) override { const NvmScenario s(config_, t); }

  std::size_t span_capacity() const override { return 2 * kSpansPerBatch; }

  Phase run(Clock::time_point deadline,
            std::vector<Tracer>* tracers) override {
    Tracer* t = tracers != nullptr ? &tracers->front() : nullptr;
    Phase p;
    const u64 t0 = now_ns();
    do {
      if (t != nullptr && !t->has_room(kSpansPerBatch)) break;
      const u64 b0 = now_ns();
      const u64 i0 = insns_retired();
      if (t == nullptr) {
        const auto r = lz::workload::run_nvm(config_, params_);
        untraced_.push_back(
            {r.cycles_per_search, static_cast<double>(r.matches)});
      } else {
        traced_.push_back(replay(t, p));
      }
      p.ops += kNvmSearches;
      p.add_batch(kNvmSearches, insns_retired() - i0, now_ns() - b0);
    } while (Clock::now() < deadline);
    p.seconds = static_cast<double>(now_ns() - t0) / 1e9;
    return p;
  }

  u64 verify() override {
    Phase scratch;
    const Batch ref = traced_.empty() ? replay(nullptr, scratch) : traced_[0];
    if (scratch.failed > 0) return untraced_.size() * kNvmSearches;
    return mismatched_ops(untraced_, ref, kNvmSearches) +
           mismatched_ops(traced_, ref, kNvmSearches);
  }

 private:
  // Spans per search: the op, 2 PAN toggles, kReads reads, the substring
  // search and one charge group; plus the scenario build.
  static constexpr std::size_t kReads = (sizeof(kHaystack) + 7) / 8;
  static constexpr std::size_t kSpansPerBatch =
      (5 + kReads) * kNvmSearches + 8;

  // run_nvm's search loop, checking each window against the installed
  // content. Every buffer holds the needle, so every search must match.
  Batch replay(Tracer* t, Phase& p) {
    NvmScenario s(config_, t);
    AppDriver& driver = *s.driver;
    auto& machine = driver.machine();
    auto& core = machine.core();
    auto& lz = *driver.lz();
    Rng rng(config_.seed);
    CountWindow window(t != nullptr, {&core});
    u64 matches = 0;
    const lz::Cycles start = machine.cycles();
    for (int i = 0; i < kNvmSearches; ++i) {
      const Scope op(t, Layer::kOp);
      bool ok = true;
      const int b = static_cast<int>(rng.below(kNvmBuffers));
      const VirtAddr va = Env::kHeapVa + static_cast<u64>(b) * kPageSize;
      {
        const Scope pan(t, Layer::kPanToggle);
        lz.set_pan(false);
      }
      char win[sizeof(kHaystack)];
      for (u64 off = 0; off < sizeof(kHaystack); off += 8) {
        lz::sim::Core::MemResult r;
        {
          const Scope m(t, Layer::kMemRead);
          r = core.mem_read(va + off, 8);
        }
        ok &= r.ok;
        std::memcpy(win + off, &r.value,
                    std::min<u64>(8, sizeof(kHaystack) - off));
      }
      win[sizeof(kHaystack) - 1] = '\0';
      ok &= std::memcmp(win, kHaystack, sizeof(kHaystack)) == 0;
      {
        const Scope f(t, Layer::kSearch);
        if (std::strstr(win, kNeedle) != nullptr) {
          ++matches;
        } else {
          ok = false;
        }
      }
      {
        const Scope c(t, Layer::kCharge);
        driver.charge_app(
            rng.range(params_.search_cycles_min, params_.search_cycles_max));
        driver.charge_tlb_misses(params_.tlb_misses_per_search,
                                 /*huge_pages=*/true);
      }
      {
        const Scope pan(t, Layer::kPanToggle);
        lz.set_pan(true);
      }
      if (!ok) ++p.failed;
    }
    const lz::Cycles cycles = machine.cycles() - start;
    p.sim_cycles += cycles;
    window.close(p);
    return {static_cast<double>(cycles) / kNvmSearches,
            static_cast<double>(matches)};
  }

  AppConfig config_;
  lz::workload::NvmParams params_;
  std::vector<Batch> untraced_, traced_;
};

// --- guest_kernels -------------------------------------------------------------
// Guest A64 code through Core::run on a 2-core machine, one host thread per
// simulated core. Every core runs the same round: three kernels from one
// shared code page, each cut into fixed-size Core::run slices. A round starts
// from a flushed TLB and reset registers, so every round of a core is the
// same simulated work, and a tier-off replay of one round is the reference
// for the steps and cycles of every slice.

constexpr unsigned kGuestCores = 2;
constexpr VirtAddr kCodeVa = 0x400000;
constexpr VirtAddr kChaseVa = 0x500000;
constexpr VirtAddr kSwitchVa = 0x600000;
constexpr unsigned kChasePages = 8;
constexpr unsigned kChaseSlots = 4;  // chain nodes per page
constexpr u64 kSliceSteps = u64{1} << 18;

struct Kernel {
  Layer layer;
  u64 iters;           // loop iterations (the instruction budget)
  VirtAddr entry = 0;  // filled in when the code page is assembled
};

class GuestScenario {
 public:
  GuestScenario(u64 seed, const std::array<Kernel, 3>& budget)
      : kernels_(budget),
        machine_(std::make_unique<lz::sim::Machine>(
            lz::arch::Platform::cortex_a55(), seed, kGuestCores)) {
    auto& pm = machine_->mem();
    lz::sim::Asm a;
    // straight_line: 16 dependent ALU ops + loop control.
    kernels_[0].entry = kCodeVa + a.size_bytes();
    auto loop = a.new_label();
    a.bind(loop);
    for (int i = 0; i < 4; ++i) {
      a.add_reg(3, 1, 2);
      a.eor_reg(4, 3, 1);
      a.add_imm(3, 3, 7);
      a.orr_reg(4, 4, 2);
    }
    a.sub_imm(0, 0, 1);
    a.cbnz(0, loop);
    a.svc(0);
    // pointer_chase: x1 = [x1] along a cycle through kChasePages pages.
    kernels_[1].entry = kCodeVa + a.size_bytes();
    loop = a.new_label();
    a.bind(loop);
    a.ldr(1, 1);
    a.sub_imm(0, 0, 1);
    a.cbnz(0, loop);
    a.svc(0);
    // domain_switch: bare TTBR0 writes between two ASIDs, a load in each.
    kernels_[2].entry = kCodeVa + a.size_bytes();
    loop = a.new_label();
    a.bind(loop);
    a.msr(lz::arch::SysReg::kTtbr0El1, 5);
    a.ldr(2, 3);
    a.msr(lz::arch::SysReg::kTtbr0El1, 6);
    a.ldr(2, 4);
    a.sub_imm(0, 0, 1);
    a.cbnz(0, loop);
    a.svc(0);
    const PhysAddr code_pa = pm.alloc_frame();
    a.install(pm, code_pa);

    lz::mem::S1Attrs code;
    code.read_only = true;
    code.pxn = false;
    const lz::mem::S1Attrs data;  // privileged read/write
    Rng rng(seed);
    for (unsigned c = 0; c < kGuestCores; ++c) {
      PerCore pc;
      auto a_tbl = std::make_unique<lz::mem::Stage1Table>(
          pm, static_cast<u16>(1 + c));
      auto b_tbl = std::make_unique<lz::mem::Stage1Table>(
          pm, static_cast<u16>(1 + kGuestCores + c));
      require(a_tbl->map(kCodeVa, code_pa, code).is_ok(), "map code");
      require(b_tbl->map(kCodeVa, code_pa, code).is_ok(), "map code");
      std::array<PhysAddr, kChasePages> frames{};
      for (unsigned p = 0; p < kChasePages; ++p) {
        frames[p] = pm.alloc_frame();
        require(a_tbl->map(kChaseVa + p * kPageSize, frames[p], data).is_ok(),
                "map chase page");
      }
      require(a_tbl->map(kSwitchVa, pm.alloc_frame(), data).is_ok(),
              "map switch page");
      require(b_tbl->map(kSwitchVa, pm.alloc_frame(), data).is_ok(),
              "map switch page");
      // A seeded cyclic order over every chain node.
      std::array<unsigned, kChasePages * kChaseSlots> order{};
      for (unsigned i = 0; i < order.size(); ++i) order[i] = i;
      for (unsigned i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.below(i + 1)]);
      }
      const auto node_va = [](unsigned n) {
        return kChaseVa + (n / kChaseSlots) * kPageSize +
               (n % kChaseSlots) * 512;
      };
      for (unsigned i = 0; i < order.size(); ++i) {
        const unsigned n = order[i];
        const unsigned next = order[(i + 1) % order.size()];
        pm.write(frames[n / kChaseSlots] + (n % kChaseSlots) * 512, 8,
                 node_va(next));
      }
      pc.chase_head = node_va(order[0]);
      pc.alu_a = rng.next();
      pc.alu_b = rng.next();
      pc.ttbr_a = a_tbl->ttbr();
      pc.ttbr_b = b_tbl->ttbr();
      auto& core = machine_->core(c);
      core.pstate().el = lz::arch::ExceptionLevel::kEl1;
      pc.pstate = core.pstate();
      core.set_handler(lz::arch::ExceptionLevel::kEl1,
                       [](const lz::sim::TrapInfo&) {
                         return lz::sim::TrapAction::kStop;
                       });
      tables_.push_back(std::move(a_tbl));
      tables_.push_back(std::move(b_tbl));
      cores_.push_back(pc);
    }
  }

  lz::sim::Machine& machine() { return *machine_; }

  struct Round {
    std::vector<u64> log;  // steps and cycles per slice, register digests
    bool clean = true;     // every kernel ended at its SVC
    friend bool operator==(const Round&, const Round&) = default;
  };

  // One round on core `c` (the calling thread must be bound to it). Logs
  // each slice's steps and cycles and a digest of each kernel's final
  // registers; adds slices to p.ops and guest steps to p.steps.
  Round round(unsigned c, Tracer* t, Phase& p) {
    auto& core = machine_->core(c);
    auto& account = machine_->account(c);
    const PerCore& pc = cores_[c];
    Round out;
    machine_->tlb(c).invalidate_all();
    for (const Kernel& k : kernels_) {
      core.pstate() = pc.pstate;
      core.set_sysreg(lz::arch::SysReg::kTtbr0El1, pc.ttbr_a);
      for (unsigned r = 0; r < 31; ++r) core.set_x(r, 0);
      core.set_x(0, k.iters);
      core.set_x(1, k.layer == Layer::kRunPointerChase ? pc.chase_head
                                                       : pc.alu_a);
      core.set_x(2, pc.alu_b);
      core.set_x(3, kSwitchVa);
      core.set_x(4, kSwitchVa);
      core.set_x(5, pc.ttbr_a);
      core.set_x(6, pc.ttbr_b);
      core.set_pc(k.entry);
      for (;;) {
        const Scope op(t, Layer::kOp);
        const lz::Cycles c0 = account.total();
        lz::sim::RunResult r;
        {
          const Scope run(t, k.layer);
          r = core.run(kSliceSteps);
        }
        out.log.push_back(r.steps);
        out.log.push_back(account.total() - c0);
        p.sim_cycles += account.total() - c0;
        p.steps[k.layer] += r.steps;
        ++p.ops;
        if (r.reason != lz::sim::StopReason::kMaxSteps) {
          out.clean &= r.reason == lz::sim::StopReason::kHandlerStop;
          break;
        }
      }
      u64 digest = core.pc();
      for (unsigned r = 0; r < 31; ++r) {
        digest = digest * 0x100000001b3ULL ^ core.x(r);
      }
      out.log.push_back(digest);
    }
    return out;
  }

 private:
  struct PerCore {
    u64 ttbr_a = 0, ttbr_b = 0;
    VirtAddr chase_head = 0;
    u64 alu_a = 0, alu_b = 0;
    lz::arch::PState pstate;
  };
  std::array<Kernel, 3> kernels_;
  std::unique_ptr<lz::sim::Machine> machine_;
  std::vector<std::unique_ptr<lz::mem::Stage1Table>> tables_;
  std::vector<PerCore> cores_;
};

class GuestKernels final : public Workload {
 public:
  explicit GuestKernels(u64 seed) : seed_(seed) {}

  void build(Tracer*) override { const GuestScenario s(seed_, kBudget); }
  unsigned threads() const override { return kGuestCores; }
  std::size_t span_capacity() const override { return 1 << 17; }

  Phase run(Clock::time_point deadline,
            std::vector<Tracer>* tracers) override {
    GuestScenario s(seed_, kBudget);
    std::vector<lz::sim::Core*> cores;
    for (unsigned c = 0; c < kGuestCores; ++c) {
      cores.push_back(&s.machine().core(c));
    }
    CountWindow window(tracers != nullptr, cores);
    std::vector<Phase> per_core(kGuestCores);
    const u64 t0 = now_ns();
    {
      std::vector<std::jthread> workers;
      for (unsigned c = 0; c < kGuestCores; ++c) {
        workers.emplace_back([&, c] {
          const lz::sim::Machine::CoreBinding bind(s.machine(), c);
          Tracer* t = tracers != nullptr ? &(*tracers)[c] : nullptr;
          Phase& q = per_core[c];
          do {
            if (t != nullptr && !t->has_room(kSpansPerRound)) break;
            const u64 b0 = now_ns();
            const u64 ops0 = q.ops;
            u64 steps0 = 0;
            for (const auto& [layer, n] : q.steps) steps0 += n;
            rounds_[c].push_back(s.round(c, t, q));
            u64 steps1 = 0;
            for (const auto& [layer, n] : q.steps) steps1 += n;
            q.add_batch(q.ops - ops0, steps1 - steps0, now_ns() - b0);
          } while (Clock::now() < deadline);
        });
      }
    }
    Phase p;
    p.seconds = static_cast<double>(now_ns() - t0) / 1e9;
    p.threads = kGuestCores;
    for (const Phase& q : per_core) {
      p.ops += q.ops;
      p.sim_cycles += q.sim_cycles;
      for (const auto& [layer, steps] : q.steps) p.steps[layer] += steps;
      p.op_rates.insert(p.op_rates.end(), q.op_rates.begin(), q.op_rates.end());
      p.insn_rates.insert(p.insn_rates.end(), q.insn_rates.begin(),
                          q.insn_rates.end());
    }
    window.close(p);
    return p;
  }

  // Replays one round per core with the trace tier off; every recorded
  // round must match it slice for slice, and end every kernel at its SVC.
  u64 verify() override {
    GuestScenario ref(seed_, kBudget);
    u64 failed = 0;
    for (unsigned c = 0; c < kGuestCores; ++c) {
      ref.machine().core(c).set_trace_tier(false);
      const lz::sim::Machine::CoreBinding bind(ref.machine(), c);
      Phase scratch;
      const auto want = ref.round(c, nullptr, scratch);
      for (const auto& got : rounds_[c]) {
        if (!want.clean || !(got == want)) failed += scratch.ops;
      }
    }
    return failed;
  }

 private:
  // Sized so each kernel takes about a third of a round on a 4-vCPU x86
  // host at the seed (see WORKLOADS.md).
  static constexpr std::array<Kernel, 3> kBudget = {{
      {Layer::kRunStraightLine, 3'000'000},
      {Layer::kRunPointerChase, 4'000'000},
      {Layer::kRunDomainSwitch, 50'000},
  }};
  // Two spans per slice; a round is about 260 slices.
  static constexpr std::size_t kSpansPerRound = 2 * 512;

  u64 seed_;
  std::array<std::vector<GuestScenario::Round>, kGuestCores> rounds_;
};

// --- table2_churn --------------------------------------------------------------
// The Table-2 control plane: one LightZone-TTBR process on a 2-core machine,
// driven from one host thread, creating and destroying one key domain per
// op for the life of the process.

constexpr unsigned kChurnPages = 4;
constexpr int kChurnGate = 1;

struct ChurnScenario {
  std::unique_ptr<Env> env;
  std::optional<lz::core::LzProc> lz;
  std::array<VirtAddr, kChurnPages> pages{};
  std::array<u64, kChurnPages> pattern{};

  ChurnScenario(u64 seed, Tracer* t) {
    {
      const Scope s(t, Layer::kDriverBuild);
      env = std::make_unique<Env>(Env::Options()
                                      .platform(lz::arch::Platform::cortex_a55())
                                      .cores(2)
                                      .seed(seed));
    }
    auto& proc = env->new_process();
    Rng rng(seed);
    // kChurnPages distinct heap pages among the first 64, in seeded order.
    std::array<u64, 64> idx{};
    for (u64 i = 0; i < idx.size(); ++i) idx[i] = i;
    for (unsigned i = 0; i < kChurnPages; ++i) {
      std::swap(idx[i], idx[i + rng.below(idx.size() - i)]);
      pages[i] = Env::kHeapVa + idx[i] * kPageSize;
      pattern[i] = rng.next();
    }
    {
      const Scope s(t, Layer::kCopyToUser);
      for (unsigned i = 0; i < kChurnPages; ++i) {
        require(env->kern().copy_to_user(proc, pages[i], &pattern[i], 8),
                "copy_to_user of a churn page");
      }
    }
    const Scope s(t, Layer::kSetupDomains);
    lz.emplace(lz::core::LzProc::enter(*env->module, proc,
                                       /*allow_scalable=*/true,
                                       /*insn_san=*/1));
    auto& module = lz->module();
    auto& ctx = lz->ctx();
    require(module.map_gate_pgt(ctx, 0, 0).is_ok(), "map gate 0");
    require(module.set_gate_entry(ctx, 0, entry()).is_ok(), "gate 0 entry");
    for (const VirtAddr va : pages) {
      require(module.touch_page(ctx, va, false, false).is_ok(),
              "fault in a churn page");
    }
    lz->enter_world();
    auto& core = env->machine->core(0);
    core.pstate().el = lz::arch::ExceptionLevel::kEl1;
    core.set_sysreg(lz::arch::SysReg::kTtbr0El1, module.domain_ttbr(ctx, 0));
    core.set_sysreg(lz::arch::SysReg::kTtbr1El1, ctx.ctx.ttbr1);
    core.set_sysreg(lz::arch::SysReg::kVbarEl1, ctx.ctx.vbar);
  }

  ~ChurnScenario() {
    if (lz && lz->module().active() == &lz->ctx()) lz->exit_world();
  }

  static VirtAddr entry() { return Env::kCodeVa + 0x40; }
};

class Table2Churn final : public Workload {
 public:
  explicit Table2Churn(u64 seed) : seed_(seed) {}

  void build(Tracer* t) override { const ChurnScenario s(seed_, t); }
  std::size_t span_capacity() const override { return 1 << 21; }

  Phase run(Clock::time_point deadline,
            std::vector<Tracer>* tracers) override {
    Tracer* t = tracers != nullptr ? &tracers->front() : nullptr;
    ChurnScenario s(seed_, nullptr);
    auto& lz = *s.lz;
    auto& module = lz.module();
    auto& ctx = lz.ctx();
    auto& machine = *s.env->machine;
    auto& core = machine.core(0);
    auto& log = runs_.emplace_back();
    CountWindow window(t != nullptr, {&core});
    Phase p;
    const u64 t0 = now_ns();
    do {
      if (t != nullptr && !t->has_room(kSpansPerBatch)) break;
      const u64 b0 = now_ns();
      const u64 i0 = insns_retired();
      for (int i = 0; i < kOpsPerBatch; ++i) {
        const unsigned slot = static_cast<unsigned>(p.ops % kChurnPages);
        const VirtAddr va = s.pages[slot];
        const lz::Cycles c0 = machine.cycles();
        const Scope op(t, Layer::kOp);
        const char* failed_check = nullptr;
        const auto check = [&](bool cond, const char* what) {
          if (!cond && failed_check == nullptr) failed_check = what;
        };
        lz::Result<int> pgt = -1;
        {
          const Scope x(t, Layer::kAlloc);
          pgt = lz.lz_alloc();
        }
        check(pgt.is_ok(), "lz_alloc");
        u64 value = 0;
        int asid = -1;
        if (pgt.is_ok()) {
          asid = ctx.pgts[*pgt].tbl->asid();
          {
            const Scope x(t, Layer::kProt);
            check(lz.lz_prot(va, kPageSize, *pgt,
                             lz::core::kLzRead | lz::core::kLzWrite)
                      .is_ok(),
                  "lz_prot");
          }
          {
            const Scope x(t, Layer::kGateMap);
            check(lz.lz_map_gate_pgt(*pgt, kChurnGate).is_ok(),
                  "lz_map_gate_pgt");
            check(lz.lz_set_gate_entry(kChurnGate, ChurnScenario::entry())
                      .is_ok(),
                  "lz_set_gate_entry");
          }
          {
            const Scope x(t, Layer::kFaultIn);
            check(module.touch_page(ctx, va, false, false).is_ok(),
                  "fault-in");
          }
          {
            const Scope x(t, Layer::kGateSwitch);
            check(lz.lz_switch_to_ttbr_gate(kChurnGate).is_ok(), "switch in");
          }
          {
            const Scope x(t, Layer::kMemRead);
            const auto r = core.mem_read(va, 8);
            check(r.ok && r.value == s.pattern[slot], "read in the domain");
            value = r.value;
          }
          {
            const Scope x(t, Layer::kGateSwitch);
            check(lz.lz_switch_to_ttbr_gate(0).is_ok(), "switch out");
          }
          {
            // Back in the default domain the page must be out of reach.
            const Scope x(t, Layer::kProbe);
            check(!core.translate(va, lz::sim::AccessType::kRead, false).ok,
                  "isolation probe: the default domain could read the "
                  "domain's page");
          }
          {
            const Scope x(t, Layer::kFree);
            check(lz.lz_free(*pgt).is_ok(), "lz_free");
          }
        }
        const bool ok = failed_check == nullptr;
        if (!ok) report(p.ops, failed_check, asid, ctx.pgts[0].tbl->asid());
        const lz::Cycles cycles = machine.cycles() - c0;
        log.push_back(lz::Rng(cycles ^ (value * 0x9e3779b97f4a7c15ULL) ^
                              (ok ? 0 : 1))
                          .next());
        p.sim_cycles += cycles;
        ++p.ops;
        if (!ok) ++p.failed;
      }
      p.add_batch(kOpsPerBatch, insns_retired() - i0, now_ns() - b0);
    } while (Clock::now() < deadline);
    p.seconds = static_cast<double>(now_ns() - t0) / 1e9;
    window.close(p);
    return p;
  }

  // Both phases start from the same fresh process, so the ops they have in
  // common must match in cycles, value read and outcome.
  u64 verify() override {
    if (runs_.size() < 2) return 0;
    const auto& a = runs_[0];
    const auto& b = runs_[1];
    u64 failed = 0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      if (a[i] != b[i]) ++failed;
    }
    return failed;
  }

 private:
  static constexpr int kOpsPerBatch = 1024;
  static constexpr std::size_t kSpansPerBatch = 12 * kOpsPerBatch;

  // Names the first failed check of an op on stderr, with the ASIDs of the
  // op's table (-1 if lz_alloc failed) and of the default table: a shared
  // ASID lets the default domain hit the domain's stale TLB entries.
  void report(u64 op, const char* what, int asid, u16 default_asid) {
    if (++reported_ > kMaxReports) return;
    std::fprintf(stderr,
                 "lzperf: table2_churn op %llu failed: %s (lz_alloc #%llu of "
                 "the process after lz_enter; its table has ASID %d, the "
                 "default table %u)\n",
                 static_cast<unsigned long long>(op), what,
                 static_cast<unsigned long long>(op + 1), asid, default_asid);
  }
  static constexpr int kMaxReports = 8;

  u64 seed_;
  int reported_ = 0;
  // Per phase, a digest of each op's cycles, value read and outcome.
  std::vector<std::vector<u64>> runs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed) {
  if (name == "https_ttbr") return std::make_unique<HttpsTtbr>(seed);
  if (name == "nvm_pan") return std::make_unique<NvmPan>(seed);
  if (name == "guest_kernels") return std::make_unique<GuestKernels>(seed);
  if (name == "table2_churn") return std::make_unique<Table2Churn>(seed);
  return nullptr;
}

}  // namespace lzperf
