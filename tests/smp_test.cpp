// SMP machine tests: DVM broadcast shootdown across cores, per-core ASID
// residency of the LightZone domain tables, deterministic totals under the
// multi-threaded scheduler, and the Status-based Table-2 API error paths.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "lightzone/api.h"
#include "sim/machine.h"
#include "workloads/microbench.h"

namespace lz::core {
namespace {

using sim::CostKind;
using sim::Machine;

mem::TlbEntry make_entry(u64 vpage, u16 asid, u16 vmid) {
  mem::TlbEntry e;
  e.valid = true;
  e.vpage = vpage;
  e.asid = asid;
  e.vmid = vmid;
  e.ppage = 0x1000;
  e.ipa_page = 0x1000 >> 12;
  return e;
}

// A stale translation cached on a remote core must die when another core
// issues the broadcast invalidate (TLBI VAE1IS semantics): this is the
// break-before-make obligation the kernel's munmap/mprotect path relies on.
TEST(SmpMachineTest, RemoteCoreShootdownRemovesStaleEntry) {
  Machine machine(arch::Platform::cortex_a55(), /*seed=*/42, /*cores=*/4);
  const u64 vpage = 0x400;
  machine.tlb(3).insert(make_entry(vpage, /*asid=*/7, /*vmid=*/2));
  ASSERT_TRUE(machine.tlb(3).lookup(vpage, 7, 2, 0).has_value());

  {
    Machine::CoreBinding bind(machine, 0);  // initiator is core 0
    machine.tlbi_va_is(vpage, /*asid=*/7, /*vmid=*/2);
  }

  EXPECT_FALSE(machine.tlb(3).lookup(vpage, 7, 2, 0).has_value());
  // The initiating core pays the interconnect cost; the victim pays nothing.
  EXPECT_GT(machine.account(0).of(CostKind::kTlbi), 0u);
  EXPECT_EQ(machine.account(3).of(CostKind::kTlbi), 0u);
}

TEST(SmpMachineTest, BroadcastCostScalesWithCoreCount) {
  const auto& plat = arch::Platform::cortex_a55();
  Machine m2(plat, 42, 2), m4(plat, 42, 4);
  m2.tlbi_all_is();
  m4.tlbi_all_is();
  const Cycles c2 = m2.account(0).of(CostKind::kTlbi);
  const Cycles c4 = m4.account(0).of(CostKind::kTlbi);
  EXPECT_EQ(c2, plat.dvm_bcast_base + plat.dvm_bcast_per_core);
  EXPECT_EQ(c4, plat.dvm_bcast_base + 3 * plat.dvm_bcast_per_core);
}

// Single-core machines must keep their calibrated Table 4/5 numbers: the
// "broadcast" degenerates to the local invalidate at zero extra cost.
TEST(SmpMachineTest, SingleCoreBroadcastIsFree) {
  Machine machine(arch::Platform::cortex_a55(), 42, 1);
  machine.tlb(0).insert(make_entry(0x400, 1, 1));
  machine.tlbi_va_is(0x400, /*asid=*/1, /*vmid=*/1);
  EXPECT_FALSE(machine.tlb(0).lookup(0x400, 1, 1, 0).has_value());
  EXPECT_EQ(machine.account(0).of(CostKind::kTlbi), 0u);
}

TEST(SmpSchedulerTest, SubmitRoundRobinsAcrossCores) {
  Env env(Env::Options().platform(arch::Platform::cortex_a55()).cores(3));
  auto& kern = env.kern();
  std::vector<unsigned> placed;
  for (int i = 0; i < 6; ++i) {
    placed.push_back(kern.submit([](unsigned) {}));
  }
  EXPECT_EQ(placed, (std::vector<unsigned>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(kern.queued_tasks(), 6u);
  kern.schedule();
  EXPECT_EQ(kern.queued_tasks(), 0u);
}

// Two worker threads charging disjoint per-core work must produce the same
// machine total on every run: the per-core accounts are only ever touched
// by their owning thread and addition over the counters commutes.
TEST(SmpSchedulerTest, DeterministicTotalsUnderTwoThreads) {
  const auto run = []() -> Cycles {
    Env env(Env::Options().platform(arch::Platform::cortex_a55()).cores(2));
    auto& machine = *env.machine;
    for (unsigned w = 0; w < 2; ++w) {
      env.kern().run_on(w, [&machine, w](unsigned core_id) {
        EXPECT_EQ(core_id, w);
        for (int i = 0; i < 5000; ++i) {
          machine.charge(CostKind::kWorkload, 10 + core_id);
        }
      });
    }
    env.kern().schedule();
    return machine.cycles();
  };
  const Cycles a = run();
  const Cycles b = run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, Cycles{5000} * 10 + Cycles{5000} * 11);
}

// The SMP Table-5 program: each core runs its own LightZone process with
// per-page-table ASIDs, so gate switches stay TLB-resident per core — high
// hit rates on every core, none of them polluted by the neighbours.
TEST(SmpSchedulerTest, PerCoreAsidResidencyUnderConcurrentSwitching) {
  const auto stats = workload::switch_avg_cycles_smp(
      arch::Platform::cortex_a55(), workload::Placement::kHost, /*cores=*/2,
      /*domains=*/8, /*iters=*/600);
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_GT(s.avg_cycles, 0.0);
    EXPECT_GT(s.lookups, 0u);
    // Warmed gates + ASID tagging: the switch loop should hit far more
    // often than it misses on its own core's TLB.
    EXPECT_GT(s.hit_rate, 0.5);
  }
  // And deterministically so.
  const auto again = workload::switch_avg_cycles_smp(
      arch::Platform::cortex_a55(), workload::Placement::kHost, 2, 8, 600);
  for (unsigned c = 0; c < 2; ++c) {
    EXPECT_DOUBLE_EQ(stats[c].avg_cycles, again[c].avg_cycles);
    EXPECT_EQ(stats[c].lookups, again[c].lookups);
  }
}

class StatusApiTest : public ::testing::Test {
 protected:
  StatusApiTest()
      : env(Env::Options().platform(arch::Platform::cortex_a55())),
        proc(env.new_process()),
        lz(LzProc::enter(*env.module, proc, /*allow_scalable=*/true,
                         /*insn_san=*/1)) {}

  Env env;
  kernel::Process& proc;
  LzProc lz;
};

TEST_F(StatusApiTest, ProtWithDeadPgtReportsNoPgt) {
  EXPECT_EQ(lz.lz_prot(Env::kHeapVa, kPageSize, /*pgt=*/7, kLzRead).errc(),
            Errc::kNoPgt);
  EXPECT_EQ(lz.lz_free(7).errc(), Errc::kNoPgt);
  EXPECT_EQ(lz.lz_map_gate_pgt(/*pgt=*/7, /*gate=*/0).errc(), Errc::kNoPgt);
}

TEST_F(StatusApiTest, ProtValidatesTheRange) {
  const int pgt = lz.lz_alloc().value();
  // Unaligned and empty ranges.
  EXPECT_EQ(lz.lz_prot(Env::kHeapVa + 1, kPageSize, pgt, kLzRead).errc(),
            Errc::kBadRange);
  EXPECT_EQ(lz.lz_prot(Env::kHeapVa, 0, pgt, kLzRead).errc(),
            Errc::kBadRange);
  // A range already owned by another domain cannot be re-attached.
  ASSERT_TRUE(lz.lz_prot(Env::kHeapVa, kPageSize, pgt, kLzRead).is_ok());
  const int other = lz.lz_alloc().value();
  EXPECT_EQ(lz.lz_prot(Env::kHeapVa, kPageSize, other, kLzRead).errc(),
            Errc::kBadRange);
}

TEST_F(StatusApiTest, GateIdsAreValidated) {
  const int pgt = lz.lz_alloc().value();
  const int bad = static_cast<int>(lz.ctx().opts().max_gates);
  EXPECT_EQ(lz.lz_map_gate_pgt(pgt, bad).errc(), Errc::kBadGate);
  EXPECT_EQ(lz.lz_map_gate_pgt(pgt, -1).errc(), Errc::kBadGate);
  EXPECT_EQ(lz.lz_set_gate_entry(bad, Env::kCodeVa).errc(), Errc::kBadGate);
}

TEST_F(StatusApiTest, SwitchThroughUnregisteredGateReportsNoGate) {
  lz.enter_world();
  // Gate 5 exists but has neither entry nor table: kNoGate.
  const auto r = lz.lz_switch_to_ttbr_gate(5);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().errc(), Errc::kNoGate);
  // Out-of-range id: kBadGate.
  const auto r2 = lz.lz_switch_to_ttbr_gate(
      static_cast<int>(lz.ctx().opts().max_gates));
  ASSERT_FALSE(r2.is_ok());
  EXPECT_EQ(r2.status().errc(), Errc::kBadGate);
  lz.exit_world();
}

TEST_F(StatusApiTest, Table2ShimsSpeakErrno) {
  EXPECT_EQ(table2::lz_alloc(lz), 1);  // pgt ids start at 1 (0 = default)
  EXPECT_EQ(table2::lz_prot(lz, Env::kHeapVa, kPageSize, 1, kLzRead), 0);
  EXPECT_EQ(table2::lz_free(lz, 1), 0);
  // Errors arrive as the classic negative errnos.
  EXPECT_EQ(table2::lz_free(lz, 99), -22);
  EXPECT_EQ(table2::lz_prot(lz, Env::kHeapVa + 1, kPageSize, 0, kLzRead),
            -22);
  EXPECT_EQ(table2::lz_map_gate_pgt(lz, 0, 100000), -22);
  EXPECT_EQ(table2::lz_set_gate_entry(lz, 100000, Env::kCodeVa), -22);
}

// The cycle ledger is a lock-free sum over per-core shards: four workers
// bound to four cores charge a known per-kind pattern while a fifth thread
// reads the total. Reads never go backwards, and after the join the ledger
// and every per-kind total are exact. Under the TSan leg this doubles as
// the data-race proof for the single-writer shard protocol, and in
// LZ_CONF_CHECK builds the shard tripwire is armed throughout.
TEST(SmpLedgerTest, ConcurrentChargesSumExactlyUnderAReader) {
  constexpr unsigned kCores = 4;
  constexpr u64 kRounds = 200000;
  Machine machine(arch::Platform::cortex_a55(), /*seed=*/42, kCores);
  const auto& ledger = obs::cycle_ledger();
  const u64 total0 = ledger.total();
  std::array<u64, sim::kNumCostKinds> kind0{};
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) kind0[k] = ledger.of(k);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    u64 last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const u64 now = ledger.total() - total0;
      EXPECT_GE(now, last);
      last = now;
    }
  });
  std::vector<std::thread> workers;
  for (unsigned c = 0; c < kCores; ++c) {
    workers.emplace_back([&machine, c] {
      Machine::CoreBinding bind(machine, c);
      for (u64 i = 0; i < kRounds; ++i) {
        machine.charge(static_cast<CostKind>((i + c) % sim::kNumCostKinds),
                       c + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  std::array<u64, sim::kNumCostKinds> expected{};
  u64 expected_total = 0;
  for (unsigned c = 0; c < kCores; ++c) {
    for (u64 i = 0; i < kRounds; ++i)
      expected[(i + c) % sim::kNumCostKinds] += c + 1;
    expected_total += kRounds * (c + 1);
  }
  EXPECT_EQ(machine.cycles(), expected_total);
  EXPECT_EQ(ledger.total() - total0, expected_total);
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k)
    EXPECT_EQ(ledger.of(k) - kind0[k], expected[k]) << "kind " << k;
}

// Shard storage is a fixed pool owned by the ledger: a Machine that dies
// releases its accounts' shards for the next one, so 1,000 sequential
// Machines never raise the high-water mark past the peak number of live
// accounts.
TEST(SmpLedgerTest, SequentialMachinesReuseLedgerShards) {
  const auto& plat = arch::Platform::cortex_a55();
  const auto& ledger = obs::cycle_ledger();
  const std::size_t before = ledger.high_water();
  { Machine first(plat, 42, 4); }
  const std::size_t peak = ledger.high_water();
  EXPECT_LE(peak, before + 4);
  for (u64 i = 0; i < 1000; ++i) {
    Machine machine(plat, 42 + i, 4);
    machine.charge(CostKind::kWorkload, 1);
  }
  EXPECT_EQ(ledger.high_water(), peak);
}

// Back-to-back scenarios in one binary must not bleed counters into each
// other's reports: Env snapshots the process-global registry on
// construction and counters_delta() reports only what moved since.
TEST(SmpObsTest, CountersDeltaIsScopedPerEnv) {
  const auto tlb_lookups = [](const obs::Snapshot& snap) {
    u64 n = 0;
    for (const auto& [name, value] : snap) {
      if (name == "mem.tlb.l1_hit" || name == "mem.tlb.l2_hit" ||
          name == "mem.tlb.miss") {
        n += value;
      }
    }
    return n;
  };
  const auto work = [](Env& env) {
    auto& proc = env.new_process();
    LZ_CHECK_OK(env.kern().populate_page(
        proc, Env::kHeapVa, kernel::kProtRead | kernel::kProtWrite));
    env.kern().load_ctx(proc, env.machine->core());
    env.machine->core().pstate().el = arch::ExceptionLevel::kEl0;
    for (int i = 0; i < 64; ++i) {
      (void)env.machine->core().mem_read(Env::kHeapVa, 8);
    }
  };
  Env e1(Env::Options().platform(arch::Platform::cortex_a55()));
  work(e1);
  const u64 n1 = tlb_lookups(e1.counters_delta());
  EXPECT_GT(n1, 0u);

  Env e2(Env::Options().platform(arch::Platform::cortex_a55()));
  work(e2);
  // e2's delta covers e2's work only — not the accumulated process totals.
  EXPECT_EQ(tlb_lookups(e2.counters_delta()), n1);
  // And e1's delta now includes e2's work (shared global registry), which
  // is exactly why scenarios must read their own Env's delta.
  EXPECT_GE(tlb_lookups(e1.counters_delta()), 2 * n1);
}

}  // namespace
}  // namespace lz::core
