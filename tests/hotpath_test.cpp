// Hot-path coherence tests: the per-core L0 translation cache must be
// architecturally invisible — every TLBI flavour (local and remote DVM
// broadcast), every translation-context change and every PSTATE.PAN toggle
// must reach through it, while a bare TTBR0 rewrite (LightZone's §4.1.2
// domain switch) may still legally hit the *main* TLB. Plus the decoded-page
// cache (no re-decode of a hot loop no matter how many distinct words run),
// the batched-accounting flush contract, and the lock-free PhysMem radix.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <thread>
#include <vector>

#include "check/bbm.h"
#include "lightzone/api.h"
#include "lightzone/gate.h"
#include "mem/phys_mem.h"
#include "mem/tlb.h"
#include "obs/counters.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/assembler.h"
#include "sim/machine.h"

namespace lz::sim {
namespace {

using arch::ExceptionClass;
using arch::ExceptionLevel;
using mem::S1Attrs;
using mem::TlbEntry;

constexpr VirtAddr kCodeVa = 0x400000;
constexpr VirtAddr kDataVa = 0x500000;
constexpr VirtAddr kFillVa = 0x800000;

S1Attrs CodeAttrs() {
  S1Attrs a;
  a.user = false;
  a.read_only = true;
  a.pxn = false;
  return a;
}

S1Attrs DataAttrs(bool user = false) {
  S1Attrs a;
  a.user = user;
  return a;
}

class HotPathTest : public ::testing::Test {
 protected:
  explicit HotPathTest(unsigned cores = 1)
      : machine(arch::Platform::cortex_a55(), /*seed=*/42, cores) {}

  // EL1 execution context under one stage-1 table, stage-2 off.
  void UseTable(mem::Stage1Table& t, unsigned core_id = 0) {
    auto& core = machine.core(core_id);
    core.set_sysreg(SysReg::kTtbr0El1, t.ttbr());
    core.pstate().el = ExceptionLevel::kEl1;
  }

  // Warm one VA into the TLB and the L0: first translate misses and
  // refills, second is served by the L0 (counted as a micro-TLB hit).
  PhysAddr Warm(VirtAddr va, unsigned core_id = 0) {
    auto& core = machine.core(core_id);
    auto t1 = core.translate(va, AccessType::kRead, false);
    EXPECT_TRUE(t1.ok);
    auto t2 = core.translate(va, AccessType::kRead, false);
    EXPECT_TRUE(t2.ok);
    EXPECT_EQ(t1.pa, t2.pa);
    return t2.pa;
  }

  Machine machine;
};

// --- L0 invalidation coherence ----------------------------------------------
// Shape shared by the TLBI flavours: warm a translation (TLB refill + L0
// install), remap the page in the live table, issue the TLBI, and check the
// next translate walks the *new* tables. A stale L0 hit would return the
// old frame and would be counted as a micro-TLB hit instead of a miss.

class L0InvalidationTest : public HotPathTest {
 protected:
  void SetUp() override {
    tbl = std::make_unique<mem::Stage1Table>(machine.mem(), /*asid=*/1);
    frame_a = machine.mem().alloc_frame();
    frame_b = machine.mem().alloc_frame();
    LZ_CHECK_OK(tbl->map(kDataVa, frame_a, DataAttrs()));
    UseTable(*tbl);
  }

  // Remap kDataVa from frame_a to frame_b without telling the TLB.
  void Remap() {
    LZ_CHECK_OK(tbl->unmap(kDataVa));
    LZ_CHECK_OK(tbl->map(kDataVa, frame_b, DataAttrs()));
  }

  void ExpectFreshWalkAfterInvalidate() {
    const auto before = machine.tlb(0).stats();
    auto t = machine.core(0).translate(kDataVa, AccessType::kRead, false);
    const auto after = machine.tlb(0).stats();
    EXPECT_TRUE(t.ok);
    EXPECT_EQ(t.pa, frame_b);  // stale L0/TLB data would still say frame_a
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.l1_hits, before.l1_hits);
  }

  std::unique_ptr<mem::Stage1Table> tbl;
  PhysAddr frame_a = 0, frame_b = 0;
};

TEST_F(L0InvalidationTest, TlbiVae1ReachesL0) {
  EXPECT_EQ(Warm(kDataVa), frame_a);
  Remap();
  machine.tlb(0).invalidate_va(kDataVa >> kPageShift, /*asid=*/1, /*vmid=*/0);
  ExpectFreshWalkAfterInvalidate();
}

TEST_F(L0InvalidationTest, TlbiAside1ReachesL0) {
  EXPECT_EQ(Warm(kDataVa), frame_a);
  Remap();
  machine.tlb(0).invalidate_asid(/*asid=*/1, /*vmid=*/0);
  ExpectFreshWalkAfterInvalidate();
}

TEST_F(L0InvalidationTest, TlbiVmalle1ReachesL0) {
  EXPECT_EQ(Warm(kDataVa), frame_a);
  Remap();
  machine.tlb(0).invalidate_vmid(/*vmid=*/0);
  ExpectFreshWalkAfterInvalidate();
}

TEST_F(L0InvalidationTest, TlbiAllReachesL0) {
  EXPECT_EQ(Warm(kDataVa), frame_a);
  Remap();
  machine.tlb(0).invalidate_all();
  ExpectFreshWalkAfterInvalidate();
}

// The generation substrate itself: every invalidation flavour advances it,
// and refilling over a live aliasing entry advances it too (some core may
// have memoized the overwritten entry).
TEST(TlbGenerationTest, InvalidationsAndLiveEvictionsAdvanceGeneration) {
  mem::Tlb tlb(16, 64, /*seed=*/1);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x400;
  e.asid = 1;
  e.ppage = 0x4000'0000;
  e.s1_root = 0x4000'2000;

  const u64 g0 = tlb.generation();
  tlb.insert(e);  // fresh fill into empty slots: no live entry disturbed
  EXPECT_EQ(tlb.generation(), g0);

  TlbEntry e2 = e;
  e2.ppage = 0x4000'1000;
  const u64 g1 = tlb.insert(e2);  // overwrites the live aliasing entry
  EXPECT_GT(g1, g0);

  u64 g = tlb.generation();
  tlb.invalidate_va(0x400, 1, 0);
  EXPECT_GT(tlb.generation(), g);
  g = tlb.generation();
  tlb.invalidate_asid(1, 0);
  EXPECT_GT(tlb.generation(), g);
  g = tlb.generation();
  tlb.invalidate_vmid(0);
  EXPECT_GT(tlb.generation(), g);
  g = tlb.generation();
  tlb.invalidate_va_all_asid(0x400, 0);
  EXPECT_GT(tlb.generation(), g);
  g = tlb.generation();
  tlb.invalidate_all();
  EXPECT_GT(tlb.generation(), g);
}

// Remote DVM broadcast (TLBI VAE1IS from another core) must invalidate this
// core's L0 as well — the generation counter is the cross-core channel.
class RemoteDvmTest : public HotPathTest {
 protected:
  RemoteDvmTest() : HotPathTest(/*cores=*/2) {}
};

TEST_F(RemoteDvmTest, BroadcastShootdownReachesRemoteL0) {
  mem::Stage1Table tbl(machine.mem(), /*asid=*/1);
  const PhysAddr frame_a = machine.mem().alloc_frame();
  const PhysAddr frame_b = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl.map(kDataVa, frame_a, DataAttrs()));
  UseTable(tbl, /*core_id=*/0);

  EXPECT_EQ(Warm(kDataVa, /*core_id=*/0), frame_a);

  LZ_CHECK_OK(tbl.unmap(kDataVa));
  LZ_CHECK_OK(tbl.map(kDataVa, frame_b, DataAttrs()));
  {
    // Core 1 issues the broadcast invalidate over the modelled DVM
    // interconnect; core 0 never touches its own TLB.
    Machine::CoreBinding bind(machine, 1);
    machine.tlbi_va_is(kDataVa >> kPageShift, /*asid=*/1, /*vmid=*/0);
  }

  const auto before = machine.tlb(0).stats();
  auto t = machine.core(0).translate(kDataVa, AccessType::kRead, false);
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(t.pa, frame_b);
  EXPECT_EQ(machine.tlb(0).stats().misses, before.misses + 1);
}

// A bare TTBR0 rewrite (same ASID, no TLBI — the §4.1.2 domain-switch fast
// path) must miss the L0 (context epoch changed) but may architecturally
// still hit the main TLB's stale-but-matching entry. After a TLBI ASIDE1
// the new table takes effect.
TEST_F(HotPathTest, BareTtbr0RewriteMissesL0ButMayHitMainTlb) {
  mem::Stage1Table tbl_a(machine.mem(), /*asid=*/1);
  mem::Stage1Table tbl_b(machine.mem(), /*asid=*/1);
  const PhysAddr frame_a = machine.mem().alloc_frame();
  const PhysAddr frame_b = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl_a.map(kDataVa, frame_a, DataAttrs()));
  LZ_CHECK_OK(tbl_b.map(kDataVa, frame_b, DataAttrs()));
  UseTable(tbl_a);

  EXPECT_EQ(Warm(kDataVa), frame_a);
  const auto warm = machine.tlb(0).stats();
  EXPECT_EQ(warm.misses, 1u);
  EXPECT_EQ(warm.l1_hits, 1u);  // the L0 hit, committed as a micro-TLB hit

  // Switch tables without invalidating. The TLB still holds (vpage, asid 1)
  // derived from table A, and serving it is architecturally legal.
  machine.core(0).set_sysreg(SysReg::kTtbr0El1, tbl_b.ttbr());
  auto t = machine.core(0).translate(kDataVa, AccessType::kRead, false);
  const auto stale = machine.tlb(0).stats();
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(t.pa, frame_a);                    // legal stale main-TLB hit
  EXPECT_EQ(stale.l1_hits, warm.l1_hits + 1);  // served by the real TLB
  EXPECT_EQ(stale.misses, warm.misses);

  // The conventional switch (TLBI after rewrite) exposes table B.
  machine.tlb(0).invalidate_asid(/*asid=*/1, /*vmid=*/0);
  t = machine.core(0).translate(kDataVa, AccessType::kRead, false);
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(t.pa, frame_b);
  EXPECT_EQ(machine.tlb(0).stats().misses, stale.misses + 1);
}

// PSTATE.PAN is compared directly by the L0: toggling it re-runs the full
// permission check (privileged access to a user page flips between OK and
// permission fault), and toggling it back may legally re-hit the L0.
TEST_F(HotPathTest, PanToggleRechecksPermissions) {
  mem::Stage1Table tbl(machine.mem(), /*asid=*/1);
  const PhysAddr frame = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl.map(kDataVa, frame, DataAttrs(/*user=*/true)));
  UseTable(tbl);
  auto& core = machine.core(0);

  core.pstate().pan = false;
  EXPECT_EQ(Warm(kDataVa), frame);  // privileged read of user page, PAN clear

  core.pstate().pan = true;
  auto t = core.translate(kDataVa, AccessType::kRead, false);
  EXPECT_FALSE(t.ok);
  EXPECT_TRUE(t.permission);

  core.pstate().pan = false;
  t = core.translate(kDataVa, AccessType::kRead, false);
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(t.pa, frame);
}

// --- Cached translation context ---------------------------------------------

TEST_F(HotPathTest, CachedAsidVmidFollowSysregWrites) {
  auto& core = machine.core(0);
  core.set_sysreg(SysReg::kTtbr0El1, mem::make_ttbr(0x4000'2000, /*asid=*/7));
  EXPECT_EQ(core.current_asid(), 7u);
  EXPECT_FALSE(core.stage2_enabled());
  EXPECT_EQ(core.current_vmid(), 0u);  // stage-2 off: VMID pinned to 0

  // VTTBR alone does nothing until HCR_EL2.VM turns stage-2 on.
  core.set_sysreg(SysReg::kVttbrEl2, mem::make_vttbr(0x4000'3000, /*vmid=*/9));
  EXPECT_EQ(core.current_vmid(), 0u);
  core.set_sysreg(SysReg::kHcrEl2, arch::hcr::kVm);
  EXPECT_TRUE(core.stage2_enabled());
  EXPECT_EQ(core.current_vmid(), 9u);

  core.set_sysreg(SysReg::kTtbr0El1, mem::make_ttbr(0x4000'2000, /*asid=*/3));
  EXPECT_EQ(core.current_asid(), 3u);
  core.set_sysreg(SysReg::kHcrEl2, 0);
  EXPECT_FALSE(core.stage2_enabled());
  EXPECT_EQ(core.current_vmid(), 0u);
}

// --- Decoded-page cache ------------------------------------------------------

class DecodeCacheTest : public HotPathTest {
 protected:
  explicit DecodeCacheTest(unsigned cores = 1) : HotPathTest(cores) {}

  void InstallCode(Asm& a, S1Attrs attrs = CodeAttrs()) {
    tbl = std::make_unique<mem::Stage1Table>(machine.mem(), /*asid=*/1);
    code_pa = machine.mem().alloc_frame();
    a.install(machine.mem(), code_pa);
    LZ_CHECK_OK(tbl->map(kCodeVa, code_pa, attrs));
    UseTable(*tbl);
    machine.core(0).set_pc(kCodeVa);
    machine.core(0).set_handler(ExceptionLevel::kEl1, [](const TrapInfo&) {
      return TrapAction::kStop;
    });
  }

  std::unique_ptr<mem::Stage1Table> tbl;
  PhysAddr code_pa = 0;
};

TEST_F(DecodeCacheTest, HotLoopDecodesEachWordOnce) {
  Asm a;
  auto loop = a.new_label();
  a.movz(1, 500);
  a.bind(loop);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  const auto r = core.run(10'000);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.decode_count(), a.insn_count());  // one decode per word

  core.set_pc(kCodeVa);
  core.run(10'000);
  EXPECT_EQ(core.decode_count(), a.insn_count());  // second run: all cached
}

TEST_F(DecodeCacheTest, SelfModifyingCodeRedecodes) {
  Asm a;
  a.movz(0, 111);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  core.run(10);
  EXPECT_EQ(core.x(0), 111u);
  const u64 d = core.decode_count();

  // Patch the movz in place (host-side write, as a JIT or loader would).
  machine.mem().write(code_pa, 4, arch::enc::movz(0, 222));
  core.set_pc(kCodeVa);
  core.run(10);
  EXPECT_EQ(core.x(0), 222u);
  EXPECT_EQ(core.decode_count(), d + 1);  // only the patched word re-decoded
}

// Regression for the old value-keyed decode cache, which wiped itself
// wholesale after 65536 distinct words: executing >65536 distinct words on
// other pages must never force a hot page to re-decode.
TEST_F(DecodeCacheTest, HotPageSurvives64KDistinctWords) {
  Asm hot;
  auto loop = hot.new_label();
  hot.movz(1, 10);
  hot.bind(loop);
  hot.sub_imm(1, 1, 1);
  hot.cbnz(1, loop);
  hot.svc(0);
  InstallCode(hot);

  auto& core = machine.core(0);
  core.run(1'000);
  const u64 after_hot = core.decode_count();
  EXPECT_EQ(after_hot, hot.insn_count());

  // 68 pages of distinct words = 69632 > 65536 decodes. The filler frames
  // must not collide with the hot page's direct-mapped decode slot (512
  // slots), so skip any frame that aliases it — collisions evicting the
  // slot would be *correct* but are not what this test pins down.
  constexpr unsigned kFillerPages = 68;
  constexpr unsigned kWordsPerPage = kPageSize / 4;
  const u64 hot_slot = page_index(code_pa) % 512;
  std::vector<PhysAddr> filler;
  while (filler.size() < kFillerPages) {
    const PhysAddr f = machine.mem().alloc_frame();
    if (page_index(f) % 512 != hot_slot) filler.push_back(f);
  }
  u32 n = 0;
  for (unsigned p = 0; p < kFillerPages; ++p) {
    std::array<u32, kWordsPerPage> words;
    for (unsigned w = 0; w < kWordsPerPage; ++w, ++n) {
      // Distinct words throughout: MOVZ x9..x12 with a running imm16.
      words[w] = arch::enc::movz(static_cast<u8>(9 + (n >> 16)),
                                 static_cast<u16>(n & 0xffff));
    }
    if (p == kFillerPages - 1) words[kWordsPerPage - 1] = arch::enc::svc(0);
    machine.mem().write_bytes(filler[p], words.data(), sizeof(words));
    LZ_CHECK_OK(tbl->map(kFillVa + u64{p} * kPageSize, filler[p], CodeAttrs()));
  }

  core.set_pc(kFillVa);  // falls straight through all 68 pages to the SVC
  const auto r = core.run(100'000);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);
  const u64 after_filler = core.decode_count();
  EXPECT_GE(after_filler - after_hot, 65537u);

  // The hot page must still be fully decoded: re-running it decodes nothing.
  core.set_pc(kCodeVa);
  core.run(1'000);
  EXPECT_EQ(core.decode_count(), after_filler);
}

// --- Batched accounting ------------------------------------------------------
// After run() returns (a flush boundary), counters, cycle totals and
// TlbStats must be exact — identical to charging every instruction
// individually.

TEST_F(DecodeCacheTest, BatchedAccountingExactAfterRun) {
  constexpr u64 kIters = 200;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.mov_imm64(3, kDataVa);
  a.bind(loop);
  a.ldr(2, 3);  // one data access per iteration
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);
  const PhysAddr data_pa = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl->map(kDataVa, data_pa, DataAttrs()));

  auto& core = machine.core(0);
  const auto r = core.run(10'000);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);

  // mov_imm64 may be several words; derive the step count from the run.
  const u64 steps = r.steps;
  const auto& plat = core.platform();
  EXPECT_EQ(core.account().of(CostKind::kInsn), steps * plat.insn_base);
  EXPECT_EQ(core.account().of(CostKind::kMem), kIters * plat.mem_access);

  const auto stats = machine.tlb(0).stats();
  EXPECT_EQ(stats.lookups(), steps + kIters);  // one fetch each + the loads
  EXPECT_EQ(stats.misses, 2u);                 // code page + data page
  EXPECT_EQ(stats.l2_hits, 0u);
  EXPECT_EQ(stats.l1_hits, steps + kIters - 2);
}

// Two identical machines run the same program to identical counters and
// cycle totals — the batched flush cannot depend on host timing.
TEST(HotPathDeterminismTest, BatchedRunsAreReproducible) {
  auto run_once = [](u64* cycles, mem::TlbStats* stats) {
    Machine m(arch::Platform::cortex_a55(), /*seed=*/42);
    mem::Stage1Table tbl(m.mem(), /*asid=*/1);
    const PhysAddr code = m.mem().alloc_frame();
    Asm a;
    auto loop = a.new_label();
    a.movz(1, 300);
    a.bind(loop);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, loop);
    a.svc(0);
    a.install(m.mem(), code);
    LZ_CHECK_OK(tbl.map(kCodeVa, code, CodeAttrs()));
    auto& core = m.core(0);
    core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
    core.pstate().el = ExceptionLevel::kEl1;
    core.set_pc(kCodeVa);
    core.set_handler(ExceptionLevel::kEl1,
                     [](const TrapInfo&) { return TrapAction::kStop; });
    core.run(10'000);
    *cycles = core.account().total();
    *stats = m.tlb(0).stats();
  };
  u64 c1 = 0, c2 = 0;
  mem::TlbStats s1, s2;
  run_once(&c1, &s1);
  run_once(&c2, &s2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(s1.l1_hits, s2.l1_hits);
  EXPECT_EQ(s1.misses, s2.misses);
}

// The entire observability stack is observe-only: arming the event trace,
// the sampling profiler, and the PMU must not move a single simulated
// cycle. Guards the lock-free hot path against instrumentation costs
// leaking into the cost model.
TEST(HotPathDeterminismTest, ObservabilityOffCycleIdentity) {
  auto run_once = [](bool observed) {
    obs::reset_all();
    if (observed) {
      obs::trace().arm(256);
      obs::profiler().arm(64);
    } else {
      obs::trace().disarm();
      obs::profiler().disarm();
    }
    Machine m(arch::Platform::cortex_a55(), /*seed=*/42);
    mem::Stage1Table tbl(m.mem(), /*asid=*/1);
    const PhysAddr code = m.mem().alloc_frame();
    Asm a;
    auto loop = a.new_label();
    a.movz(1, 500);
    a.mov_imm64(3, kDataVa);
    a.bind(loop);
    a.ldr(2, 3);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, loop);
    a.svc(0);
    a.install(m.mem(), code);
    LZ_CHECK_OK(tbl.map(kCodeVa, code, CodeAttrs()));
    LZ_CHECK_OK(tbl.map(kDataVa, m.mem().alloc_frame(), DataAttrs()));
    auto& core = m.core(0);
    core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
    core.pstate().el = ExceptionLevel::kEl1;
    core.set_pc(kCodeVa);
    core.set_handler(ExceptionLevel::kEl1,
                     [](const TrapInfo&) { return TrapAction::kStop; });
    if (observed) {
      namespace pmu = arch::pmu;
      core.set_sysreg(SysReg::kPmccfiltrEl0, pmu::kFiltNsh);
      core.set_sysreg(SysReg::kPmcntensetEl0,
                      pmu::kCntenCycle | pmu::kCntenMask);
      core.set_sysreg(SysReg::kPmevtyper0El0, pmu::kEvtInstRetired);
      core.set_sysreg(SysReg::kPmevtyper1El0, pmu::kEvtL1dTlbRefill);
      core.set_sysreg(SysReg::kPmcrEl0, pmu::kPmcrE);
    }
    core.run(10'000);
    const u64 total = core.account().total();
    obs::trace().disarm();
    obs::profiler().disarm();
    obs::reset_all();
    return total;
  };
  const u64 quiet = run_once(false);
  const u64 observed = run_once(true);
  EXPECT_EQ(quiet, observed);
}

// --- PhysMem radix -----------------------------------------------------------

TEST(PhysMemRadixTest, InRamAndOverflowRoundTrip) {
  mem::PhysMem pm(0x4000'0000, u64{1} << 20);  // 256 in-radix pages
  pm.write(0x4000'0000, 8, 0x1122334455667788ull);
  EXPECT_EQ(pm.read(0x4000'0000, 8), 0x1122334455667788ull);
  // Past the end of RAM: served by the overflow map, still zero-initialised.
  const PhysAddr beyond = 0x4000'0000 + (u64{1} << 20) + 0x2340;
  EXPECT_EQ(pm.read(beyond, 4), 0u);
  pm.write(beyond, 4, 0xdeadbeef);
  EXPECT_EQ(pm.read(beyond, 4), 0xdeadbeefu);
}

TEST(PhysMemRadixTest, ConcurrentFirstTouchReads) {
  mem::PhysMem pm(0x4000'0000, u64{64} << 20);
  // Hammer first-touch page materialisation from several threads at once:
  // each thread owns a disjoint stripe of pages, writes a pattern and reads
  // it back while the others are concurrently faulting in their own pages.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPagesPer = 64;
  std::vector<std::thread> workers;
  std::array<bool, kThreads> ok{};
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pm, &ok, t] {
      bool good = true;
      for (unsigned p = 0; p < kPagesPer; ++p) {
        const PhysAddr pa =
            0x4000'0000 + (u64{t} * kPagesPer + p) * kPageSize + 8 * t;
        pm.write(pa, 8, (u64{t} << 32) | p);
        good &= pm.read(pa, 8) == ((u64{t} << 32) | p);
      }
      ok[t] = good;
    });
  }
  for (auto& w : workers) w.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]);
}

// --- Superblock trace tier ---------------------------------------------------
// The trace tier (DESIGN.md §16) memoizes straight-line runs of decoded
// instructions and replays them with threaded-code dispatch. It must be as
// architecturally invisible as the L0/decode caches it sits on: these tests
// drive every invalidation source (own-page store mid-trace, bare
// translation-context switch, remote DVM broadcast, break-before-make remap)
// and check both the architectural results and the sim.trace.* accounting.
// Note the anti-churn backoff: after an invalidation the slot skips a couple
// of dispatch opportunities before rebuilding, so loops here run enough
// iterations to see the rebuild.

class TraceTierTest : public DecodeCacheTest {
 protected:
  explicit TraceTierTest(unsigned cores = 1) : DecodeCacheTest(cores) {
    for (unsigned c = 0; c < cores; ++c) machine.core(c).set_trace_tier(true);
  }

  const TraceStats& Stats() { return machine.core(0).trace_stats(); }

  // Writable + executable mapping for self-modifying-code tests.
  static S1Attrs RwxAttrs() {
    S1Attrs a;
    a.user = false;
    a.read_only = false;
    a.pxn = false;
    return a;
  }
};

// A store inside a trace that lands on the trace's own code page must kill
// the trace on the spot: the store itself completes, the words after it are
// re-read by the interpreter, and the invalidation is counted as SMC.
TEST_F(TraceTierTest, OwnPageStoreKillsTraceMidFlight) {
  constexpr u64 kIters = 60;
  constexpr u64 kScratchOff = 0x800;  // word on the code page, past the code
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.mov_imm64(3, kCodeVa + kScratchOff);
  a.movz(4, 0xbeef);
  a.bind(loop);
  a.str(4, 3);          // store into the trace's own page, mid-trace
  a.add_imm(2, 2, 1);   // iteration counter: proves every op still retires
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a, RwxAttrs());

  auto& core = machine.core(0);
  const auto r = core.run(10'000);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), kIters);
  EXPECT_EQ(machine.mem().read(code_pa + kScratchOff, 8), 0xbeefu);
  EXPECT_GE(Stats().built, 1u);
  EXPECT_GE(Stats().invalidated_smc, 1u);
}

// A bare TTBR0 rewrite (LightZone's §4.1.2 domain switch) bumps the
// translation-context epoch: the trace built under the old epoch must miss
// its tags on the next dispatch and be rebuilt, with results unchanged.
TEST_F(TraceTierTest, BareTtbr0RewriteInvalidatesByEpoch) {
  constexpr u64 kIters = 200;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), kIters);
  EXPECT_GE(Stats().built, 1u);
  EXPECT_GE(Stats().executed, 1u);
  const u64 gen0 = Stats().invalidated_gen;
  const u64 built0 = Stats().built;

  // Same root, same ASID — but any TTBR0 write opens a new context epoch.
  core.set_sysreg(SysReg::kTtbr0El1, tbl->ttbr());
  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_GE(Stats().invalidated_gen, gen0 + 1);  // old trace died by tag
  EXPECT_GE(Stats().built, built0 + 1);          // and was rebuilt
}

// A TLBI issued by the core that owns the traces drops them eagerly via the
// Machine teardown hook (counted separately from dispatch-time tag misses).
TEST_F(TraceTierTest, LocalTlbiTearsDownTraces) {
  constexpr u64 kIters = 100;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_GE(Stats().built, 1u);

  machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  EXPECT_GE(Stats().invalidated_teardown, 1u);

  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
}

class TraceTierRemoteTest : public TraceTierTest {
 protected:
  TraceTierRemoteTest() : TraceTierTest(2) {}
};

// A DVM shootdown broadcast from another core must invalidate this core's
// traces without touching them cross-thread: the initiating core only drops
// its own, and the victim's trace dies at dispatch by its generation tag.
TEST_F(TraceTierRemoteTest, RemoteDvmShootdownInvalidatesByGeneration) {
  constexpr u64 kIters = 150;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_GE(Stats().built, 1u);
  const u64 gen0 = Stats().invalidated_gen;
  const u64 teardown0 = Stats().invalidated_teardown;

  std::thread([&] {
    Machine::CoreBinding bind(machine, 1);
    machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  }).join();

  // The broadcast must not have reached into core 0's trace store directly —
  // only core 0 retires its own traces, at its next dispatch.
  EXPECT_EQ(Stats().invalidated_teardown, teardown0);

  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_GE(Stats().invalidated_gen, gen0 + 1);
}

// A clean break-before-make remap of the code page (unmap, scoped TLBI,
// remap) keeps the BBM monitor quiet and merely rebuilds the trace.
TEST_F(TraceTierTest, CleanBbmRemapRebuildsQuietly) {
  check::BbmMonitor::install();
  check::BbmMonitor::instance().reset();
  constexpr u64 kIters = 120;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_GE(Stats().built, 1u);
  const u64 built0 = Stats().built;

  // Break-before-make: unmap, TLBI scoped to the right ASID (tlbi_va_is
  // completes with a DSB), then map the same frame back.
  LZ_CHECK_OK(tbl->unmap(kCodeVa));
  machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  LZ_CHECK_OK(tbl->map(kCodeVa, code_pa, CodeAttrs()));
  EXPECT_EQ(check::BbmMonitor::instance().stats().violations, 0u);

  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_GE(Stats().built, built0 + 1);  // rebuilt over the remapped page
  check::BbmMonitor::instance().reset();
}

// A load inside a trace can move the Tlb generation itself: its main-TLB
// hit promotes into the full micro-TLB, and random replacement may evict
// the block's own fetch translation. The interpreter then fetches the next
// instruction through a main-TLB lookup (an L2 hit, not a micro-TLB hit),
// so the trace must hand the rest of the block back instead of keeping its
// pre-summed fetch hits: tier-on and tier-off runs agree on every TLB
// statistic and every cycle.
TEST(TraceTierExactnessTest, MicroTlbEvictionMidBlockMatchesInterpreter) {
  constexpr unsigned kPages = 24;  // more than the 16-entry micro-TLB
  constexpr u64 kIters = 200;
  struct Outcome {
    mem::TlbStats tlb;
    Cycles cycles = 0;
    u64 iters = 0;
    u64 trace_execs = 0;
  };
  const auto run = [](bool tier) {
    Machine machine(arch::Platform::cortex_a55(), /*seed=*/42, 1);
    auto& core = machine.core(0);
    core.set_trace_tier(tier);
    mem::Stage1Table tbl(machine.mem(), /*asid=*/1);
    Asm a;
    auto loop = a.new_label();
    a.movz(1, kIters);
    a.movz(6, kPageSize);
    a.bind(loop);  // one block: every load may promote into the micro-TLB
    a.mov_imm64(3, kFillVa);
    for (unsigned p = 0; p < kPages; ++p) {
      a.ldr(5, 3);
      a.add_reg(3, 3, 6);
    }
    a.add_imm(2, 2, 1);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, loop);
    a.svc(0);
    const PhysAddr code_pa = machine.mem().alloc_frame();
    a.install(machine.mem(), code_pa);
    LZ_CHECK_OK(tbl.map(kCodeVa, code_pa, CodeAttrs()));
    for (unsigned p = 0; p < kPages; ++p) {
      LZ_CHECK_OK(tbl.map(kFillVa + p * kPageSize, machine.mem().alloc_frame(),
                          DataAttrs()));
    }
    core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
    core.pstate().el = ExceptionLevel::kEl1;
    core.set_pc(kCodeVa);
    core.set_handler(ExceptionLevel::kEl1,
                     [](const TrapInfo&) { return TrapAction::kStop; });
    EXPECT_EQ(core.run(1'000'000).reason, StopReason::kHandlerStop);
    return Outcome{machine.tlb(0).stats(), machine.cycles(), core.x(2),
                   core.trace_stats().executed};
  };
  const Outcome on = run(true);
  const Outcome off = run(false);
  EXPECT_EQ(on.iters, kIters);
  EXPECT_EQ(off.iters, kIters);
  EXPECT_GT(on.trace_execs, 0u);
  EXPECT_GT(on.tlb.l2_hits, 0u);
  EXPECT_EQ(on.tlb.l1_hits, off.tlb.l1_hits);
  EXPECT_EQ(on.tlb.l2_hits, off.tlb.l2_hits);
  EXPECT_EQ(on.tlb.misses, off.tlb.misses);
  EXPECT_EQ(on.cycles, off.cycles);
}


// --- Call gate stepping (Core::run_until) ------------------------------------
// run_until steps to the gate's target with the stop and bound handling of
// the top-level step() loop it replaced. Both must leave identical
// simulated state behind: cycles per kind, retired instructions, TLB
// statistics and counters, and every PMU counter.

struct GateOutcome {
  bool reached = false;
  u64 pc = 0;
  Cycles cycles = 0;
  std::array<Cycles, kNumCostKinds> by_kind{};
  std::array<u64, kNumCostKinds> ledger{};
  u64 insn_retired = 0;
  std::array<u64, 4> tlb_counters{};  // mem.tlb.{l1_hit,l2_hit,miss,invalidation}
  mem::TlbStats tlb;
  u64 pmccntr = 0;
  std::array<u64, arch::pmu::kNumCounters> pmevcntr{};
};

u64 CounterValue(const char* name) {
  return obs::registry().counter(name).value();
}

// Drives a real call gate twice (cold, then warm) on a fresh Env, either
// through run_until or through the top-level step() loop it replaced.
GateOutcome DriveGate(bool via_run_until) {
  namespace pmu = arch::pmu;
  core::Env env(core::Env::Options().platform(arch::Platform::cortex_a55()));
  auto& proc = env.new_process();
  core::LzProc lz = core::LzProc::enter(*env.module, proc, true, 1);
  const int pgt = lz.lz_alloc().value();
  LZ_CHECK_OK(lz.lz_prot(core::Env::kHeapVa, kPageSize, pgt,
                         core::kLzRead | core::kLzWrite));
  LZ_CHECK_OK(lz.lz_map_gate_pgt(pgt, 0));
  const VirtAddr entry = core::Env::kCodeVa + 0x40;
  LZ_CHECK_OK(lz.lz_set_gate_entry(0, entry));
  lz.enter_world();
  auto& core = env.machine->core();
  core.set_sysreg(SysReg::kPmccfiltrEl0, pmu::kFiltNsh);
  core.set_sysreg(SysReg::kPmcntensetEl0, pmu::kCntenMask);
  core.set_sysreg(SysReg::kPmevtyper0El0, pmu::kEvtInstRetired | pmu::kFiltNsh);
  core.set_sysreg(SysReg::kPmevtyper1El0, pmu::kEvtL1dTlbRefill | pmu::kFiltNsh);
  core.set_sysreg(SysReg::kPmevtyper2El0, pmu::kEvtCpuCycles | pmu::kFiltNsh);
  core.set_sysreg(SysReg::kPmevtyper3El0,
                  pmu::kEvtLzDomainSwitch | pmu::kFiltNsh);
  core.set_sysreg(SysReg::kPmcrEl0, pmu::kPmcrE);

  const char* const kTlbCounters[] = {"mem.tlb.l1_hit", "mem.tlb.l2_hit",
                                      "mem.tlb.miss", "mem.tlb.invalidation"};
  GateOutcome out;
  const Cycles start = core.account().total();
  std::array<Cycles, kNumCostKinds> kind0{}, ledger0{};
  for (std::size_t k = 0; k < kNumCostKinds; ++k) {
    kind0[k] = core.account().of(static_cast<CostKind>(k));
    ledger0[k] = obs::cycle_ledger().of(k);
  }
  const u64 insn0 = CounterValue("sim.core.insn_retired");
  std::array<u64, 4> tlb0{};
  for (std::size_t i = 0; i < 4; ++i) tlb0[i] = CounterValue(kTlbCounters[i]);
  env.machine->tlb().reset_stats();

  out.reached = true;
  for (int pass = 0; pass < 2; ++pass) {
    core.set_x(30, entry);
    core.set_pc(core::UpperLayout::gate_va(0));
    if (via_run_until) {
      out.reached &= core.run_until(entry, 64);
    } else {
      for (int i = 0; i < 64 && core.pc() != entry; ++i) core.step();
    }
  }
  out.pc = core.pc();
  out.cycles = core.account().total() - start;
  for (std::size_t k = 0; k < kNumCostKinds; ++k) {
    out.by_kind[k] = core.account().of(static_cast<CostKind>(k)) - kind0[k];
    out.ledger[k] = obs::cycle_ledger().of(k) - ledger0[k];
  }
  out.insn_retired = CounterValue("sim.core.insn_retired") - insn0;
  for (std::size_t i = 0; i < 4; ++i) {
    out.tlb_counters[i] = CounterValue(kTlbCounters[i]) - tlb0[i];
  }
  out.tlb = env.machine->tlb().stats();
  out.pmccntr = core.pmu_read(SysReg::kPmccntrEl0);
  for (unsigned i = 0; i < pmu::kNumCounters; ++i) {
    out.pmevcntr[i] = core.pmu_read(static_cast<SysReg>(
        static_cast<std::size_t>(SysReg::kPmevcntr0El0) + i));
  }
  lz.exit_world();
  return out;
}

TEST(RunUntilTest, MatchesTopLevelStepLoopExactly) {
  const GateOutcome batched = DriveGate(true);
  const GateOutcome stepped = DriveGate(false);
  EXPECT_TRUE(batched.reached);
  EXPECT_EQ(batched.pc, core::Env::kCodeVa + 0x40);
  EXPECT_EQ(stepped.pc, batched.pc);
  EXPECT_GT(batched.insn_retired, 40u);  // two ~30-instruction gate runs
  EXPECT_EQ(batched.cycles, stepped.cycles);
  EXPECT_EQ(batched.by_kind, stepped.by_kind);
  EXPECT_EQ(batched.ledger, stepped.ledger);
  EXPECT_EQ(batched.insn_retired, stepped.insn_retired);
  EXPECT_EQ(batched.tlb_counters, stepped.tlb_counters);
  EXPECT_EQ(batched.tlb.l1_hits, stepped.tlb.l1_hits);
  EXPECT_EQ(batched.tlb.l2_hits, stepped.tlb.l2_hits);
  EXPECT_EQ(batched.tlb.misses, stepped.tlb.misses);
  EXPECT_EQ(batched.tlb.invalidations, stepped.tlb.invalidations);
  EXPECT_GT(batched.tlb.l1_hits, 0u);
  EXPECT_EQ(batched.pmccntr, stepped.pmccntr);
  EXPECT_EQ(batched.pmevcntr, stepped.pmevcntr);
  EXPECT_EQ(batched.pmevcntr[0], batched.insn_retired);
  EXPECT_EQ(batched.pmevcntr[3], 2u);  // one MSR TTBR0 per gate run
}

class RunUntilStopTest : public DecodeCacheTest {
 protected:
  Cycles Insn() const { return machine.platform().insn_base; }
};

// A gate that trips its brk stops run_until short of the target, and the
// counters are already flushed when it returns.
TEST_F(RunUntilStopTest, BrkStopsWithCountersFlushed) {
  Asm a;
  a.movz(1, 1);
  a.movz(2, 2);
  a.brk(0);
  a.movz(3, 3);  // the target: never reached
  InstallCode(a);  // EL1 handler stops the core
  auto& core = machine.core(0);
  core.tlb().reset_stats();
  const u64 insn0 = CounterValue("sim.core.insn_retired");
  const Cycles excp0 = core.account().of(CostKind::kExcp);

  EXPECT_FALSE(core.run_until(kCodeVa + 12, 64));
  EXPECT_EQ(core.x(3), 0u);
  EXPECT_EQ(core.account().of(CostKind::kInsn), 3 * Insn());
  EXPECT_GT(core.account().of(CostKind::kExcp), excp0);
  EXPECT_EQ(CounterValue("sim.core.insn_retired") - insn0, 3u);
  const auto stats = core.tlb().stats();
  EXPECT_EQ(stats.lookups(), 3u);  // one fetch per instruction
  EXPECT_EQ(stats.l1_hits, 2u);
}

TEST_F(RunUntilStopTest, StepBoundStopsShortOfTheTarget) {
  Asm a;
  auto loop = a.new_label();
  a.bind(loop);
  a.b(loop);
  InstallCode(a);
  auto& core = machine.core(0);
  EXPECT_FALSE(core.run_until(kCodeVa + 4, 10));
  EXPECT_EQ(core.account().of(CostKind::kInsn), 10 * Insn());
}

// Nested in a trap handler, run_until must neither clear the enclosing
// run()'s pending stop nor drop one raised inside it: the outer run stops
// when the handler returns, even though the handler resumes.
TEST_F(RunUntilStopTest, NestedRunKeepsTheOuterStopRequest) {
  Asm a;
  a.svc(0);       // +0: into the handler below
  a.movz(9, 99);  // +4: the outer run must never get here
  a.brk(0);       // +8: first nested snippet: stops inside run_until
  a.nop();        // +12
  a.movz(4, 4);   // +16: second nested snippet, reaches +20
  a.movz(9, 99);  // +20: target, then where a cleared stop would resume
  a.brk(0);
  InstallCode(a);
  auto& core = machine.core(0);
  bool first = false, second = false;
  core.set_handler(ExceptionLevel::kEl1, [&](const TrapInfo& info) {
    if (info.ec == ExceptionClass::kBrk64) return TrapAction::kStop;
    core.set_pc(kCodeVa + 8);
    first = core.run_until(kCodeVa + 12, 8);
    core.set_pc(kCodeVa + 16);
    second = core.run_until(kCodeVa + 20, 8);
    return TrapAction::kResume;
  });
  const auto r = core.run(100);
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);
  EXPECT_EQ(r.steps, 1u);  // the svc; the nested steps are the handler's
  EXPECT_EQ(core.x(4), 4u);
  EXPECT_EQ(core.x(9), 0u);
}

// Nested in a trap handler the steps ride the enclosing run()'s batch;
// run_until's exit flush lands them, so a handler measuring a cycle delta
// around it (as exec_gate_switch does) sees every instruction.
TEST_F(RunUntilStopTest, NestedRunFlushesItsStepsAtExit) {
  Asm a;
  a.svc(0);      // +0: into the handler below
  a.brk(0);      // +4: the outer run stops here after the handler
  a.movz(1, 1);  // +8: nested snippet
  a.movz(2, 2);
  a.movz(3, 3);
  a.nop();       // +20: target
  InstallCode(a);
  auto& core = machine.core(0);
  Cycles insn_delta = 0;
  u64 retired_delta = 0;
  core.set_handler(ExceptionLevel::kEl1, [&](const TrapInfo& info) {
    if (info.ec == ExceptionClass::kBrk64) return TrapAction::kStop;
    const Cycles insn0 = core.account().of(CostKind::kInsn);
    const u64 retired0 = CounterValue("sim.core.insn_retired");
    core.set_pc(kCodeVa + 8);
    EXPECT_TRUE(core.run_until(kCodeVa + 20, 8));
    insn_delta = core.account().of(CostKind::kInsn) - insn0;
    retired_delta = CounterValue("sim.core.insn_retired") - retired0;
    core.set_pc(kCodeVa + 4);
    return TrapAction::kResume;
  });
  const auto r = core.run(100);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);
  EXPECT_EQ(r.steps, 2u);  // the svc and the brk
  EXPECT_EQ(insn_delta, 3 * Insn());
  EXPECT_EQ(retired_delta, 3u);
  EXPECT_EQ(core.x(3), 3u);
}

// --- Host-side access batch (Core::HostAccessScope) ---------------------------

class HostAccessTest : public HotPathTest {
 protected:
  void SetUp() override {
    tbl = std::make_unique<mem::Stage1Table>(machine.mem(), /*asid=*/1);
    LZ_CHECK_OK(tbl->map(kDataVa, machine.mem().alloc_frame(), DataAttrs()));
    UseTable(*tbl);
  }
  Cycles Mem() const { return machine.platform().mem_access; }
  Cycles ChargedMem() { return machine.core(0).account().of(CostKind::kMem); }

  std::unique_ptr<mem::Stage1Table> tbl;
};

// A fault inside the scope takes an exception, whose entry flushes: the
// handler sees exact ledger totals and TLB statistics.
TEST_F(HostAccessTest, FaultInsideScopeSeesExactTotalsAtEntry) {
  constexpr u64 kReads = 5;
  auto& core = machine.core(0);
  core.tlb().reset_stats();
  const u64 ledger0 = obs::cycle_ledger().of(static_cast<std::size_t>(CostKind::kMem));
  const u64 l1_0 = CounterValue("mem.tlb.l1_hit");
  Cycles mem_at_entry = 0;
  u64 ledger_at_entry = 0, l1_at_entry = 0, counter_at_entry = 0;
  core.set_handler(ExceptionLevel::kEl1, [&](const TrapInfo&) {
    mem_at_entry = ChargedMem();
    ledger_at_entry =
        obs::cycle_ledger().of(static_cast<std::size_t>(CostKind::kMem));
    l1_at_entry = core.tlb().stats().l1_hits;
    counter_at_entry = CounterValue("mem.tlb.l1_hit");
    return TrapAction::kStop;
  });
  {
    const Core::HostAccessScope batch(core);
    for (u64 i = 0; i < kReads; ++i) {
      EXPECT_TRUE(core.mem_read(kDataVa + 8 * i, 8).ok);
    }
    EXPECT_EQ(ChargedMem(), 0u);  // batched, not yet charged
    EXPECT_FALSE(core.mem_read(kFillVa, 8).ok);  // unmapped: data abort
  }
  EXPECT_EQ(mem_at_entry, kReads * Mem());
  EXPECT_EQ(ledger_at_entry - ledger0, kReads * Mem());
  EXPECT_EQ(l1_at_entry, kReads - 1);  // the first read missed and walked
  EXPECT_EQ(counter_at_entry - l1_0, kReads - 1);
  EXPECT_EQ(ChargedMem(), kReads * Mem());
}

// Only the outermost scope flushes; an access outside any scope charges
// at once.
TEST_F(HostAccessTest, NestedScopesFlushOnceAtTheOutermostExit) {
  auto& core = machine.core(0);
  EXPECT_TRUE(core.mem_read(kDataVa, 8).ok);
  EXPECT_EQ(ChargedMem(), Mem());
  core.tlb().reset_stats();
  {
    const Core::HostAccessScope outer(core);
    EXPECT_TRUE(core.mem_write(kDataVa, 8, 7).ok);
    {
      const Core::HostAccessScope inner(core);
      EXPECT_EQ(core.mem_read(kDataVa, 8).value, 7u);
    }
    EXPECT_EQ(ChargedMem(), Mem());  // the inner exit flushed nothing
    // The write's L0 slot was cold: its micro-TLB lookup counts at once.
    // The read's was warm: its L0 hit credit is still pending.
    EXPECT_EQ(core.tlb().stats().l1_hits, 1u);
  }
  EXPECT_EQ(ChargedMem(), 3 * Mem());
  EXPECT_EQ(core.tlb().stats().l1_hits, 2u);
}

// With the time-series sampler armed every access keeps its own charge, so
// snapshots taken mid-loop are identical with and without the scope.
TEST(HostAccessSamplerTest, ArmedTimeSeriesIsIdenticalWithAndWithoutScope) {
  const auto run = [](bool scoped) {
    obs::reset_all();
    Machine m(arch::Platform::cortex_a55(), /*seed=*/42);
    mem::Stage1Table tbl(m.mem(), /*asid=*/1);
    LZ_CHECK_OK(tbl.map(kDataVa, m.mem().alloc_frame(), DataAttrs()));
    auto& core = m.core(0);
    core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
    core.pstate().el = ExceptionLevel::kEl1;
    obs::timeseries().arm(/*period=*/7 * m.platform().mem_access + 3);
    {
      std::optional<Core::HostAccessScope> batch;
      if (scoped) batch.emplace(core);
      for (int i = 0; i < 64; ++i) (void)core.mem_read(kDataVa + 8 * (i % 8), 8);
    }
    auto samples = obs::timeseries().samples();
    obs::reset_all();
    return samples;
  };
  const auto plain = run(false);
  const auto scoped = run(true);
  ASSERT_GE(plain.size(), 4u);
  ASSERT_EQ(plain.size(), scoped.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].ts, scoped[i].ts);
    EXPECT_EQ(plain[i].counters, scoped[i].counters);
  }
}

}  // namespace
}  // namespace lz::sim
