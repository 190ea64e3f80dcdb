// Combined-stage software TLB, two levels (micro-TLB + main TLB), tagged
// with ASID and VMID and honouring the global bit. This is where LightZone's
// domain-switch economics come from: per-page-table ASIDs let TTBR0 updates
// skip TLB invalidation entirely (§4.1.2), and marking unprotected memory
// global keeps its entries shared across all domains (§8.2).
//
// Thread-safety: the per-Tlb mutex guards the entry arrays and the
// replacement RNG, so lookup(), insert() and the invalidate_* walkers take
// it. In the SMP machine each core owns one Tlb, so the lock is
// uncontended on the local path and only taken remotely by DVM broadcast
// invalidations (`TLBI ...IS` walking all cores' TLBs, see
// sim::Machine::tlbi_*_is). The statistics and the generation are relaxed
// atomics outside the lock: commit_l1_hits(), stats() and reset_stats()
// never take it. Each statistic has one writer at a time — hits and
// misses come only from the owning core's thread (lookup() and
// commit_l1_hits()), invalidations only under the mutex — so an update is
// a relaxed load and store, not a read-modify-write.
//
// Coherence invariant: within each level, at most one entry can match any
// (vpage, asid, vmid) lookup — place() evicts every aliasing entry (the
// architecturally CONSTRAINED-UNPREDICTABLE global/non-global mix for one
// page included) before installing a new one. Across levels, entries are
// written by insert() and cleared by the invalidate_* walkers in both
// levels under one lock hold, and L2→L1 promotion copies the L2 value
// verbatim, so the two levels never hold different attributes for the same
// key. The lz::check TLB-vs-walk oracle re-verifies the visible half of
// this invariant against the live page tables at every hit.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mem/pte.h"
#include "obs/counters.h"
#include "support/rng.h"
#include "support/types.h"

namespace lz::mem {

struct TlbEntry {
  bool valid = false;
  u64 vpage = 0;    // VA >> 12
  u16 asid = 0;
  u16 vmid = 0;
  bool global = false;   // matches any ASID within its VMID
  bool stage2_on = false;
  u64 ipa_page = 0;      // stage-1 output (== ppage when stage-2 off)
  PhysAddr ppage = 0;    // final machine frame
  S1Attrs s1;
  S2Attrs s2;            // meaningful when stage2_on
  // Provenance: the table roots this entry was derived from. Not part of
  // the lookup key (hardware TLBs match VA/ASID/VMID only) — the lz::check
  // TLB-vs-walk oracle uses them to tell an invalidation-scoping bug (same
  // translation context, tables changed under the entry) from the
  // architecturally legal use of a stale-but-matching entry after software
  // rewrites TTBR/VTTBR without a TLBI.
  PhysAddr s1_root = 0;
  PhysAddr s2_root = 0;  // 0 when stage2_on is false
};

struct TlbStats {
  u64 l1_hits = 0;
  u64 l2_hits = 0;
  u64 misses = 0;
  u64 invalidations = 0;

  u64 lookups() const { return l1_hits + l2_hits + misses; }
  // Fraction of lookups served from either TLB level (0 when idle).
  double hit_rate() const {
    const u64 n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(l1_hits + l2_hits) / n;
  }
};

class Tlb {
 public:
  // `counter_domain` names an additional per-core counter namespace (e.g.
  // "sim.core1.tlb"); the process-wide `mem.tlb.*` aggregates always move
  // so existing reports and goldens keep their meaning under SMP.
  Tlb(std::size_t l1_entries, std::size_t l2_entries, u64 seed = 42,
      std::string counter_domain = {});

  struct Hit {
    TlbEntry entry;     // copied out under the lock; stays valid after it
    Cycles extra_cost;  // 0 on micro-TLB hit, tlb_l2_hit on main-TLB hit
    bool from_l1;
    // generation() observed under the lock *after* any promotion: at the
    // moment the lock was released, the micro-TLB held `entry` and the
    // generation was exactly this value. The L0 install tag (see below).
    u64 gen;
  };

  // Look up (vpage, asid, vmid). Promotes main-TLB hits into the micro-TLB.
  std::optional<Hit> lookup(u64 vpage, u16 asid, u16 vmid, Cycles l2_hit_cost);

  // Returns the under-lock generation after the insert, with the same
  // meaning as Hit::gen (the new entry is resident in the micro-TLB at
  // that generation).
  u64 insert(const TlbEntry& e);

  // Invalidation scopes, one per architectural TLBI flavour:
  //   invalidate_all          TLBI ALLE1   — everything
  //   invalidate_vmid         TLBI VMALLE1 — one VMID, all ASIDs + global
  //   invalidate_asid         TLBI ASIDE1  — non-global entries of one ASID
  //   invalidate_va           TLBI VAE1    — one page: the ASID's non-global
  //                                          entry plus any global entry
  //   invalidate_va_all_asid  TLBI VAAE1   — one page across every ASID
  void invalidate_all();
  void invalidate_vmid(u16 vmid);
  void invalidate_asid(u16 asid, u16 vmid);
  void invalidate_va(u64 vpage, u16 asid, u16 vmid);
  void invalidate_va_all_asid(u64 vpage, u16 vmid);

  // --- L0 coherence protocol --------------------------------------------------
  // Monotonic generation, bumped by every invalidate_* and by any place()
  // that removes or overwrites a live entry in the micro-TLB (insert
  // refills and L2->L1 promotions included). A Core-side L0 entry tagged
  // with generation G is usable only while generation() == G: an unchanged
  // generation proves the micro-TLB still holds exactly the entry the L0
  // memoized, so an L0 hit is observationally identical to the L1 hit the
  // locked lookup would have produced (same zero cost, same stats line).
  //
  // The counter is a relaxed atomic: the owning core reads it locklessly
  // on every access, and remote DVM shootdowns bump it under the TLB
  // mutex. Cross-core visibility therefore rides on the caller's existing
  // synchronization (the machine models TLBI ...IS + DSB as synchronous),
  // exactly like the entry arrays themselves.
  u64 generation() const { return gen_.load(std::memory_order_relaxed); }

  // Batched stats path for Core's L0 cache: credit `n` micro-TLB hits that
  // were served without taking the lock. Keeps TlbStats and the
  // mem.tlb.*/sim.coreN.tlb.* counters byte-identical to the unbatched
  // engine once the owning core flushes (see Core's flush contract).
  void commit_l1_hits(u64 n);

  // Lock-free copy of the stats, one relaxed load per field; call from a
  // quiesced machine (or the owning core's thread) for exact values.
  TlbStats stats() const {
    TlbStats s;
    s.l1_hits = stats_.l1_hits.load(std::memory_order_relaxed);
    s.l2_hits = stats_.l2_hits.load(std::memory_order_relaxed);
    s.misses = stats_.misses.load(std::memory_order_relaxed);
    s.invalidations = stats_.invalidations.load(std::memory_order_relaxed);
    return s;
  }
  void reset_stats() {
    stats_.l1_hits.store(0, std::memory_order_relaxed);
    stats_.l2_hits.store(0, std::memory_order_relaxed);
    stats_.misses.store(0, std::memory_order_relaxed);
    stats_.invalidations.store(0, std::memory_order_relaxed);
  }
  std::size_t valid_entries() const;

 private:
  static bool matches(const TlbEntry& e, u64 vpage, u16 asid, u16 vmid) {
    return e.valid && e.vpage == vpage && e.vmid == vmid &&
           (e.global || e.asid == asid);
  }
  // Two entries alias when some single lookup could match both (same page
  // and VMID, overlapping ASID scope — a global entry overlaps every ASID).
  static bool aliases(const TlbEntry& a, const TlbEntry& b) {
    return a.valid && a.vpage == b.vpage && a.vmid == b.vmid &&
           (a.global || b.global || a.asid == b.asid);
  }
  // Returns true when it removed or overwrote a live entry (the L0
  // generation must advance so no core keeps a memoized copy).
  bool place(std::vector<TlbEntry>& level, const TlbEntry& e);
  // Credits one stats field (single writer, see the thread-safety note)
  // and its counter mirrors.
  void count(std::atomic<u64>& stat, obs::Counter* aggregate,
             obs::Counter* per_core, u64 n = 1) {
    stat.store(stat.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
    aggregate->add(n);
    if (per_core) per_core->add(n);
  }
  void bump_generation() { gen_.fetch_add(1, std::memory_order_relaxed); }

  mutable std::mutex mu_;  // guards l1_, l2_ and rng_ only
  std::vector<TlbEntry> l1_;
  std::vector<TlbEntry> l2_;
  Rng rng_;
  struct {
    std::atomic<u64> l1_hits{0};
    std::atomic<u64> l2_hits{0};
    std::atomic<u64> misses{0};
    std::atomic<u64> invalidations{0};
  } stats_;
  std::atomic<u64> gen_{1};

  // Process-wide observability mirrors of stats_ (cached handles so the
  // lookup hot path pays one pointer add per event, `mem.tlb.*`), plus the
  // optional per-core domain (`sim.coreN.tlb.*`).
  obs::Counter* c_l1_hit_;
  obs::Counter* c_l2_hit_;
  obs::Counter* c_miss_;
  obs::Counter* c_inval_;
  obs::Counter* d_l1_hit_ = nullptr;
  obs::Counter* d_l2_hit_ = nullptr;
  obs::Counter* d_miss_ = nullptr;
  obs::Counter* d_inval_ = nullptr;
};

}  // namespace lz::mem
