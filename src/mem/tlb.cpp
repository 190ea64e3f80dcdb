#include "mem/tlb.h"

#include "obs/trace.h"

namespace lz::mem {

Tlb::Tlb(std::size_t l1_entries, std::size_t l2_entries, u64 seed,
         std::string counter_domain)
    : l1_(l1_entries),
      l2_(l2_entries),
      rng_(seed),
      c_l1_hit_(&obs::registry().counter("mem.tlb.l1_hit")),
      c_l2_hit_(&obs::registry().counter("mem.tlb.l2_hit")),
      c_miss_(&obs::registry().counter("mem.tlb.miss")),
      c_inval_(&obs::registry().counter("mem.tlb.invalidation")) {
  if (!counter_domain.empty()) {
    auto& reg = obs::registry();
    d_l1_hit_ = &reg.counter(counter_domain + ".l1_hit");
    d_l2_hit_ = &reg.counter(counter_domain + ".l2_hit");
    d_miss_ = &reg.counter(counter_domain + ".miss");
    d_inval_ = &reg.counter(counter_domain + ".invalidation");
  }
}

std::optional<Tlb::Hit> Tlb::lookup(u64 vpage, u16 asid, u16 vmid,
                                    Cycles l2_hit_cost) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : l1_) {
    if (matches(e, vpage, asid, vmid)) {
      count(stats_.l1_hits, c_l1_hit_, d_l1_hit_);
      return Hit{e, 0, true, gen_.load(std::memory_order_relaxed)};
    }
  }
  for (const auto& e : l2_) {
    if (matches(e, vpage, asid, vmid)) {
      count(stats_.l2_hits, c_l2_hit_, d_l2_hit_);
      const TlbEntry copy = e;  // place() may shuffle l2_ storage aliasing e
      if (place(l1_, copy)) bump_generation();  // promote
      return Hit{copy, l2_hit_cost, false,
                 gen_.load(std::memory_order_relaxed)};
    }
  }
  count(stats_.misses, c_miss_, d_miss_);
  return std::nullopt;
}

u64 Tlb::insert(const TlbEntry& e) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool l1_evicted = place(l1_, e);
  const bool l2_evicted = place(l2_, e);
  if (l1_evicted || l2_evicted) bump_generation();
  return gen_.load(std::memory_order_relaxed);
}

bool Tlb::place(std::vector<TlbEntry>& level, const TlbEntry& e) {
  if (level.empty()) return false;
  // Evict every entry a lookup for `e`'s page could also match, not just
  // the first: refreshing one slot while a second aliasing copy survives
  // (e.g. a global entry ahead of a per-ASID one) would leave a stale
  // translation that random replacement can later expose.
  TlbEntry* free_slot = nullptr;
  bool evicted = false;
  for (auto& slot : level) {
    if (aliases(slot, e)) {
      slot.valid = false;
      evicted = true;
    }
    if (!slot.valid && free_slot == nullptr) free_slot = &slot;
  }
  if (free_slot != nullptr) {
    *free_slot = e;
    return evicted;
  }
  level[rng_.below(level.size())] = e;  // random replacement
  return true;
}

void Tlb::commit_l1_hits(u64 n) {
  if (n == 0) return;
  count(stats_.l1_hits, c_l1_hit_, d_l1_hit_, n);
}

void Tlb::invalidate_all() {
  std::lock_guard<std::mutex> lock(mu_);
  count(stats_.invalidations, c_inval_, d_inval_);
  bump_generation();
  obs::trace().tlb_inval(obs::TlbScope::kAll, 0, 0);
  for (auto& e : l1_) e.valid = false;
  for (auto& e : l2_) e.valid = false;
}

void Tlb::invalidate_vmid(u16 vmid) {
  std::lock_guard<std::mutex> lock(mu_);
  count(stats_.invalidations, c_inval_, d_inval_);
  bump_generation();
  obs::trace().tlb_inval(obs::TlbScope::kVmid, 0, vmid);
  for (auto& e : l1_) {
    if (e.vmid == vmid) e.valid = false;
  }
  for (auto& e : l2_) {
    if (e.vmid == vmid) e.valid = false;
  }
}

void Tlb::invalidate_asid(u16 asid, u16 vmid) {
  std::lock_guard<std::mutex> lock(mu_);
  count(stats_.invalidations, c_inval_, d_inval_);
  bump_generation();
  obs::trace().tlb_inval(obs::TlbScope::kAsid, asid, vmid);
  for (auto& e : l1_) {
    if (e.vmid == vmid && !e.global && e.asid == asid) e.valid = false;
  }
  for (auto& e : l2_) {
    if (e.vmid == vmid && !e.global && e.asid == asid) e.valid = false;
  }
}

void Tlb::invalidate_va(u64 vpage, u16 asid, u16 vmid) {
  std::lock_guard<std::mutex> lock(mu_);
  count(stats_.invalidations, c_inval_, d_inval_);
  bump_generation();
  obs::trace().tlb_inval(obs::TlbScope::kVa, asid, vmid);
  // TLBI VAE1: the ASID's own entry for the page, plus any global entry
  // (global translations are not ASID-tagged, so a per-VA invalidate
  // always reaches them). Other ASIDs' non-global entries survive.
  const auto dead = [&](const TlbEntry& e) {
    return e.vmid == vmid && e.vpage == vpage && (e.global || e.asid == asid);
  };
  for (auto& e : l1_) {
    if (dead(e)) e.valid = false;
  }
  for (auto& e : l2_) {
    if (dead(e)) e.valid = false;
  }
}

void Tlb::invalidate_va_all_asid(u64 vpage, u16 vmid) {
  std::lock_guard<std::mutex> lock(mu_);
  count(stats_.invalidations, c_inval_, d_inval_);
  bump_generation();
  obs::trace().tlb_inval(obs::TlbScope::kVaAllAsid, 0, vmid);
  for (auto& e : l1_) {
    if (e.vmid == vmid && e.vpage == vpage) e.valid = false;
  }
  for (auto& e : l2_) {
    if (e.vmid == vmid && e.vpage == vpage) e.valid = false;
  }
}

std::size_t Tlb::valid_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& e : l2_) n += e.valid;
  return n;
}

}  // namespace lz::mem
