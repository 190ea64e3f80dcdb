#include "check/fuzz_a64.h"

#include <algorithm>
#include <optional>
#include <string>

#include "arch/encode.h"
#include "arch/sysreg.h"
#include "kernel/kernel.h"
#include "lightzone/api.h"
#include "lightzone/gate.h"
#include "support/rng.h"

namespace lz::check {

namespace {

using core::Env;
using core::LzProc;
using core::UpperLayout;
namespace enc = arch::enc;

// Stream character: how much of the generator's output is architecturally
// legal for a kernel-mode LightZone process.
enum class Mode : u8 {
  kClean = 0,  // Table-3-safe ops only; insn_san = 1 (or 2)
  kDirty = 1,  // ~20% sensitive instructions; the static sanitizer rejects
  kWild = 2,   // sensitive + raw random words; insn_san = 0, runtime traps
};

// The prelude materialises the heap and stack base registers and is padded
// with NOPs to exactly 16 words, so the gates' legal re-entry point is a
// fixed address no matter what the body contains.
constexpr unsigned kPreludeWords = 16;
constexpr VirtAddr kBodyStart = Env::kCodeVa + kPreludeWords * 4;
// One 4 KiB code page holds 1024 words; stop generating before the landing
// zone + epilogue could spill past it.
constexpr unsigned kBodyWordCap = 980;

constexpr u8 kHeapReg = 0;   // x0 = Env::kHeapVa (re-materialised postcall)
constexpr u8 kStackReg = 1;  // x1 = last stack page base
constexpr u8 kGateReg = 9;   // x9 = BR target for gate sequences

// Scratch registers the ALU/load-store ops mingle in; disjoint from the
// bases above, the syscall ABI block (x0-x8), and LR.
constexpr u8 kScratch[] = {10, 11, 12, 13, 14, 15, 16, 17};

u8 pick_scratch(Rng& rng) { return kScratch[rng.below(8)]; }

void emit_mov64(std::vector<u32>& w, u8 rd, u64 imm) {
  w.push_back(enc::movz(rd, static_cast<u16>(imm & 0xffff), 0));
  w.push_back(enc::movk(rd, static_cast<u16>((imm >> 16) & 0xffff), 1));
  w.push_back(enc::movk(rd, static_cast<u16>((imm >> 32) & 0xffff), 2));
  w.push_back(enc::movk(rd, static_cast<u16>((imm >> 48) & 0xffff), 3));
}

void emit_alu(Rng& rng, std::vector<u32>& w) {
  const u8 rd = pick_scratch(rng);
  const u8 rn = pick_scratch(rng);
  const u8 rm = pick_scratch(rng);
  switch (rng.below(8)) {
    case 0: w.push_back(enc::add_reg(rd, rn, rm)); break;
    case 1: w.push_back(enc::sub_reg(rd, rn, rm)); break;
    case 2: w.push_back(enc::and_reg(rd, rn, rm)); break;
    case 3: w.push_back(enc::orr_reg(rd, rn, rm)); break;
    case 4: w.push_back(enc::eor_reg(rd, rn, rm)); break;
    case 5: w.push_back(enc::add_imm(rd, rn, static_cast<u16>(rng.below(4096)))); break;
    case 6: w.push_back(enc::movz(rd, static_cast<u16>(rng.below(65536)))); break;
    case 7: w.push_back(enc::subs_reg(rd, rn, rm)); break;
  }
}

void emit_ldst(Rng& rng, std::vector<u32>& w) {
  const u8 rt = pick_scratch(rng);
  const u8 base = rng.chance(0.7) ? kHeapReg : kStackReg;
  // Scaled unsigned offsets stay inside one page off the base register.
  const u16 off = static_cast<u16>(8 * rng.below(512));
  if (rng.chance(0.5)) {
    w.push_back(enc::ldr_imm(rt, base, off));
  } else {
    w.push_back(enc::str_imm(rt, base, off));
  }
}

void emit_branch(Rng& rng, std::vector<u32>& w) {
  // Forward only, at most 6 instructions ahead: every target stays inside
  // the body or the NOP landing zone in front of the epilogue.
  const i64 off = 4 * static_cast<i64>(1 + rng.below(6));
  switch (rng.below(4)) {
    case 0: w.push_back(enc::b(off)); break;
    case 1:
      w.push_back(enc::b_cond(static_cast<arch::Cond>(rng.below(14)), off));
      break;
    case 2: w.push_back(enc::cbz(pick_scratch(rng), off)); break;
    case 3: w.push_back(enc::cbnz(pick_scratch(rng), off)); break;
  }
}

void emit_barrier(Rng& rng, std::vector<u32>& w) {
  switch (rng.below(4)) {
    case 0: w.push_back(enc::nop()); break;
    case 1: w.push_back(enc::isb()); break;
    case 2: w.push_back(enc::dsb()); break;
    case 3: w.push_back(enc::dmb()); break;
  }
}

void emit_sys_clean(Rng& rng, std::vector<u32>& w) {
  switch (rng.below(4)) {
    case 0: w.push_back(enc::msr_pan(static_cast<u8>(rng.below(2)))); break;
    case 1: w.push_back(enc::mrs(pick_scratch(rng), arch::SysReg::kNzcv)); break;
    case 2:
      w.push_back(enc::mrs(pick_scratch(rng), arch::SysReg::kTpidrEl0));
      break;
    case 3: w.push_back(enc::msr(arch::SysReg::kNzcv, pick_scratch(rng))); break;
  }
}

// One syscall template: load x8 and the arguments, SVC, then re-materialise
// the clobbered base registers. Kernel calls (munmap/mprotect) force real
// break-before-make transitions in the LightZone tables via sync_unmap;
// the lz* verbs drive the Table-2 surface from inside the process.
void emit_syscall(Rng& rng, std::vector<u32>& w) {
  const u64 heap_page = Env::kHeapVa + rng.below(16) * kPageSize;
  switch (rng.below(8)) {
    case 0:  // munmap(heap page, 1 page)
      emit_mov64(w, 0, heap_page);
      w.push_back(enc::movz(1, kPageSize & 0xffff));
      w.push_back(enc::movz(8, kernel::nr::kMunmap));
      break;
    case 1:  // mprotect(heap page, 1 page, {none,R,RW}) — tightening!
      emit_mov64(w, 0, heap_page);
      w.push_back(enc::movz(1, kPageSize & 0xffff));
      w.push_back(enc::movz(2, static_cast<u16>(rng.below(2) == 0
                                                    ? kernel::kProtRead
                                                    : kernel::kProtRead |
                                                          kernel::kProtWrite)));
      w.push_back(enc::movz(8, kernel::nr::kMprotect));
      break;
    case 2:  // mmap(fresh va, 1 page, RW)
      emit_mov64(w, 0, 0x20000000ULL + rng.below(8) * kPageSize);
      w.push_back(enc::movz(1, kPageSize & 0xffff));
      w.push_back(enc::movz(2, kernel::kProtRead | kernel::kProtWrite));
      w.push_back(enc::movz(8, kernel::nr::kMmap));
      break;
    case 3:  // lz_alloc()
      w.push_back(enc::movz(8, core::lznr::kAlloc));
      break;
    case 4:  // lz_free(small id — live, dead, or never allocated)
      w.push_back(enc::movz(0, static_cast<u16>(rng.below(5))));
      w.push_back(enc::movz(8, core::lznr::kFree));
      break;
    case 5: {  // lz_prot(heap range, pgt, perm)
      emit_mov64(w, 0, heap_page);
      w.push_back(enc::movz(1, static_cast<u16>(kPageSize *
                                                (1 + rng.below(2))) & 0xffff));
      if (rng.below(8) == 0) {
        w.push_back(enc::movn(2, 0));  // x2 = -1 = kPgtAll
      } else {
        w.push_back(enc::movz(2, static_cast<u16>(rng.below(3))));
      }
      w.push_back(enc::movz(3, static_cast<u16>(
                                   rng.chance(0.5)
                                       ? core::kLzRead
                                       : core::kLzRead | core::kLzWrite)));
      w.push_back(enc::movz(8, core::lznr::kProt));
      break;
    }
    case 6:  // exit(0) — ends the stream early now and then
      w.push_back(enc::movz(0, 0));
      w.push_back(enc::movz(8, kernel::nr::kExit));
      break;
    case 7:  // empty trap roundtrip
      w.push_back(enc::movz(8, kernel::nr::kEmpty));
      break;
  }
  w.push_back(enc::svc(0));
  emit_mov64(w, kHeapReg, Env::kHeapVa);
  emit_mov64(w, kStackReg, Env::kStackTop - kPageSize);
}

// A gate-adjacent sequence: BR into (possibly the middle of) a gate with a
// legal or deliberately wrong link register. The phase-2 check must either
// RET to the registered entry or land on BRK — never resume at an
// attacker-chosen address.
void emit_gate_seq(Rng& rng, std::vector<u32>& w) {
  const u32 gate = static_cast<u32>(rng.below(6));  // 4..5 unregistered
  u64 target = UpperLayout::gate_va(gate);
  if (rng.chance(0.25)) target += 4 * rng.below(8);  // mid-gate entry
  u64 lr = kBodyStart;
  if (rng.chance(0.25)) lr += 8;  // wrong return point → BRK
  emit_mov64(w, kGateReg, target);
  emit_mov64(w, arch::kLrIndex, lr);
  w.push_back(enc::br(kGateReg));
}

// Table-3 sensitive instructions (§6.3): statically banned by the
// sanitizer in dirty streams, runtime-trapped (HCR_EL2 traps, EC filters)
// in wild unsanitized streams.
void emit_sensitive(Rng& rng, std::vector<u32>& w) {
  const u8 rt = pick_scratch(rng);
  switch (rng.below(8)) {
    case 0: w.push_back(enc::eret()); break;
    case 1: w.push_back(enc::ldtr(rt, kHeapReg)); break;
    case 2: w.push_back(enc::sttr(rt, kHeapReg)); break;
    case 3:
      w.push_back(enc::msr_raw(
          arch::sysreg_encoding(arch::SysReg::kTtbr0El1), rt));
      break;
    case 4: {
      static constexpr arch::SysReg kPrivileged[] = {
          arch::SysReg::kSctlrEl1, arch::SysReg::kTtbr1El1,
          arch::SysReg::kVbarEl1, arch::SysReg::kEsrEl1};
      w.push_back(enc::mrs_raw(
          arch::sysreg_encoding(kPrivileged[rng.below(4)]), rt));
      break;
    }
    case 5: w.push_back(enc::tlbi_vmalle1()); break;
    case 6:  // DC/IC space (op0=01, CRn=7)
      w.push_back(enc::sys(static_cast<u8>(rng.below(8)), 7,
                           static_cast<u8>(rng.below(16)),
                           static_cast<u8>(rng.below(8)), rt));
      break;
    case 7:
      w.push_back(rng.chance(0.5) ? enc::hvc(static_cast<u16>(rng.below(4)))
                                  : enc::smc(0));
      break;
  }
}

void emit_clean_op(Rng& rng, std::vector<u32>& w) {
  switch (rng.below(10)) {
    case 0: case 1: case 2: emit_alu(rng, w); break;
    case 3: case 4: emit_ldst(rng, w); break;
    case 5: emit_branch(rng, w); break;
    case 6: emit_barrier(rng, w); break;
    case 7: emit_sys_clean(rng, w); break;
    case 8: emit_syscall(rng, w); break;
    case 9: emit_gate_seq(rng, w); break;
  }
}

std::vector<u32> generate_stream(Rng& rng, Mode mode, int insns) {
  std::vector<u32> w;
  w.reserve(1024);
  // Prelude: fixed 16 words, then the body at kBodyStart.
  emit_mov64(w, kHeapReg, Env::kHeapVa);
  emit_mov64(w, kStackReg, Env::kStackTop - kPageSize);
  while (w.size() < kPreludeWords) w.push_back(enc::nop());
  LZ_CHECK(w.size() == kPreludeWords);

  for (int i = 0; i < insns && w.size() < kBodyWordCap; ++i) {
    switch (mode) {
      case Mode::kClean:
        emit_clean_op(rng, w);
        break;
      case Mode::kDirty:
        if (rng.chance(0.2)) {
          emit_sensitive(rng, w);
        } else {
          emit_clean_op(rng, w);
        }
        break;
      case Mode::kWild: {
        const u64 r = rng.below(10);
        if (r < 4) {
          emit_clean_op(rng, w);
        } else if (r < 7) {
          emit_sensitive(rng, w);
        } else {
          w.push_back(static_cast<u32>(rng.next()));
        }
        break;
      }
    }
  }

  // Landing zone: the body's forward branches reach at most 6 words past
  // their own site, so 8 NOPs guarantee every target is real code.
  for (int i = 0; i < 8; ++i) w.push_back(enc::nop());
  // Epilogue: exit(0).
  w.push_back(enc::movz(0, 0));
  w.push_back(enc::movz(8, kernel::nr::kExit));
  w.push_back(enc::svc(0));
  LZ_CHECK(w.size() <= kPageSize / 4);
  return w;
}

struct Stream {
  Mode mode = Mode::kClean;
  int san = 1;
  bool eager_stage2 = true;
  std::vector<u32> words;
  kernel::Process* proc = nullptr;
  std::optional<LzProc> lz;
  sim::RunResult rr;
};

// Draws stream s's mode, sanitizer level, stage-2 option and words from
// the stream's own Rng, so they depend only on (seed, s).
void plan_stream(const FuzzA64Config& cfg, unsigned s, Stream& st) {
  Rng rng(stream_seed(cfg.seed, s));
  const u64 m = rng.below(10);
  st.mode = m < 4 ? Mode::kClean : m < 7 ? Mode::kDirty : Mode::kWild;
  st.san = st.mode == Mode::kWild ? 0 : (rng.chance(0.25) ? 2 : 1);
  st.eager_stage2 = !rng.chance(0.2);  // exercise the deferred-S2 path
  st.words = generate_stream(rng, st.mode, cfg.insns_per_stream);
}

}  // namespace

std::vector<u32> a64_stream_words(const FuzzA64Config& cfg, unsigned s) {
  Stream st;
  plan_stream(cfg, s, st);
  return st.words;
}

FuzzOutcome run_a64_fuzz(const FuzzA64Config& cfg) {
  const arch::Platform& plat =
      cfg.platform != nullptr ? *cfg.platform : arch::Platform::cortex_a55();
  const unsigned streams = stream_count(cfg.streams, cfg.cores);

  Env env(Env::Options().platform(plat).cores(cfg.cores).seed(cfg.seed));
  auto& machine = *env.machine;

  FuzzOutcome out;
  u64 words = 0, killed = 0, sanitizer_rejects = 0, exited = 0;

  // Waves bound the live-process footprint: each wave's processes are set
  // up sequentially (deterministic frame layout), run concurrently, then
  // recorded and destroyed sequentially — which recycles their frames and
  // exercises the monitor's table-free purge on every teardown. The wave
  // size only changes *when* frames are recycled, never a stream's words
  // or outcome, so 1-core and N-core runs stay comparable.
  const unsigned wave = cfg.cores * 8;
  for (unsigned base = 0; base < streams; base += wave) {
    const unsigned count = std::min(wave, streams - base);
    std::vector<Stream> ss(count);

    for (unsigned i = 0; i < count; ++i) {
      const unsigned s = base + i;
      sim::Machine::CoreBinding bind(machine, s % cfg.cores);
      Stream& st = ss[i];
      plan_stream(cfg, s, st);
      core::LzOptions ov;
      ov.max_gates = 8;
      ov.eager_stage2 = st.eager_stage2;

      st.proc = &env.new_process();
      LZ_CHECK_OK(env.kern().populate_page(
          *st.proc, Env::kCodeVa, kernel::kProtRead | kernel::kProtExec));
      const auto kw = st.proc->pgt().lookup(Env::kCodeVa);
      LZ_CHECK(kw.ok);
      const PhysAddr frame = page_floor(kw.out_addr);
      for (std::size_t j = 0; j < st.words.size(); ++j) {
        machine.mem().write(frame + j * 4, 4, st.words[j]);
      }

      st.lz.emplace(
          LzProc::enter(*env.module, *st.proc, /*allow_scalable=*/true,
                        st.san, &ov));
      // Register gates 0..3 over two domains (gates 4..5 stay unregistered
      // prey for the generator). pgt 0 always exists; extra domains come
      // from lz_alloc.
      const auto p1 = st.lz->lz_alloc();
      LZ_CHECK(p1.is_ok());
      for (int g = 0; g < 4; ++g) {
        LZ_CHECK_OK(st.lz->lz_map_gate_pgt(g % 2 == 0 ? 0 : *p1, g));
        LZ_CHECK_OK(st.lz->lz_set_gate_entry(g, kBodyStart));
      }
    }

    // Concurrent phase: streams sharing a core queue FIFO behind each
    // other; streams on different cores really run in parallel, with the
    // BBM monitor watching every PTE store from all of them.
    for (unsigned i = 0; i < count; ++i) {
      env.kern().run_on((base + i) % cfg.cores,
                        [&ss, i, &cfg](unsigned) {
                          ss[i].rr = ss[i].lz->run(cfg.max_steps);
                        });
    }
    env.kern().schedule();

    for (unsigned i = 0; i < count; ++i) {
      Stream& st = ss[i];
      std::vector<u8> ob;
      ob.push_back(static_cast<u8>(st.mode));
      ob.push_back(static_cast<u8>(st.san));
      ob.push_back(static_cast<u8>(st.rr.reason));
      ob.push_back(static_cast<u8>(st.rr.steps & 0xff));
      ob.push_back(static_cast<u8>((st.rr.steps >> 8) & 0xff));
      ob.push_back(st.proc->alive() ? 1 : 0);
      if (!st.proc->alive() && !st.proc->kill_reason().empty()) {
        const u64 h = fnv1a(st.proc->kill_reason());
        ob.push_back(static_cast<u8>(h ^ (h >> 8) ^ (h >> 16) ^ (h >> 24)));
        ++killed;
        // kill() prefixes reasons with "LightZone: "; match the verdict
        // message itself.
        if (st.proc->kill_reason().find("sensitive instruction in page") !=
            std::string::npos) {
          ++sanitizer_rejects;
        }
      } else {
        ob.push_back(static_cast<u8>(st.proc->exit_code() & 0xff));
        if (!st.proc->alive()) ++exited;
      }
      words += st.words.size();
      out.streams.push_back(std::move(ob));

      // Teardown in stream order: the LzProc (and with it the context's
      // stage-1/stage-2 tables) dies with the process, firing the
      // monitor's on_table_free purge before the frames are recycled.
      st.lz.reset();
      env.kern().destroy(*st.proc);
    }
  }

  out.hash = hash_streams(out.streams);
  out.tally = std::to_string(streams) + " streams, " + std::to_string(words) +
              " words, " + std::to_string(killed) + " killed (" +
              std::to_string(sanitizer_rejects) + " sanitizer), " +
              std::to_string(exited) + " exited";
  out.counters = env.counters_delta();
  return out;
}

}  // namespace lz::check
