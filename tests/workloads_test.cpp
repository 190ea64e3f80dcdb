// Application-workload tests: AES correctness (FIPS-197 vectors), the
// event models' bookkeeping, and the headline shapes of Figures 3-5
// (who wins, in what order, and roughly by how much).
#include <gtest/gtest.h>

#include <cstring>

#include "support/rng.h"
#include "workloads/crypto/aes.h"
#include "workloads/dbms.h"
#include "workloads/httpd.h"
#include "workloads/nvm.h"

namespace lz::workload {
namespace {

// --- AES ----------------------------------------------------------------------

TEST(AesTest, Fips197Vector) {
  // FIPS-197 Appendix B.
  const u8 key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  u8 block[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                  0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const u8 expected[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                           0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  const auto expanded = crypto::aes_expand_key(key);
  crypto::aes_encrypt_block(expanded, block);
  EXPECT_EQ(std::memcmp(block, expected, 16), 0);
}

TEST(AesTest, KeyExpansionMatchesFips197) {
  const u8 key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const auto expanded = crypto::aes_expand_key(key);
  // w4 of the FIPS-197 key schedule example: a0fafe17.
  EXPECT_EQ(expanded.round_keys[16], 0xa0);
  EXPECT_EQ(expanded.round_keys[17], 0xfa);
  EXPECT_EQ(expanded.round_keys[18], 0xfe);
  EXPECT_EQ(expanded.round_keys[19], 0x17);
  // w43 ends b6630ca6.
  EXPECT_EQ(expanded.round_keys[43 * 4 + 0], 0xb6);
  EXPECT_EQ(expanded.round_keys[43 * 4 + 3], 0xa6);
}

TEST(AesTest, CbcChainsBlocks) {
  const u8 key[16] = {};
  const u8 iv[16] = {};
  const auto expanded = crypto::aes_expand_key(key);
  u8 data[32] = {};
  crypto::aes_cbc_encrypt(expanded, iv, data, sizeof(data));
  // Identical plaintext blocks must differ under CBC.
  EXPECT_NE(std::memcmp(data, data + 16, 16), 0);
}

// Byte-wise FIPS-197 reference, independent of the library's tables: the
// S-box is derived from GF(2^8) inversion plus the affine map, and each
// round runs SubBytes, ShiftRows, MixColumns and AddRoundKey on bytes
// (state column-major, s[col * 4 + row]).
struct ByteAes {
  u8 sbox[256];

  ByteAes() {
    const auto rotl = [](u8 x, int n) {
      return static_cast<u8>((x << n) | (x >> (8 - n)));
    };
    u8 p = 1, q = 1;
    do {  // p walks the powers of 3; q walks the inverse powers
      p = static_cast<u8>(p ^ (p << 1) ^ ((p & 0x80) ? 0x1b : 0));
      q = static_cast<u8>(q ^ (q << 1));
      q = static_cast<u8>(q ^ (q << 2));
      q = static_cast<u8>(q ^ (q << 4));
      if (q & 0x80) q ^= 0x09;
      sbox[p] = static_cast<u8>(q ^ rotl(q, 1) ^ rotl(q, 2) ^ rotl(q, 3) ^
                                rotl(q, 4) ^ 0x63);
    } while (p != 1);
    sbox[0] = 0x63;  // zero has no inverse
  }

  static u8 xtime(u8 x) {
    return static_cast<u8>((x << 1) ^ ((x >> 7) * 0x1b));
  }

  void encrypt_block(const crypto::AesKey& key, u8 s[16]) const {
    const u8* rk = key.round_keys.data();
    for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
    for (std::size_t round = 1; round <= crypto::kAesRounds; ++round) {
      u8 t[16];
      for (int col = 0; col < 4; ++col) {
        for (int row = 0; row < 4; ++row) {
          t[col * 4 + row] = sbox[s[((col + row) % 4) * 4 + row]];
        }
      }
      if (round != crypto::kAesRounds) {
        for (int col = 0; col < 4; ++col) {
          u8* c = t + col * 4;
          const u8 a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
          const u8 x = static_cast<u8>(a0 ^ a1 ^ a2 ^ a3);
          c[0] = static_cast<u8>(a0 ^ x ^ xtime(static_cast<u8>(a0 ^ a1)));
          c[1] = static_cast<u8>(a1 ^ x ^ xtime(static_cast<u8>(a1 ^ a2)));
          c[2] = static_cast<u8>(a2 ^ x ^ xtime(static_cast<u8>(a2 ^ a3)));
          c[3] = static_cast<u8>(a3 ^ x ^ xtime(static_cast<u8>(a3 ^ a0)));
        }
      }
      for (int i = 0; i < 16; ++i) s[i] = t[i] ^ rk[round * 16 + i];
    }
  }

  void cbc_encrypt(const crypto::AesKey& key, const u8 iv[16], u8* data,
                   std::size_t len) const {
    const u8* chain = iv;
    for (std::size_t off = 0; off < len; off += 16) {
      for (int i = 0; i < 16; ++i) data[off + i] ^= chain[i];
      encrypt_block(key, data + off);
      chain = data + off;
    }
  }
};

TEST(AesTest, ByteReferenceSboxMatchesFips197) {
  const ByteAes ref;
  EXPECT_EQ(ref.sbox[0x00], 0x63);
  EXPECT_EQ(ref.sbox[0x01], 0x7c);
  EXPECT_EQ(ref.sbox[0x53], 0xed);
  EXPECT_EQ(ref.sbox[0xff], 0x16);
}

// The word-oriented (T-table) rounds must agree with the byte-wise
// reference on 1 KiB of CBC output for 64 seeded keys, IVs and plaintexts.
TEST(AesTest, CbcMatchesByteReferenceOnSeededKeys) {
  const ByteAes ref;
  Rng rng(20261017);
  for (int k = 0; k < 64; ++k) {
    u8 key[crypto::kAesKeySize], iv[crypto::kAesBlockSize], data[1024];
    for (auto& b : key) b = static_cast<u8>(rng.next());
    for (auto& b : iv) b = static_cast<u8>(rng.next());
    for (auto& b : data) b = static_cast<u8>(rng.next());
    u8 want[sizeof(data)];
    std::memcpy(want, data, sizeof(data));
    const auto expanded = crypto::aes_expand_key(key);
    ref.cbc_encrypt(expanded, iv, want, sizeof(want));
    crypto::aes_cbc_encrypt(expanded, iv, data, sizeof(data));
    ASSERT_EQ(std::memcmp(data, want, sizeof(data)), 0) << "key " << k;
  }
}

// --- Shared fixtures -----------------------------------------------------------

AppConfig cfg(const arch::Platform& plat, Placement placement,
              Mechanism mech) {
  return AppConfig{&plat, placement, mech, 42};
}

// Throughput loss at saturation: 1 - T_prot/T_base = delta/(base+delta),
// which is what the paper reports.
double httpd_loss(const arch::Platform& plat, Placement placement,
                  Mechanism mech, HttpdParams params) {
  const auto base = run_httpd(cfg(plat, placement, Mechanism::kNone), params);
  const auto prot = run_httpd(cfg(plat, placement, mech), params);
  return 100.0 * (prot.cycles_per_request - base.cycles_per_request) /
         prot.cycles_per_request;
}

// --- Fig. 3 shapes --------------------------------------------------------------

TEST(HttpdTest, CarmelHostLossOrdering) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::carmel());
  p.requests = 300;
  const double pan =
      httpd_loss(arch::Platform::carmel(), Placement::kHost,
                 Mechanism::kLzPan, p);
  const double ttbr =
      httpd_loss(arch::Platform::carmel(), Placement::kHost,
                 Mechanism::kLzTtbr, p);
  const double wp =
      httpd_loss(arch::Platform::carmel(), Placement::kHost,
                 Mechanism::kWatchpoint, p);
  const double lwc = httpd_loss(arch::Platform::carmel(), Placement::kHost,
                                Mechanism::kLwc, p);
  // Paper: 1.35% / 5.65% / 45.46% / 59.03%.
  EXPECT_NEAR(pan, 1.35, 1.0);
  EXPECT_NEAR(ttbr, 5.65, 1.5);
  EXPECT_NEAR(wp, 45.46, 7.0);
  EXPECT_NEAR(lwc, 59.03, 9.0);
  EXPECT_LT(pan, ttbr);
  EXPECT_LT(ttbr, wp);
  EXPECT_LT(wp, lwc);
}

TEST(HttpdTest, CarmelGuestLightZonePaysNestedTraps) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::carmel());
  p.requests = 300;
  const double pan = httpd_loss(arch::Platform::carmel(), Placement::kGuest,
                                Mechanism::kLzPan, p);
  // Paper: 25.24% — slow LightZone<->guest-kernel switching on Carmel.
  EXPECT_NEAR(pan, 25.24, 6.0);
}

TEST(HttpdTest, CortexLossesAreSmall) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 300;
  for (auto placement : {Placement::kHost, Placement::kGuest}) {
    const double pan = httpd_loss(arch::Platform::cortex_a55(), placement,
                                  Mechanism::kLzPan, p);
    const double ttbr = httpd_loss(arch::Platform::cortex_a55(), placement,
                                   Mechanism::kLzTtbr, p);
    // Paper: 0.91/1.98 (PAN), 3.01/2.03 (TTBR).
    EXPECT_LT(pan, 3.5);
    EXPECT_LT(ttbr, 4.5);
    EXPECT_LT(pan, ttbr);
  }
}

TEST(HttpdTest, ThroughputSaturatesWithConcurrency) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 100;
  const AppConfig c = cfg(arch::Platform::cortex_a55(), Placement::kHost,
                          Mechanism::kNone);
  const auto r = run_httpd(c, p);
  const double t1 = httpd_throughput_rps(r, p, c, 1);
  const double t8 = httpd_throughput_rps(r, p, c, 8);
  const double t64 = httpd_throughput_rps(r, p, c, 64);
  EXPECT_GT(t8, t1 * 1.2);          // rising region (saturates early: 1 worker)
  EXPECT_NEAR(t64, t8, t8 * 0.01);  // flat at the plateau
}

TEST(HttpdTest, CryptoActuallyRuns) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 50;
  const auto a = run_httpd(cfg(arch::Platform::cortex_a55(), Placement::kHost,
                               Mechanism::kNone),
                           p);
  const auto b = run_httpd(cfg(arch::Platform::cortex_a55(), Placement::kHost,
                               Mechanism::kLzTtbr),
                           p);
  EXPECT_NE(a.response_checksum, 0);
  // Same keys, same plaintext, same seed: identical ciphertext regardless
  // of the isolation mechanism (protection must not change results).
  EXPECT_EQ(a.response_checksum, b.response_checksum);
}

TEST(HttpdTest, PageTableMemoryOverheadScalesWithDomains) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 10;
  const auto pan = run_httpd(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, Mechanism::kLzPan),
                             p);
  const auto ttbr = run_httpd(cfg(arch::Platform::cortex_a55(),
                                  Placement::kHost, Mechanism::kLzTtbr),
                              p);
  // §9.1: scalable isolation has much higher page-table overhead (one
  // stage-1 table per key) than PAN (one table).
  EXPECT_GT(ttbr.isolation_table_pages, 3 * pan.isolation_table_pages);
}

// A short TTBR run's request cost and ciphertext, pinned: the request
// loop's charge sequence and Rng streams must not drift (lzperf
// https_ttbr replays the same loop and checks both figures).
TEST(HttpdTest, TtbrRequestCostAndChecksumArePinned) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 20;
  const auto r = run_httpd(cfg(arch::Platform::cortex_a55(), Placement::kHost,
                               Mechanism::kLzTtbr),
                           p);
  EXPECT_DOUBLE_EQ(r.cycles_per_request, 919940.6);
  EXPECT_EQ(r.response_checksum, 8309);
}

// --- Multi-worker httpd --------------------------------------------------------

// Every worker serves its own stream through the same request loop: its
// per-request cost does not depend on how many other workers run, worker 0
// charges the same at 1 and 2 cores, and each worker encrypts with its own
// keys. Under TTBR worker 1's cost differs from worker 0's by 0.9 cycles
// per request at this length; both values are pinned.
TEST(HttpdSmpTest, WorkersServeTheirOwnStreamsAtAnyCoreCount) {
  struct Want {
    Mechanism mech;
    double cycles_per_request[2];  // worker 0, worker 1
  };
  const Want wants[] = {
      {Mechanism::kNone, {909250, 909250}},
      {Mechanism::kLzPan, {913354, 913354}},
      {Mechanism::kLzTtbr, {920107, 920106.1}},
  };
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 40;
  for (const Want& want : wants) {
    SCOPED_TRACE(to_string(want.mech));
    const AppConfig c =
        cfg(arch::Platform::cortex_a55(), Placement::kHost, want.mech);
    for (const unsigned cores : {1u, 2u}) {
      const auto smp = run_httpd_smp(c, p, cores, 64);
      ASSERT_EQ(smp.per_core.size(), cores);
      for (unsigned w = 0; w < cores; ++w) {
        const HttpdResult& r = smp.per_core[w];
        EXPECT_DOUBLE_EQ(r.cycles_per_request, want.cycles_per_request[w]);
        EXPECT_NE(r.response_checksum, 0);
        EXPECT_EQ(r.key_pages, static_cast<u64>(p.concurrent_keys));
        if (want.mech == Mechanism::kLzTtbr) {
          EXPECT_GT(r.isolation_table_pages, 0u);
        }
      }
      EXPECT_GT(smp.total_rps, 0);
      if (cores == 2) {
        EXPECT_NE(smp.per_core[0].response_checksum,
                  smp.per_core[1].response_checksum);
      }
    }
  }
}

// --- POE / CCA through AppDriver ------------------------------------------------

// The cost-model backends build their domains and switch through the same
// LzProc path as LightZone-TTBR: every app model completes under them
// (its LZ_CHECKs included), pays more than vanilla, and is deterministic.
class BackendApps : public ::testing::TestWithParam<Mechanism> {
 protected:
  AppConfig config() const {
    return cfg(arch::Platform::cortex_a55(), Placement::kHost, GetParam());
  }
};

TEST_P(BackendApps, HttpdCostsMoreThanVanillaAndRepeats) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 100;
  EXPECT_GT(httpd_loss(arch::Platform::cortex_a55(), Placement::kHost,
                       GetParam(), p),
            0);
  const auto a = run_httpd(config(), p);
  const auto b = run_httpd(config(), p);
  EXPECT_EQ(a.cycles_per_request, b.cycles_per_request);
  EXPECT_EQ(a.response_checksum, b.response_checksum);
}

TEST_P(BackendApps, DbmsCostsMoreThanVanillaAndRepeats) {
  DbmsParams p = DbmsParams::defaults(arch::Platform::cortex_a55());
  p.transactions = 50;
  const auto base = run_dbms(
      cfg(arch::Platform::cortex_a55(), Placement::kHost, Mechanism::kNone),
      p);
  const auto a = run_dbms(config(), p);
  const auto b = run_dbms(config(), p);
  EXPECT_GT(a.cpu_cycles_per_txn, base.cpu_cycles_per_txn);
  EXPECT_EQ(a.rows_checksum, base.rows_checksum);
  EXPECT_EQ(a.cpu_cycles_per_txn, b.cpu_cycles_per_txn);
  EXPECT_EQ(a.rows_checksum, b.rows_checksum);
}

TEST_P(BackendApps, NvmCostsMoreThanVanillaAndRepeats) {
  NvmParams p;
  p.searches = 1000;
  p.buffers = 8;
  const auto base = run_nvm(
      cfg(arch::Platform::cortex_a55(), Placement::kHost, Mechanism::kNone),
      p);
  const auto a = run_nvm(config(), p);
  const auto b = run_nvm(config(), p);
  EXPECT_GT(nvm_overhead_pct(a, base), 0);
  EXPECT_EQ(a.matches, 1000u);
  EXPECT_EQ(a.cycles_per_search, b.cycles_per_search);
  EXPECT_EQ(a.matches, b.matches);
}

INSTANTIATE_TEST_SUITE_P(
    PoeCca, BackendApps,
    ::testing::Values(Mechanism::kPoe, Mechanism::kCca),
    [](const ::testing::TestParamInfo<Mechanism>& info) {
      return info.param == Mechanism::kPoe ? "Poe" : "Cca";
    });

// --- Fig. 4 shapes --------------------------------------------------------------

// Throughput loss at the CPU-bound plateau (tps is 1/cpu there).
double dbms_loss(const arch::Platform& plat, Placement placement,
                 Mechanism mech, DbmsParams params) {
  const auto base = run_dbms(cfg(plat, placement, Mechanism::kNone), params);
  const auto prot = run_dbms(cfg(plat, placement, mech), params);
  return 100.0 * (prot.cpu_cycles_per_txn - base.cpu_cycles_per_txn) /
         prot.cpu_cycles_per_txn;
}

TEST(DbmsTest, CarmelHostShape) {
  DbmsParams p = DbmsParams::defaults(arch::Platform::carmel());
  p.transactions = 200;
  const double pan = dbms_loss(arch::Platform::carmel(), Placement::kHost,
                               Mechanism::kLzPan, p);
  const double ttbr = dbms_loss(arch::Platform::carmel(), Placement::kHost,
                                Mechanism::kLzTtbr, p);
  const double wp = dbms_loss(arch::Platform::carmel(), Placement::kHost,
                              Mechanism::kWatchpoint, p);
  const double lwc = dbms_loss(arch::Platform::carmel(), Placement::kHost,
                               Mechanism::kLwc, p);
  // Paper: near-zero / 3.79% / 8.35% / 11.80%.
  EXPECT_LT(pan, 2.0);
  EXPECT_NEAR(ttbr, 3.79, 1.5);
  EXPECT_NEAR(wp, 8.35, 2.5);
  EXPECT_NEAR(lwc, 11.80, 4.0);
  EXPECT_LT(pan, ttbr);
  EXPECT_LT(ttbr, wp);
  EXPECT_LT(wp, lwc);
}

TEST(DbmsTest, RowOperationsExecute) {
  DbmsParams p = DbmsParams::defaults(arch::Platform::cortex_a55());
  p.transactions = 50;
  const auto base = run_dbms(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, Mechanism::kNone),
                             p);
  const auto prot = run_dbms(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, Mechanism::kLzTtbr),
                             p);
  EXPECT_NE(base.rows_checksum, 0u);
  EXPECT_EQ(base.rows_checksum, prot.rows_checksum);
}

TEST(DbmsTest, ThroughputPlateausWithThreads) {
  DbmsParams p = DbmsParams::defaults(arch::Platform::carmel());
  p.transactions = 100;
  const AppConfig c =
      cfg(arch::Platform::carmel(), Placement::kHost, Mechanism::kNone);
  const auto r = run_dbms(c, p);
  const double t1 = dbms_tps(r, p, c, 1, 8);
  const double t8 = dbms_tps(r, p, c, 8, 8);
  const double t32 = dbms_tps(r, p, c, 32, 8);
  EXPECT_GT(t8, t1 * 3);
  EXPECT_NEAR(t32, t8, t8 * 0.35);
}

// --- Fig. 5 shapes --------------------------------------------------------------

TEST(NvmTest, CarmelHostOverheads) {
  NvmParams p;
  p.searches = 3000;
  p.buffers = 8;
  const auto base = run_nvm(
      cfg(arch::Platform::carmel(), Placement::kHost, Mechanism::kNone), p);
  const auto pan = run_nvm(
      cfg(arch::Platform::carmel(), Placement::kHost, Mechanism::kLzPan), p);
  const auto ttbr = run_nvm(
      cfg(arch::Platform::carmel(), Placement::kHost, Mechanism::kLzTtbr), p);
  // Paper: PAN 1.75%, TTBR 12.92% on the host.
  EXPECT_NEAR(nvm_overhead_pct(pan, base), 1.75, 1.5);
  EXPECT_NEAR(nvm_overhead_pct(ttbr, base), 12.92, 3.5);
  EXPECT_EQ(base.matches, 3000u);  // every search finds the needle
  EXPECT_EQ(pan.matches, 3000u);
}

TEST(NvmTest, CortexOverheadsAreMinimal) {
  NvmParams p;
  p.searches = 3000;
  p.buffers = 8;
  const auto base = run_nvm(cfg(arch::Platform::cortex_a55(),
                                Placement::kHost, Mechanism::kNone),
                            p);
  const auto pan = run_nvm(cfg(arch::Platform::cortex_a55(),
                               Placement::kHost, Mechanism::kLzPan),
                           p);
  const auto ttbr = run_nvm(cfg(arch::Platform::cortex_a55(),
                                Placement::kHost, Mechanism::kLzTtbr),
                            p);
  // Paper: PAN 0.26%, TTBR 1.81%.
  EXPECT_LT(nvm_overhead_pct(pan, base), 1.5);
  EXPECT_LT(nvm_overhead_pct(ttbr, base), 3.8);
}

TEST(NvmTest, OverheadStableAcrossDomainCounts) {
  // Scalability: going from 4 to 64 buffers must not blow up the TTBR
  // overhead (ASID-tagged tables keep switches cheap).
  NvmParams p4;
  p4.searches = 2000;
  p4.buffers = 4;
  NvmParams p64 = p4;
  p64.buffers = 64;
  const auto base4 = run_nvm(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, Mechanism::kNone),
                             p4);
  const auto ttbr4 = run_nvm(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, Mechanism::kLzTtbr),
                             p4);
  const auto base64 = run_nvm(cfg(arch::Platform::cortex_a55(),
                                  Placement::kHost, Mechanism::kNone),
                              p64);
  const auto ttbr64 = run_nvm(cfg(arch::Platform::cortex_a55(),
                                  Placement::kHost, Mechanism::kLzTtbr),
                              p64);
  const double o4 = nvm_overhead_pct(ttbr4, base4);
  const double o64 = nvm_overhead_pct(ttbr64, base64);
  EXPECT_LT(o64, o4 * 2 + 2.0);
}

// Parameterised sweep: every (platform, placement) pair keeps the paper's
// ordering LightZone-PAN <= LightZone-TTBR on the NVM benchmark.
class NvmOrdering
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NvmOrdering, PanBeatsTtbr) {
  const auto& plat = std::get<0>(GetParam()) == 0
                         ? arch::Platform::cortex_a55()
                         : arch::Platform::carmel();
  const auto placement =
      std::get<1>(GetParam()) == 0 ? Placement::kHost : Placement::kGuest;
  NvmParams p;
  p.searches = 1200;
  p.buffers = 8;
  const auto base = run_nvm(cfg(plat, placement, Mechanism::kNone), p);
  const auto pan = run_nvm(cfg(plat, placement, Mechanism::kLzPan), p);
  const auto ttbr = run_nvm(cfg(plat, placement, Mechanism::kLzTtbr), p);
  EXPECT_LT(nvm_overhead_pct(pan, base), nvm_overhead_pct(ttbr, base));
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, NvmOrdering,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1)));

}  // namespace
}  // namespace lz::workload
