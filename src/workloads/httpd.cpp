#include "workloads/httpd.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "lightzone/api.h"
#include "obs/counters.h"
#include "obs/span.h"
#include "support/rng.h"
#include "workloads/crypto/aes.h"

namespace lz::workload {

namespace {

// Per-tenant request instruments (labeled series, DESIGN.md §17). Handles
// are resolved once per worker before its request loop — the loop itself
// records through cached pointers (one relaxed add each), and without
// --metrics-out the pointers stay null and the loop pays one branch.
struct TenantRequestMetrics {
  obs::Counter* requests = nullptr;
  obs::Histogram* request_cycles = nullptr;

  static TenantRequestMetrics resolve(const std::string& tenant) {
    TenantRequestMetrics m;
    if (!obs::registry().labels_enabled()) return m;
    obs::LabelSet labels;
    labels.set(obs::LabelKey::kTenant, tenant);
    m.requests = &obs::registry().counter("httpd.requests", labels);
    m.request_cycles = &obs::registry().histogram("httpd.request_cycles", labels);
    return m;
  }
};

}  // namespace

HttpdParams HttpdParams::defaults(const arch::Platform& platform) {
  HttpdParams p;
  // Baseline per-request compute (TLS handshake share + record crypto +
  // HTTP parsing). The wide Carmel core retires the same work in fewer
  // cycles than the in-order A55.
  p.app_cycles_per_request =
      &platform == &arch::Platform::carmel() ? 667'000 : 905'000;
  return p;
}

HttpdResult run_httpd(const AppConfig& config, const HttpdParams& params) {
  AppDriver driver(config);
  auto& machine = driver.machine();
  auto& core = machine.core();
  Rng rng(config.seed);

  // Key arena: one page-aligned slot per live AES_KEY (the paper notes the
  // resulting fragmentation: each key gets its own 4 KiB page, §9.1).
  const VirtAddr key_arena = core::Env::kHeapVa;
  driver.setup_domains(key_arena, kPageSize, params.concurrent_keys);

  // Install the actual key material.
  for (int k = 0; k < params.concurrent_keys; ++k) {
    u8 key[crypto::kAesKeySize];
    for (auto& b : key) b = static_cast<u8>(rng.next());
    // Write through the kernel-side view of the process's memory.
    driver.env().kern().copy_to_user(
        driver.proc(), key_arena + static_cast<u64>(k) * kPageSize, key,
        sizeof(key));
  }

  u8 response[1024];
  for (auto& b : response) b = static_cast<u8>(rng.next());
  double checksum = 0;

  // Tenant identity for span/profile attribution: the worker's VMID (its
  // LightZone context, if any) and the process ASID.
  const u16 span_vmid = driver.lz() ? driver.lz()->ctx().vmid : 0;
  const u16 span_asid = driver.proc().asid();
  obs::set_domain_label(span_vmid, span_asid, "httpd-worker");
  const auto tenant_metrics = TenantRequestMetrics::resolve("httpd-worker");

  const Cycles start = machine.cycles();
  Cycles req_start = start;
  for (int r = 0; r < params.requests; ++r) {
    const obs::SpanScope request_span(obs::SpanKind::kRequest,
                                      static_cast<u64>(r), span_vmid,
                                      span_asid);
    // New connection: session key set-up in its domain.
    const int key_id = r % params.concurrent_keys;
    machine.charge(sim::CostKind::kDispatch, driver.domain_setup_cost());

    // Network + file syscalls.
    driver.charge_syscalls(params.syscalls_per_request);

    // Function-grained crypto: every call passes the isolation boundary,
    // fetches the key from protected memory, and encrypts its share of
    // the traffic.
    const VirtAddr key_va = key_arena + static_cast<u64>(key_id) * kPageSize;
    for (int c = 0; c < params.gated_crypto_calls; ++c) {
      driver.enter_domain(key_id);
      u8 key[crypto::kAesKeySize];
      const auto lo = core.mem_read(key_va, 8);
      const auto hi = core.mem_read(key_va + 8, 8);
      LZ_CHECK(lo.ok && hi.ok);
      std::memcpy(key, &lo.value, 8);
      std::memcpy(key + 8, &hi.value, 8);
      driver.exit_domain(key_id);

      if (c == 0) {
        // One real AES-CBC encryption of the 1 KB response per request;
        // the remaining calls cover handshake records and MACs whose
        // compute lives in app_cycles.
        const auto expanded = crypto::aes_expand_key(key);
        u8 iv[crypto::kAesBlockSize] = {};
        iv[0] = static_cast<u8>(r);
        u8 buf[1024];
        std::memcpy(buf, response, sizeof(buf));
        crypto::aes_cbc_encrypt(expanded, iv, buf, sizeof(buf));
        checksum += buf[0] + buf[512] + buf[1023];
      }
    }

    driver.charge_tlb_misses(params.tlb_misses_per_request);
    driver.charge_app(params.app_cycles_per_request);
    if (tenant_metrics.requests != nullptr) {
      const Cycles req_end = machine.cycles();
      tenant_metrics.requests->add();
      tenant_metrics.request_cycles->record(req_end - req_start);
      req_start = req_end;
    }
  }

  HttpdResult result;
  result.cycles_per_request =
      static_cast<double>(machine.cycles() - start) / params.requests;
  result.response_checksum = checksum;
  result.isolation_table_pages = driver.isolation_table_pages();
  result.key_pages = params.concurrent_keys;
  return result;
}

double httpd_throughput_rps(const HttpdResult& result,
                            const HttpdParams& params,
                            const AppConfig& config, int concurrency) {
  const double freq = config.platform->freq_ghz * 1e9;
  const double service_s = result.cycles_per_request / freq;
  const double latency_s = service_s + params.rtt_seconds;
  // One worker: client-limited until the worker saturates.
  return std::min(concurrency / latency_s, 1.0 / service_s);
}

HttpdSmpResult run_httpd_smp(const AppConfig& config,
                             const HttpdParams& params, unsigned cores,
                             int concurrency) {
  using core::Env;
  using core::LzProc;
  LZ_CHECK(cores >= 1);
  LZ_CHECK(config.mech == Mechanism::kNone ||
           config.mech == Mechanism::kLzPan ||
           config.mech == Mechanism::kLzTtbr);

  // Per-event cycle costs probed from a single-core driver of the same
  // configuration (they are pure numbers; the SMP run charges its own
  // machine with them).
  Cycles setup_cost = 0, syscall_cost = 0, tlb_miss = 0;
  {
    AppDriver probe(config);
    setup_cost = probe.domain_setup_cost();
    syscall_cost = probe.syscall_cost();
    tlb_miss = probe.tlb_miss_cost();
  }

  Env env(Env::Options()
              .platform(*config.platform)
              .placement(config.placement == Placement::kHost
                             ? Env::Placement::kHost
                             : Env::Placement::kGuest)
              .cores(cores)
              .seed(config.seed));
  auto& machine = *env.machine;
  const VirtAddr key_arena = Env::kHeapVa;

  // Deterministic setup, sequential on the main thread: one worker process
  // per core with its own key arena, domains and (for TTBR) call gates.
  std::vector<kernel::Process*> procs(cores);
  std::vector<std::optional<LzProc>> lzs(cores);
  for (unsigned w = 0; w < cores; ++w) {
    sim::Machine::CoreBinding bind(machine, w);
    auto& proc = env.new_process();
    procs[w] = &proc;
    lzs[w] = enter_isolation(config.mech, env, proc);
    setup_process_domains(env, proc, config.mech,
                          lzs[w] ? &*lzs[w] : nullptr, key_arena, kPageSize,
                          params.concurrent_keys);

    // Tenant label for span/profile attribution of this worker's domain.
    obs::set_domain_label(lzs[w] ? lzs[w]->ctx().vmid : 0, proc.asid(),
                          "httpd-worker" + std::to_string(w));

    // Install the key material (per-worker keys differ by seed).
    Rng rng(config.seed + w);
    for (int k = 0; k < params.concurrent_keys; ++k) {
      u8 key[crypto::kAesKeySize];
      for (auto& b : key) b = static_cast<u8>(rng.next());
      env.kern().copy_to_user(proc,
                              key_arena + static_cast<u64>(k) * kPageSize,
                              key, sizeof(key));
    }
  }

  // Concurrent phase: every worker serves its request stream on its core.
  // Streams are disjoint (own process, own VMID/ASIDs, own per-core TLB),
  // so per-core cycle counts — and therefore all counter totals — are
  // independent of thread interleaving.
  HttpdSmpResult result;
  result.per_core.resize(cores);
  for (unsigned w = 0; w < cores; ++w) {
    env.kern().run_on(w, [&, w](unsigned core_id) {
      auto& core = machine.core(core_id);
      auto& proc = *procs[w];
      Rng rng(config.seed ^ (0x9e3779b9u * (core_id + 1)));
      u8 response[1024];
      for (auto& b : response) b = static_cast<u8>(rng.next());
      double checksum = 0;

      const auto enter_dom = [&](int key_id) {
        if (lzs[w]) lz_enter_domain(*lzs[w], config.mech, key_id);
      };
      const auto exit_dom = [&] {
        if (lzs[w]) lz_exit_domain(*lzs[w], config.mech);
      };

      const u16 span_vmid = lzs[w] ? lzs[w]->ctx().vmid : 0;
      const u16 span_asid = proc.asid();
      const auto tenant_metrics =
          TenantRequestMetrics::resolve("httpd-worker" + std::to_string(w));

      const Cycles start = machine.account(core_id).total();
      Cycles req_start = start;
      for (int r = 0; r < params.requests; ++r) {
        const obs::SpanScope request_span(obs::SpanKind::kRequest,
                                          static_cast<u64>(r), span_vmid,
                                          span_asid);
        const int key_id = r % params.concurrent_keys;
        machine.charge(sim::CostKind::kDispatch, setup_cost);
        machine.charge(sim::CostKind::kDispatch,
                       static_cast<Cycles>(params.syscalls_per_request) *
                           syscall_cost);
        const VirtAddr key_va =
            key_arena + static_cast<u64>(key_id) * kPageSize;
        for (int c = 0; c < params.gated_crypto_calls; ++c) {
          enter_dom(key_id);
          u8 key[crypto::kAesKeySize];
          const auto lo = core.mem_read(key_va, 8);
          const auto hi = core.mem_read(key_va + 8, 8);
          LZ_CHECK(lo.ok && hi.ok);
          std::memcpy(key, &lo.value, 8);
          std::memcpy(key + 8, &hi.value, 8);
          exit_dom();
          if (c == 0) {
            const auto expanded = crypto::aes_expand_key(key);
            u8 iv[crypto::kAesBlockSize] = {};
            iv[0] = static_cast<u8>(r);
            u8 buf[1024];
            std::memcpy(buf, response, sizeof(buf));
            crypto::aes_cbc_encrypt(expanded, iv, buf, sizeof(buf));
            checksum += buf[0] + buf[512] + buf[1023];
          }
        }
        machine.charge(sim::CostKind::kTlb,
                       static_cast<Cycles>(params.tlb_misses_per_request *
                                           tlb_miss));
        machine.charge(sim::CostKind::kWorkload,
                       params.app_cycles_per_request);
        LZ_CHECK(proc.alive());
        if (tenant_metrics.requests != nullptr) {
          const Cycles req_end = machine.account(core_id).total();
          tenant_metrics.requests->add();
          tenant_metrics.request_cycles->record(req_end - req_start);
          req_start = req_end;
        }
      }

      HttpdResult& res = result.per_core[core_id];
      res.cycles_per_request =
          static_cast<double>(machine.account(core_id).total() - start) /
          params.requests;
      res.response_checksum = checksum;
      res.isolation_table_pages =
          lzs[w] ? lzs[w]->ctx().isolation_table_pages() : 0;
      res.key_pages = params.concurrent_keys;
      if (lzs[w]) lzs[w]->exit_world();
    });
  }
  env.kern().schedule();

  // Clients split evenly across workers; each worker is an independent
  // closed-loop server.
  const int share = std::max(1, concurrency / static_cast<int>(cores));
  for (unsigned w = 0; w < cores; ++w) {
    const double rps =
        httpd_throughput_rps(result.per_core[w], params, config, share);
    result.total_rps += rps;
    // Per-tenant rps distribution: one sample per worker per run, so a
    // fig3 sweep accumulates the per-tenant throughput spread across its
    // combo/mechanism grid.
    if (obs::registry().labels_enabled()) {
      obs::LabelSet labels;
      labels.set(obs::LabelKey::kTenant, "httpd-worker" + std::to_string(w));
      obs::registry().histogram("httpd.rps", labels).record(static_cast<u64>(rps));
    }
  }
  return result;
}

}  // namespace lz::workload
