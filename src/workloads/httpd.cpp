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

// The per-event cycle costs of one configuration, probed from its driver
// (pure numbers: the SMP run charges its own machine with them).
struct EventCosts {
  Cycles domain_setup = 0;
  Cycles syscall = 0;
  Cycles tlb_miss = 0;

  static EventCosts of(const AppDriver& driver) {
    return {driver.domain_setup_cost(), driver.syscall_cost(),
            driver.tlb_miss_cost()};
  }
};

// Key arena: one page-aligned slot per live AES_KEY (the paper notes the
// resulting fragmentation: each key gets its own 4 KiB page, §9.1). The
// key material is drawn from `rng` and written through the kernel-side
// view of the process's memory.
void install_keys(kernel::Kernel& kern, kernel::Process& proc,
                  VirtAddr key_arena, int count, Rng& rng) {
  for (int k = 0; k < count; ++k) {
    u8 key[crypto::kAesKeySize];
    for (auto& b : key) b = static_cast<u8>(rng.next());
    kern.copy_to_user(proc, key_arena + static_cast<u64>(k) * kPageSize, key,
                      sizeof(key));
  }
}

// One worker's request stream, served on the calling thread's bound core
// of `machine`. `enter_domain(key)` / `exit_domain(key)` are the worker's
// domain switch around every gated crypto call. Fills every HttpdResult
// field but isolation_table_pages, which the caller knows.
template <class EnterDomain, class ExitDomain>
HttpdResult serve_requests(sim::Machine& machine, kernel::Process& proc,
                           const std::string& tenant, u16 vmid,
                           const EventCosts& costs, VirtAddr key_arena,
                           const u8 (&response)[1024],
                           const HttpdParams& params,
                           EnterDomain enter_domain, ExitDomain exit_domain) {
  auto& core = machine.core();
  auto& account = machine.account();
  // Tenant identity for span/profile attribution: the worker's VMID (its
  // LightZone context, if any) and the process ASID.
  const u16 asid = proc.asid();
  // Per-tenant request instruments (labeled series, DESIGN.md §17),
  // resolved once: without --metrics-out they stay null and the loop pays
  // one branch.
  obs::Counter* requests = nullptr;
  obs::Histogram* request_cycles = nullptr;
  if (obs::registry().labels_enabled()) {
    obs::LabelSet labels;
    labels.set(obs::LabelKey::kTenant, tenant);
    requests = &obs::registry().counter("httpd.requests", labels);
    request_cycles =
        &obs::registry().histogram("httpd.request_cycles", labels);
  }
  double checksum = 0;

  const Cycles start = account.total();
  Cycles req_start = start;
  for (int r = 0; r < params.requests; ++r) {
    const obs::SpanScope request_span(obs::SpanKind::kRequest,
                                      static_cast<u64>(r), vmid, asid);
    // New connection: session key set-up in its domain.
    const int key_id = r % params.concurrent_keys;
    machine.charge(sim::CostKind::kDispatch, costs.domain_setup);

    // Network + file syscalls.
    machine.charge(sim::CostKind::kDispatch,
                   static_cast<Cycles>(params.syscalls_per_request) *
                       costs.syscall);

    // Function-grained crypto: every call passes the isolation boundary,
    // fetches the key from protected memory, and encrypts its share of
    // the traffic.
    const VirtAddr key_va = key_arena + static_cast<u64>(key_id) * kPageSize;
    for (int c = 0; c < params.gated_crypto_calls; ++c) {
      enter_domain(key_id);
      u8 key[crypto::kAesKeySize];
      {
        const sim::Core::HostAccessScope batch(core);
        const auto lo = core.mem_read(key_va, 8);
        const auto hi = core.mem_read(key_va + 8, 8);
        LZ_CHECK(lo.ok && hi.ok);
        std::memcpy(key, &lo.value, 8);
        std::memcpy(key + 8, &hi.value, 8);
      }
      exit_domain(key_id);

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

    machine.charge(sim::CostKind::kTlb,
                   static_cast<Cycles>(params.tlb_misses_per_request *
                                       costs.tlb_miss));
    machine.charge(sim::CostKind::kWorkload, params.app_cycles_per_request);
    LZ_CHECK(proc.alive());
    if (requests != nullptr) {
      const Cycles req_end = account.total();
      requests->add();
      request_cycles->record(req_end - req_start);
      req_start = req_end;
    }
  }

  HttpdResult result;
  result.cycles_per_request =
      static_cast<double>(account.total() - start) / params.requests;
  result.response_checksum = checksum;
  result.key_pages = params.concurrent_keys;
  return result;
}

}  // namespace

void record_tenant_rps(const std::string& tenant, double rps) {
  if (!obs::registry().labels_enabled()) return;
  obs::LabelSet labels;
  labels.set(obs::LabelKey::kTenant, tenant);
  obs::registry().histogram("httpd.rps", labels).record(static_cast<u64>(rps));
}

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
  Rng rng(config.seed);
  const VirtAddr key_arena = core::Env::kHeapVa;
  driver.setup_domains(key_arena, kPageSize, params.concurrent_keys);
  install_keys(driver.env().kern(), driver.proc(), key_arena,
               params.concurrent_keys, rng);
  u8 response[1024];
  for (auto& b : response) b = static_cast<u8>(rng.next());

  const u16 vmid = driver.lz() ? driver.lz()->ctx().vmid : 0;
  obs::set_domain_label(vmid, driver.proc().asid(), "httpd-worker");
  HttpdResult result = serve_requests(
      driver.machine(), driver.proc(), "httpd-worker", vmid,
      EventCosts::of(driver), key_arena, response, params,
      [&](int key_id) { driver.enter_domain(key_id); },
      [&](int key_id) { driver.exit_domain(key_id); });
  result.isolation_table_pages = driver.isolation_table_pages();
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
  LZ_CHECK(cores >= 1);
  LZ_CHECK(config.mech == Mechanism::kNone ||
           config.mech == Mechanism::kLzPan ||
           config.mech == Mechanism::kLzTtbr);

  // Per-event cycle costs probed from a single-core driver of the same
  // configuration.
  const EventCosts costs = EventCosts::of(AppDriver(config));

  Env env(Env::Options()
              .platform(*config.platform)
              .placement(config.placement)
              .cores(cores)
              .seed(config.seed));
  auto& machine = *env.machine;
  const VirtAddr key_arena = Env::kHeapVa;
  const auto tenant = [](unsigned w) {
    return "httpd-worker" + std::to_string(w);
  };

  // Deterministic setup, sequential on the main thread: one worker process
  // per core with its own key arena, domains and (for TTBR) call gates.
  std::vector<kernel::Process*> procs(cores);
  std::vector<std::optional<core::LzProc>> lzs(cores);
  for (unsigned w = 0; w < cores; ++w) {
    sim::Machine::CoreBinding bind(machine, w);
    auto& proc = env.new_process();
    procs[w] = &proc;
    lzs[w] = enter_isolation(config.mech, env, proc);
    setup_process_domains(env, proc, config.mech,
                          lzs[w] ? &*lzs[w] : nullptr, key_arena, kPageSize,
                          params.concurrent_keys);
    obs::set_domain_label(lzs[w] ? lzs[w]->ctx().vmid : 0, proc.asid(),
                          tenant(w));
    // Per-worker keys differ by seed.
    Rng rng(config.seed + w);
    install_keys(env.kern(), proc, key_arena, params.concurrent_keys, rng);
  }

  // Concurrent phase: every worker serves its request stream on its core.
  // Streams are disjoint (own process, own VMID/ASIDs, own per-core TLB),
  // so per-core cycle counts — and therefore all counter totals — are
  // independent of thread interleaving.
  HttpdSmpResult result;
  result.per_core.resize(cores);
  for (unsigned w = 0; w < cores; ++w) {
    env.kern().run_on(w, [&, w](unsigned core_id) {
      auto& lz = lzs[w];
      Rng rng(config.seed ^ (0x9e3779b9u * (core_id + 1)));
      u8 response[1024];
      for (auto& b : response) b = static_cast<u8>(rng.next());

      HttpdResult& res = result.per_core[core_id];
      res = serve_requests(
          machine, *procs[w], tenant(w), lz ? lz->ctx().vmid : 0, costs,
          key_arena, response, params,
          [&](int key_id) {
            if (lz) lz_enter_domain(*lz, config.mech, key_id);
          },
          [&](int) {
            if (lz) lz_exit_domain(*lz, config.mech);
          });
      res.isolation_table_pages = lz ? lz->ctx().isolation_table_pages() : 0;
      if (lz) lz->exit_world();
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
    record_tenant_rps(tenant(w), rps);
  }
  return result;
}

}  // namespace lz::workload
