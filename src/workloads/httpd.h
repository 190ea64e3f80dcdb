// Nginx-like HTTPS server model (Fig. 3, §9.1): one worker serving
// short-lived TLS connections that fetch a 1 KB file. Cryptographic keys
// (one AES_KEY per connection) are isolated — one PAN domain for all keys,
// or one TTBR domain per key with function-grained call gates around every
// crypto call [51].
//
// Key bytes live in simulated protected memory and are fetched through the
// core's translation machinery before each (real) AES-CBC encryption, so
// the protection mechanisms are genuinely on the request path.
#pragma once

#include <string>
#include <vector>

#include "workloads/app_driver.h"

namespace lz::workload {

struct HttpdParams {
  int requests = 2000;
  // Per-request event profile (one connection == one request, as with the
  // paper's `ab` workload without keep-alive).
  int syscalls_per_request = 6;        // accept/read x2/writev/close/epoll
  int gated_crypto_calls = 37;         // function-grained key uses [51]
  double tlb_misses_per_request = 40;  // parser + buffers working set
  int concurrent_keys = 64;            // live AES_KEY instances (domains)
  Cycles app_cycles_per_request = 0;   // baseline compute (TLS + HTTP)
  double rtt_seconds = 200e-6;         // client/network round trip

  static HttpdParams defaults(const arch::Platform& platform);
};

struct HttpdResult {
  double cycles_per_request = 0;
  double response_checksum = 0;  // proof the AES work really ran
  u64 isolation_table_pages = 0;
  // Fragmentation (§9.1): each key occupies a whole 4 KiB page.
  u64 key_pages = 0;
};

HttpdResult run_httpd(const AppConfig& config, const HttpdParams& params);

// Closed-loop throughput for `concurrency` clients against one worker.
double httpd_throughput_rps(const HttpdResult& result,
                            const HttpdParams& params,
                            const AppConfig& config, int concurrency);

// --- SMP scaling (`--cores N`) ------------------------------------------------
// The multi-worker server: one worker process pinned per core of an N-core
// machine, all sharing one kernel and one physical memory (nginx's
// worker-per-core deployment). Supports the vanilla and LightZone
// mechanisms; `concurrency` clients are split evenly across workers and
// `total_rps` sums the per-worker closed-loop throughput.
struct HttpdSmpResult {
  std::vector<HttpdResult> per_core;
  double total_rps = 0;
};

HttpdSmpResult run_httpd_smp(const AppConfig& config,
                             const HttpdParams& params, unsigned cores,
                             int concurrency);

// One throughput sample for `tenant`'s `httpd.rps` distribution (labeled
// series, so a no-op unless --metrics-out enabled labels). run_httpd_smp
// records one per worker; a single-worker sweep records its own.
void record_tenant_rps(const std::string& tenant, double rps);

}  // namespace lz::workload
