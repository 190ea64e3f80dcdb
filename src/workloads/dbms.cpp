#include "workloads/dbms.h"

#include "support/rng.h"

namespace lz::workload {

DbmsParams DbmsParams::defaults(const arch::Platform& platform) {
  DbmsParams p;
  p.app_cpu_cycles_per_txn =
      &platform == &arch::Platform::carmel() ? 2'600'000 : 1'200'000;
  return p;
}

namespace {

// Row layout inside the protected HP_PTRS arena: 64-byte rows, one table
// per slot region. The model stores a u64 payload per row and checks it.
constexpr u64 kRowBytes = 64;

}  // namespace

DbmsResult run_dbms(const AppConfig& config, const DbmsParams& params) {
  AppDriver driver(config);
  auto& machine = driver.machine();
  auto& core = machine.core();
  Rng rng(config.seed);

  // Domain layout:
  //   slots [0, connections)                 -> per-connection stack pages
  //   slot  connections (the "data domain")  -> HP_PTRS in-memory rows
  // PAN mode protects only the data (stacks cannot each get a domain with
  // a single PAN bit); Watchpoint likewise protects the data domain only
  // ("fails to isolate stacks", §9.2).
  const VirtAddr arena = core::Env::kHeapVa;
  const int data_domain = params.connections;
  const bool per_stack_domains = config.mech == Mechanism::kLzTtbr ||
                                 config.mech == Mechanism::kLwc;
  driver.setup_domains(arena, kPageSize, params.connections + 1);

  const VirtAddr data_va =
      arena + static_cast<u64>(data_domain) * kPageSize;
  // Rows that fit in the modelled page stand in for the full HP_PTRS heap;
  // row addresses wrap within it.
  const u64 modelled_rows = kPageSize / kRowBytes;

  u64 checksum = 0;
  const auto row_va = [&](int table, int row) {
    const u64 idx =
        (static_cast<u64>(table) * params.rows_per_table + row) %
        modelled_rows;
    return data_va + idx * kRowBytes;
  };

  // Seed the visible rows.
  driver.enter_domain(data_domain);
  {
    const sim::Core::HostAccessScope batch(core);
    for (u64 i = 0; i < modelled_rows; ++i) {
      (void)core.mem_write(data_va + i * kRowBytes, 8, i * 2654435761u);
    }
  }
  driver.exit_domain(data_domain);

  const Cycles start = machine.cycles();
  for (int t = 0; t < params.transactions; ++t) {
    const int conn = t % params.connections;

    // The serving thread runs on its own isolated stack: entering the
    // thread's domain happens once per scheduling quantum (modelled as
    // once per transaction).
    if (per_stack_domains) {
      driver.enter_domain(conn);
    }

    driver.charge_syscalls(params.syscalls_per_txn);

    // Row operations against the protected MEMORY engine data.
    const int row_ops = params.point_selects + 4 * params.range_scans +
                        params.updates + 2 * params.inserts;
    for (int op = 0; op < row_ops; ++op) {
      const int table = static_cast<int>(rng.below(params.tables));
      const int row = static_cast<int>(rng.below(params.rows_per_table));
      driver.enter_domain(data_domain);
      {
        const sim::Core::HostAccessScope batch(core);
        const auto r = core.mem_read(row_va(table, row), 8);
        LZ_CHECK(r.ok);
        checksum += r.value;
        if (op < params.updates) {
          (void)core.mem_write(row_va(table, row), 8, r.value + 1);
        }
      }
      driver.exit_domain(data_domain);
      // Index lookup + row copy costs ride in app cycles.
    }

    if (per_stack_domains) {
      driver.exit_domain(conn);
    }

    driver.charge_tlb_misses(params.tlb_misses_per_txn);
    driver.charge_app(params.app_cpu_cycles_per_txn);
  }

  DbmsResult result;
  result.cpu_cycles_per_txn =
      static_cast<double>(machine.cycles() - start) / params.transactions;
  result.rows_checksum = checksum;
  result.isolation_table_pages = driver.isolation_table_pages();
  return result;
}

double dbms_tps(const DbmsResult& result, const DbmsParams& params,
                const AppConfig& config, int threads, int cores) {
  const double freq = config.platform->freq_ghz * 1e9;
  const double cpu_s = result.cpu_cycles_per_txn / freq;
  const double latency_s = cpu_s + params.io_seconds_per_txn;
  // Client-limited at low thread counts; CPU-limited at the plateau.
  return std::min(threads / latency_s, cores / cpu_s);
}

}  // namespace lz::workload
