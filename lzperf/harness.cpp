#include "harness.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/counters.h"
#include "sim/trace_cache.h"

namespace lzperf {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kOp: return "bench.op";
    case Layer::kGateSwitch: return "lightzone.gate_switch";
    case Layer::kPanToggle: return "lightzone.pan_toggle";
    case Layer::kMemRead: return "sim.mem_read";
    case Layer::kAes: return "workloads.aes";
    case Layer::kSearch: return "workloads.search";
    case Layer::kCharge: return "sim.charge";
    case Layer::kRunStraightLine: return "sim.run.straight_line";
    case Layer::kRunPointerChase: return "sim.run.pointer_chase";
    case Layer::kRunDomainSwitch: return "sim.run.domain_switch";
    case Layer::kAlloc: return "lightzone.alloc";
    case Layer::kProt: return "lightzone.prot";
    case Layer::kGateMap: return "lightzone.gate_map";
    case Layer::kFaultIn: return "lightzone.fault_in";
    case Layer::kProbe: return "sim.translate";
    case Layer::kFree: return "lightzone.free";
    case Layer::kDriverBuild: return "workloads.driver_build";
    case Layer::kSetupDomains: return "lightzone.setup_domains";
    case Layer::kCopyToUser: return "kernel.copy_to_user";
    case Layer::kCount: break;
  }
  return "?";
}

Counts read_counts() {
  Counts c;
  for (auto& [name, v] : lz::obs::registry().snapshot()) c[name] = v;
  for (auto& [name, v] : lz::obs::registry().host_snapshot()) c[name] = v;
  return c;
}

Counts diff(const Counts& before, const Counts& after) {
  Counts d;
  for (const auto& [name, v] : after) d[name] = v - get(before, name);
  return d;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Probe iterations per second of the reference host (the probe's median on
// a 4-vCPU Xeon VM), so scaled figures stay close to raw ones there.
constexpr double kRefProbeRate = 1e8;
constexpr u64 kProbeIters = 100'000;

u64 probe_loop(u64 iters) {
  thread_local std::array<u32, 4096> table{};
  u64 x = 0x9e3779b97f4a7c15ULL;
  for (u64 i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    u32& e = table[(x >> 20) & (table.size() - 1)];
    if ((e & 1) != 0) {
      e += static_cast<u32>(x);
    } else {
      e ^= static_cast<u32>(x >> 32);
    }
  }
  return x + table[0];
}

}  // namespace

double host_scale() {
  const u64 t0 = now_ns();
  volatile u64 sink = probe_loop(kProbeIters);
  (void)sink;
  const double rate = kProbeIters / (static_cast<double>(now_ns() - t0) / 1e9);
  return kRefProbeRate / rate;
}

void Phase::add_batch(u64 batch_ops, u64 batch_insns, u64 batch_ns) {
  const double s = static_cast<double>(batch_ns) / 1e9 / host_scale();
  op_rates.push_back(static_cast<double>(batch_ops) / s);
  insn_rates.push_back(static_cast<double>(batch_insns) / s);
}

void layer_metrics(const std::vector<const Tracer*>& tracers,
                   const Phase& phase, std::vector<Metric>& out) {
  constexpr auto kLayers = static_cast<std::size_t>(Layer::kCount);
  std::vector<std::vector<double>> dur(kLayers);
  double attributed_ns = 0;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    for (const Span& s : spans) {
      if (s.layer == Layer::kOp) continue;
      const double ns = static_cast<double>(s.end_ns - s.start_ns);
      dur[static_cast<std::size_t>(s.layer)].push_back(ns);
      // Layer spans sit directly under an op (or at top level for scenario
      // builds), so their sum is the phase time the layers account for.
      if (s.parent == kNoSpan || spans[s.parent].layer == Layer::kOp) {
        attributed_ns += ns;
      }
    }
  }
  const double phase_ns = phase.seconds * 1e9 * phase.threads;
  const double ops = static_cast<double>(phase.ops);
  for (std::size_t i = 1; i < kLayers; ++i) {
    const auto layer = static_cast<Layer>(i);
    if (is_setup_layer(layer)) continue;
    const std::string name = layer_name(layer);
    const auto& d = dur[i];
    double sum = 0;
    for (const double x : d) sum += x;
    out.push_back({name + ".share", ratio(sum, phase_ns), "ratio"});
    out.push_back({name + ".p50_ns", percentile(d, 0.50), "ns"});
    out.push_back({name + ".p99_ns", percentile(d, 0.99), "ns"});
    out.push_back({name + ".samples", static_cast<double>(d.size()), "count"});
    out.push_back({name + ".calls_per_op", ratio(d.size(), ops), "count"});
    if (layer == Layer::kRunStraightLine || layer == Layer::kRunPointerChase ||
        layer == Layer::kRunDomainSwitch) {
      const auto it = phase.steps.find(layer);
      const double steps = it == phase.steps.end() ? 0 : it->second;
      out.push_back({name + ".mips", ratio(steps, sum / 1e3), "MIPS"});
    }
  }
  out.push_back(
      {"bench.self.share", ratio(phase_ns - attributed_ns, phase_ns), "ratio"});
}

void setup_layer_metrics(const Tracer& tracer, std::vector<Metric>& out) {
  for (auto l : {Layer::kDriverBuild, Layer::kSetupDomains,
                 Layer::kCopyToUser}) {
    std::vector<double> s;
    for (const Span& sp : tracer.spans()) {
      if (sp.layer == l) s.push_back((sp.end_ns - sp.start_ns) / 1e9);
    }
    out.push_back({std::string(layer_name(l)) + "_s", median(s), "s"});
  }
}

void count_metrics(const Phase& phase, std::vector<Metric>& out) {
  const Counts& c = phase.counts;
  const double ops = static_cast<double>(phase.ops);
  const double insns = get(c, "sim.core.insn_retired");
  const double builds = get(c, "sim.trace.built");
  const double invals = get(c, "sim.trace.invalidated_smc") +
                        get(c, "sim.trace.invalidated_gen") +
                        get(c, "sim.trace.invalidated_teardown");
  const double hits = get(c, "mem.tlb.l1_hit") + get(c, "mem.tlb.l2_hit");
  const double lookups = hits + get(c, "mem.tlb.miss");
  const auto per_op = [&](const char* name, const char* counter) {
    out.push_back({name, ratio(get(c, counter), ops), "count"});
  };
  out.push_back({"bench.traced_ops", ops, "count"});
  out.push_back({"sim.cycles_per_op",
                 ratio(static_cast<double>(phase.sim_cycles), ops), "cycles"});
  out.push_back({"sim.insns", insns, "count"});
  out.push_back({"sim.insns_per_op", ratio(insns, ops), "count"});
  out.push_back({"arch.decodes_per_insn",
                 ratio(static_cast<double>(phase.decodes), insns), "ratio"});
  out.push_back({"sim.trace.coverage",
                 ratio(get(c, "sim.trace.insns"), insns), "ratio"});
  out.push_back({"sim.trace.builds", builds, "count"});
  out.push_back({"sim.trace.execs_per_build",
                 ratio(get(c, "sim.trace.executed"), builds), "count"});
  out.push_back(
      {"sim.trace.invalidations_per_build", ratio(invals, builds), "count"});
  out.push_back({"mem.tlb.lookups", lookups, "count"});
  out.push_back({"mem.tlb.hit_ratio", ratio(hits, lookups), "ratio"});
  per_op("mem.tlb.misses_per_op", "mem.tlb.miss");
  per_op("mem.tlb.invalidations_per_op", "mem.tlb.invalidation");
  per_op("sim.dvm.broadcasts_per_op", "sim.dvm.broadcast");
  per_op("lightzone.gate_switches_per_op", "lz.module.gate_switch");
  per_op("lightzone.pan_toggles_per_op", "lz.module.pan_toggle");
  per_op("lightzone.s1_faults_per_op", "lz.module.s1_fault");
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // drop trailing NULs
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

}  // namespace

std::string fingerprint_json() {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"lz_check\": %s, \"trace_tier_default\": %s}",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(LZPERF_COMPILER).c_str(), LZPERF_BUILD_TYPE,
      LZPERF_LZ_CHECK ? "true" : "false",
      lz::sim::trace_tier_default() ? "true" : "false");
  return buf;
}

}  // namespace lzperf
