#include "check/replay.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace lz::check {

u64 fnv1a(std::string_view bytes, u64 h) {
  for (const char c : bytes) h = (h ^ static_cast<u8>(c)) * 1099511628211ULL;
  return h;
}

u64 hash_streams(const std::vector<std::vector<u8>>& streams) {
  u64 h = kFnvOffsetBasis;
  for (const auto& s : streams) {
    h = fnv1a({reinterpret_cast<const char*>(s.data()), s.size()}, h);
    h = fnv1a("\xFF", h);  // stream separator
  }
  return h;
}

u64 stream_seed(u64 seed, unsigned s) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (s + 1));
}

unsigned stream_count(unsigned streams, unsigned cores) {
  return streams != 0 ? streams : cores;
}

std::vector<std::string> diff_fuzz_counters(const FuzzOutcome& a,
                                            const FuzzOutcome& b,
                                            const IgnoreFn& ignore) {
  if (a.backend != b.backend) {
    return {std::string("backend mismatch: cannot compare counters from "
                        "--backend ") +
            core::to_string(a.backend) + " against --backend " +
            core::to_string(b.backend) +
            "; rerun both sides with the same backend"};
  }
  return diff_counters(a.counters, b.counters, ignore);
}

int replay_gate(unsigned cores,
                const std::function<FuzzOutcome(unsigned cores)>& campaign,
                const std::function<void(std::size_t stream)>& dump_stream) {
  const FuzzOutcome a = campaign(cores);
  const std::string kind = a.stream_kind;
  std::printf("run A: %s, %s hash %016llx\n", a.tally.c_str(), kind.c_str(),
              static_cast<unsigned long long>(a.hash));
  const FuzzOutcome b = campaign(cores);
  const FuzzOutcome c = campaign(1);
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const auto& [run, r] : {std::pair{'A', &a}, {'B', &b}, {'C', &c}}) {
    for (const auto& d : r->divergences) {
      expect(false, std::string("run ") + run + " divergence [" + d.kind +
                        "] " + d.detail);
    }
  }
  // A mismatch prints the first mismatching stream of A and of run y, then
  // hands its index to `dump_stream`.
  const auto streams = [&](const std::string& check, char y_run,
                           const FuzzOutcome& y) {
    expect(a.streams == y.streams, check + kind + " streams");
    const auto [ia, iy] = std::ranges::mismatch(a.streams, y.streams);
    if (ia == a.streams.end() || iy == y.streams.end()) return;
    const auto s = static_cast<std::size_t>(ia - a.streams.begin());
    std::printf("  first mismatching stream (A vs %c): %zu\n", y_run, s);
    for (const auto& [run, bytes] : {std::pair{'A', &*ia}, {y_run, &*iy}}) {
      std::printf("    %s %c:", kind.c_str(), run);
      for (const u8 byte : *bytes) std::printf(" %02x", byte);
      std::printf("\n");
    }
    if (dump_stream) dump_stream(s);
  };
  const auto counters = [&](const char* check,
                            const std::vector<std::string>& diff) {
    expect(diff.empty(), check);
    for (const auto& line : diff) std::printf("    %s\n", line.c_str());
  };

  // Replay determinism, same topology: byte-identical.
  expect(a.hash == b.hash, "replay A==B: " + kind + " hash");
  streams("replay A==B: ", 'B', b);
  counters("replay A==B: counters byte-identical", diff_fuzz_counters(a, b));
  // Topology independence: the same streams on a single core.
  streams("1-core vs N-core: ", 'C', c);
  counters("1-core vs N-core: counters modulo SMP-variant set",
           diff_fuzz_counters(a, c, is_smp_variant_counter));
  return failures;
}

}  // namespace lz::check
