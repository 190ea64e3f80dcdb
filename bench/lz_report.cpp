// lz_report — validate, diff and regression-gate lz.bench.report documents.
//
// Usage:
//   lz_report <report.json>
//   lz_report <base.json> <candidate.json>... [gates]
//
// With one file and no gates it only validates that file and prints
// `<file>: ok (<schema>, bench=<name>)`.
//
// Gates (all optional; with none given the tool only prints the diff; a
// gate value may also be given as --result-min=KEY:PCT):
//   --result-min KEY:PCT     the best candidate's results[KEY] must be at
//                            least (1 - PCT/100) x the baseline value
//                            (wall-clock headline numbers like MIPS are
//                            noisy downward, so pass several candidates
//                            and let the best one speak)
//   --result-floor KEY:VAL   the best candidate's results[KEY] must be at
//                            least VAL, absolutely — for hard product
//                            claims ("500+ host MIPS") that a drifting
//                            baseline must not be able to relax
//   --require-cycles-equal   every candidate's simulated cycles.total must
//                            equal the baseline's exactly — the
//                            determinism gate for observe-only changes
//   --require-sim-identical  every candidate document must serialise
//                            byte-identically to the baseline after the
//                            "host" member (host-side counters such as
//                            sim.trace.*) is stripped from both — the
//                            byte-compare gate for configs that execute
//                            identical simulated work but different host
//                            engines (trace tier on vs off)
//
// Every file is parsed with the same obs::Json parser the benches
// serialise with and schema-checked with obs::Report::validate before any
// comparison, so a malformed artifact fails loudly instead of producing a
// vacuous pass. The flags go through the bench binaries' strict parser
// (flag_parser.h). Exit codes: 0 all gates pass, 1 a gate failed, 2 usage
// / I/O / parse error. This replaces the ad-hoc grep/awk comparisons ci.sh
// used to carry.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "flag_parser.h"
#include "obs/report.h"

namespace {

using lz::u64;
using lz::obs::Json;

struct Gate {
  std::string key;   // result key
  double value = 0;  // --result-min: allowed regression, percent;
                     // --result-floor: the absolute floor
};

void print_usage(const char* argv0, std::FILE* out) {
  std::fprintf(out,
               "usage: %s <report.json>\n"
               "       %s <base.json> <candidate.json>... [gates]\n"
               "  --result-min KEY:PCT     best candidate results[KEY] >= "
               "(1-PCT/100) x base\n"
               "  --result-floor KEY:VAL   best candidate results[KEY] >= "
               "VAL (absolute)\n"
               "  --require-cycles-equal   all candidate cycles.total == "
               "base cycles.total\n"
               "  --require-sim-identical  all candidate docs byte-identical "
               "to base after\n"
               "                           stripping the \"host\" section\n"
               "  --help, -h               this text\n",
               argv0, argv0);
}

std::optional<Json> load_report(const char* path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "lz_report: %s: cannot open\n", path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  auto doc = Json::parse(buf.str());
  if (!doc.has_value()) {
    std::fprintf(stderr, "lz_report: %s: malformed JSON\n", path);
    return std::nullopt;
  }
  if (!lz::obs::Report::validate(*doc)) {
    std::fprintf(stderr, "lz_report: %s: schema validation failed\n", path);
    return std::nullopt;
  }
  return doc;
}

// Parses KEY:NUM. The whole of NUM must be a finite decimal in [0, max]:
// a "nan" or "inf" would make the gate's comparison pass vacuously.
Gate parse_gate(const lz::bench::FlagParser& p, const std::string& spec,
                double max) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    p.die("bad gate spec (want KEY:NUM)", spec);
  }
  Gate g;
  g.key = spec.substr(0, colon);
  const char* end = spec.data() + spec.size();
  const auto [ptr, ec] = std::from_chars(spec.data() + colon + 1, end, g.value);
  if (ec != std::errc() || ptr != end || !std::isfinite(g.value) ||
      g.value < 0 || g.value > max) {
    p.die("bad gate value in", spec);
  }
  return g;
}

std::optional<double> result_value(const Json& doc, const std::string& key) {
  const Json* results = doc.find("results");
  if (results == nullptr) return std::nullopt;
  const Json* v = results->find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_double();
}

std::optional<u64> cycles_total(const Json& doc) {
  const Json* cycles = doc.find("cycles");
  if (cycles == nullptr) return std::nullopt;
  const Json* total = cycles->find("total");
  if (total == nullptr || !total->is_number()) return std::nullopt;
  return total->as_u64();
}

std::optional<double> hist_percentile(const Json& doc, const std::string& name,
                                      const char* pct_key) {
  const Json* hists = doc.find("histograms");
  if (hists == nullptr) return std::nullopt;
  const Json* h = hists->find(name);
  if (h == nullptr) return std::nullopt;
  const Json* v = h->find(pct_key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_double();
}

double pct_delta(double base, double got) {
  if (base == 0) return got == 0 ? 0 : HUGE_VAL;
  return (got - base) / base * 100.0;
}

// Shallow copy of an object document minus one top-level member. Used by
// --require-sim-identical to drop the "host" section (host-side engine
// counters like sim.trace.*) before byte-comparing two configs that must
// agree on all simulation-derived sections.
Json without_member(const Json& doc, std::string_view member) {
  Json out = Json::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != member) out.set(key, value);
  }
  return out;
}

// Human-readable diff of base vs the first candidate: shared result keys,
// cycle totals, and p50/p90/p99 of every shared histogram.
void print_diff(const Json& base, const Json& cand) {
  std::printf("== results (base vs candidate) ==\n");
  const Json* base_results = base.find("results");
  if (base_results != nullptr) {
    for (const auto& [key, value] : base_results->members()) {
      if (!value.is_number()) continue;
      const auto got = result_value(cand, key);
      if (!got.has_value()) continue;
      std::printf("  %-40s %14.3f -> %14.3f  (%+.2f%%)\n", key.c_str(),
                  value.as_double(), *got,
                  pct_delta(value.as_double(), *got));
    }
  }
  const auto base_cycles = cycles_total(base);
  const auto cand_cycles = cycles_total(cand);
  if (base_cycles.has_value() && cand_cycles.has_value()) {
    std::printf("== cycles.total ==\n  %llu -> %llu  (%s)\n",
                static_cast<unsigned long long>(*base_cycles),
                static_cast<unsigned long long>(*cand_cycles),
                *base_cycles == *cand_cycles ? "equal" : "DIFFERENT");
  }
  const Json* base_hists = base.find("histograms");
  if (base_hists != nullptr && base_hists->size() > 0) {
    std::printf("== histograms (p50/p90/p99 deltas) ==\n");
    for (const auto& [name, h] : base_hists->members()) {
      (void)h;
      bool any = false;
      std::string line = "  " + name + ":";
      for (const char* p : {"p50", "p90", "p99"}) {
        const auto b = hist_percentile(base, name, p);
        const auto c = hist_percentile(cand, name, p);
        if (!b.has_value() || !c.has_value()) continue;
        any = true;
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %.0f->%.0f (%+.2f%%)", p, *b, *c,
                      pct_delta(*b, *c));
        line += buf;
      }
      if (any) std::printf("%s\n", line.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<Gate> result_min, result_floor;
  bool require_cycles_equal = false;
  bool require_sim_identical = false;
  lz::bench::FlagParser p(argc, argv, [argv](std::FILE* out) {
    print_usage(argv[0], out);
  });
  std::string spec;
  while (p.next()) {
    if (p.take("--result-min", &spec)) {
      result_min.push_back(parse_gate(p, spec, 100.0));
    } else if (p.take("--result-floor", &spec)) {
      result_floor.push_back(parse_gate(p, spec, HUGE_VAL));
    } else if (p.arg() == "--require-cycles-equal") {
      require_cycles_equal = true;
    } else if (p.arg() == "--require-sim-identical") {
      require_sim_identical = true;
    } else if (p.arg().starts_with("--")) {
      p.die("unknown flag", p.arg());
    } else {
      files.push_back(p.arg());
    }
  }

  const bool any_gate = !result_min.empty() || !result_floor.empty() ||
                        require_cycles_equal || require_sim_identical;
  if (files.size() == 1 && !any_gate) {
    const auto doc = load_report(files[0].c_str());
    if (!doc.has_value()) return 2;
    std::printf("%s: ok (%s, bench=%s)\n", files[0].c_str(),
                doc->find("schema")->as_string().c_str(),
                doc->find("bench")->as_string().c_str());
    return 0;
  }
  if (files.size() < 2) {
    print_usage(argv[0], stderr);
    return 2;
  }

  const auto base = load_report(files[0].c_str());
  if (!base.has_value()) return 2;
  std::vector<Json> candidates;
  for (std::size_t i = 1; i < files.size(); ++i) {
    auto cand = load_report(files[i].c_str());
    if (!cand.has_value()) return 2;
    candidates.push_back(std::move(*cand));
  }

  print_diff(*base, candidates.front());

  int failures = 0;

  if (require_cycles_equal) {
    const auto want = cycles_total(*base);
    if (!want.has_value()) {
      std::fprintf(stderr, "lz_report: %s: no cycles.total\n",
                   files[0].c_str());
      return 2;
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto got = cycles_total(candidates[i]);
      if (!got.has_value() || *got != *want) {
        std::fprintf(stderr,
                     "lz_report: FAIL cycles.total: %s has %llu, baseline "
                     "%s has %llu\n",
                     files[i + 1].c_str(),
                     static_cast<unsigned long long>(got.value_or(0)),
                     files[0].c_str(),
                     static_cast<unsigned long long>(*want));
        ++failures;
      }
    }
    if (failures == 0) {
      std::printf("lz_report: ok cycles.total equal across %zu candidate(s)\n",
                  candidates.size());
    }
  }

  if (require_sim_identical) {
    const std::string want = without_member(*base, "host").dump();
    int sim_failures = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::string got = without_member(candidates[i], "host").dump();
      if (got != want) {
        std::fprintf(stderr,
                     "lz_report: FAIL sim sections differ: %s vs baseline %s "
                     "(after stripping \"host\")\n",
                     files[i + 1].c_str(), files[0].c_str());
        ++sim_failures;
      }
    }
    if (sim_failures == 0) {
      std::printf(
          "lz_report: ok sim sections identical across %zu candidate(s)\n",
          candidates.size());
    }
    failures += sim_failures;
  }

  // The best (highest) candidate value of results[key]; a key no candidate
  // carries is a usage error, not a pass.
  const auto best_result = [&](const std::string& key) {
    double best = -HUGE_VAL;
    bool any = false;
    for (const Json& cand : candidates) {
      const auto got = result_value(cand, key);
      if (!got.has_value()) continue;
      any = true;
      if (*got > best) best = *got;
    }
    if (!any) {
      std::fprintf(stderr, "lz_report: no candidate has result '%s'\n",
                   key.c_str());
      std::exit(2);
    }
    return best;
  };

  for (const Gate& g : result_min) {
    const auto want = result_value(*base, g.key);
    if (!want.has_value()) {
      std::fprintf(stderr, "lz_report: %s: no result '%s'\n",
                   files[0].c_str(), g.key.c_str());
      return 2;
    }
    const double best = best_result(g.key);
    const double floor = *want * (1.0 - g.value / 100.0);
    if (best < floor) {
      std::fprintf(stderr,
                   "lz_report: FAIL result %s regressed >%.3g%%: best %.3f "
                   "vs baseline %.3f\n",
                   g.key.c_str(), g.value, best, *want);
      ++failures;
    } else {
      std::printf("lz_report: ok result %s: best %.3f vs baseline %.3f "
                  "(floor %.3f)\n",
                  g.key.c_str(), best, *want, floor);
    }
  }

  // Absolute floor: the baseline value is irrelevant by design.
  for (const Gate& g : result_floor) {
    const double best = best_result(g.key);
    if (best < g.value) {
      std::fprintf(stderr,
                   "lz_report: FAIL result %s below absolute floor: best "
                   "%.3f < %.3f\n",
                   g.key.c_str(), best, g.value);
      ++failures;
    } else {
      std::printf("lz_report: ok result %s: best %.3f >= floor %.3f\n",
                  g.key.c_str(), best, g.value);
    }
  }

  return failures == 0 ? 0 : 1;
}
