#include "obs/expose.h"

#include <cinttypes>
#include <cstdio>

#include "obs/counters.h"
#include "obs/selfprof.h"

namespace lz::obs {

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; our registry names use '.'
// separators, so mangle those (and anything else exotic) to '_'.
std::string mangle(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

void append_u64(std::string& out, u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_fixed3(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

// One exposition line: `name[labels] value\n`. `extra` is an additional
// label fragment (e.g. `quantile="0.99"` or `overflow="true"`) merged into
// the label braces after the LabelSet's own labels.
void line(std::string& out, const std::string& name, const LabelSet& labels,
          std::string_view extra, u64 value) {
  out += name;
  std::string rendered = labels.render();
  if (!extra.empty()) {
    if (rendered.empty()) {
      rendered += '{';
    } else {
      rendered.pop_back();  // '}'
      rendered += ',';
    }
    rendered += extra;
    rendered += '}';
  }
  out += rendered;
  out += ' ';
  append_u64(out, value);
  out += '\n';
}

void render_histogram_series(std::string& out, const std::string& name,
                             const LabelSet& labels, std::string_view extra,
                             const Histogram& h) {
  struct Q {
    const char* label;
    double p;
  };
  static constexpr Q kQuantiles[] = {
      {"quantile=\"0.5\"", 50.0},
      {"quantile=\"0.9\"", 90.0},
      {"quantile=\"0.99\"", 99.0},
  };
  for (const Q& q : kQuantiles) {
    std::string extra_q(extra);
    if (!extra_q.empty()) extra_q += ',';
    extra_q += q.label;
    line(out, name, labels, extra_q, h.percentile(q.p));
  }
  line(out, name + "_count", labels, extra, h.count());
  line(out, name + "_sum", labels, extra, h.sum());
  line(out, name + "_min", labels, extra, h.min());
  line(out, name + "_max", labels, extra, h.max());
}

}  // namespace

std::string render_exposition() {
  SelfProfScope prof(SelfTier::kObs);
  std::string out;
  out += "# lz.obs exposition v1\n";

  // One pass in SeriesKind order. Unlabeled series each carry their own
  // TYPE line; a labeled name gets one before its first rendered series.
  const SeriesKey* typed = nullptr;  // key of the last TYPE line written
  for (const SeriesRef& s : registry().series()) {
    const SeriesKey& key = *s.key;
    if (key.overflow && s.folded == 0) continue;
    const std::string mname = mangle(key.name);
    const std::string_view extra = key.overflow ? "overflow=\"true\"" : "";
    const auto type_line = [&](const char* type) {
      const bool labeled = key.kind == SeriesKind::kLabeledCounter ||
                           key.kind == SeriesKind::kLabeledHistogram;
      if (labeled && typed && typed->kind == key.kind &&
          typed->name == key.name)
        return;
      out += "# TYPE " + mname + " " + type + "\n";
      typed = &key;
    };
    switch (key.kind) {
      case SeriesKind::kCounter:
      case SeriesKind::kHostCounter:
        type_line("counter");
        line(out, mname, LabelSet{}, "", s.counter->value());
        break;
      case SeriesKind::kLabeledCounter:
        type_line("counter");
        line(out, mname, key.labels, extra, s.counter->value());
        break;
      case SeriesKind::kHistogram: {
        // Unused instruments stay out, as in histogram_snapshot().
        const Histogram& h = *s.histogram;
        if (h.count() == 0) break;
        type_line("summary");
        line(out, mname, LabelSet{}, "quantile=\"0.5\"", h.percentile(50.0));
        line(out, mname, LabelSet{}, "quantile=\"0.9\"", h.percentile(90.0));
        line(out, mname, LabelSet{}, "quantile=\"0.99\"", h.percentile(99.0));
        line(out, mname + "_count", LabelSet{}, "", h.count());
        out += mname + "_mean ";
        append_fixed3(out, h.mean());
        out += '\n';
        line(out, mname + "_min", LabelSet{}, "", h.min());
        line(out, mname + "_max", LabelSet{}, "", h.max());
        break;
      }
      case SeriesKind::kLabeledHistogram:
        if (s.histogram->count() == 0) break;
        type_line("summary");
        render_histogram_series(out, mname, key.labels, extra, *s.histogram);
        break;
    }
  }

  // Wall-clock self attribution: never part of the determinism contract.
  if (selfprof().enabled()) {
    for (std::size_t i = 0; i < kNumSelfTiers; ++i) {
      const auto tier = static_cast<SelfTier>(i);
      const std::string mname =
          std::string("host_self_") + to_string(tier) + "_ticks";
      out += "# TYPE " + mname + " counter\n";
      line(out, mname, LabelSet{}, "", selfprof().ticks(tier));
    }
  }

  return out;
}

bool write_exposition(const std::string& path) {
  const std::string text = render_exposition();
  SelfProfScope prof(SelfTier::kObs);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace lz::obs
