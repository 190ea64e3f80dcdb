// lz::obs v4 — Prometheus-style text exposition of the registry.
//
// `render_exposition` serialises obs::Registry in one deterministic pass,
// section by section (SeriesKind order):
//   * unlabeled counters,
//   * labeled counters, one line per series,
//   * unlabeled histogram summaries (`_count/_mean/_min/_max`),
//   * labeled histogram series (`_count/_sum/_min/_max`) — both as
//     `{quantile="0.5"|"0.9"|"0.99"}` gauge lines plus those suffixes,
//   * host counters (`sim.trace.*`), and
//   * the `host.self.*` self-profiler ticks while selfprof() is enabled.
//
// Format discipline: metric names are the registry names with '.' mangled
// to '_' (Prometheus charset), names render sorted, series sorted by
// label-set, labels in fixed LabelKey order, values as integers (mean as
// fixed 3-decimal). Label values pass through sanitize_frame at
// LabelSet::set time, so nothing here can emit an unescaped '"' or a
// newline. Every value outside the host and self sections is derived from
// simulated work only, so two same-seed runs render byte-identical
// snapshots.
//
// The live view: a TimeSeries armed with an exposition path rewrites the
// file at every sample (timeseries.h), so a long-running bench can be
// scraped mid-flight with plain `cat`/`watch`.
#pragma once

#include <string>

namespace lz::obs {

// Render the full exposition snapshot as text.
std::string render_exposition();

// Render and write to `path` (truncate). Returns false on I/O error.
bool write_exposition(const std::string& path);

}  // namespace lz::obs
