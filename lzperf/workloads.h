// The four lzperf workloads (see WORKLOADS.md for why each exists, what one
// op is and which layer metric should move which end-to-end metric).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace lzperf {

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds one scenario from scratch and drops it; the harness times a few
  // of these for setup_s. Build layers record spans into `t` when non-null.
  virtual void build(Tracer* t) = 0;

  // Runs whole batches of ops until `deadline` passes. With `tracer`
  // non-null (one tracer per host thread the workload uses) every layer call
  // is wrapped in a span; the simulated work is the same either way. A
  // traced phase also stops early when the tracers cannot fit another batch.
  virtual Phase run(Clock::time_point deadline,
                    std::vector<Tracer>* tracers) = 0;

  // Untimed output checks that need every phase's results (reference
  // replays, traced-vs-untraced equality). Returns the ops they fail.
  virtual u64 verify() = 0;

  // Host threads that run ops (one tracer each), and the spans each
  // tracer must hold for a traced phase.
  virtual unsigned threads() const { return 1; }
  virtual std::size_t span_capacity() const = 0;
};

// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed);

}  // namespace lzperf
