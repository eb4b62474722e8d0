#pragma once

// The per-layer probes: re-does every distinct run behind a sweep by calling
// each layer's public functions directly (workload builders, lowering, the
// compiler, the verifier, runtime::Machine), timing each call with an
// in-memory span recorder. The runs also rebuild every cell's CellResult,
// so the probes double as an independent identity check of the sweep.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Accumulates named spans (count + total nanoseconds) in memory.
class SpanRecorder {
 public:
  void Add(const std::string& name, std::uint64_t ns);

  struct Total {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };
  const std::map<std::string, Total>& totals() const { return totals_; }
  double Ms(const std::string& name) const;

  /// Times one call into a layer; records nothing when `rec` is null.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  std::map<std::string, Total> totals_;
};

/// What the probe pass measured, beyond the spans.
struct ProbeResult {
  /// Every cell's result rebuilt from the probe runs, in spec order.
  std::vector<ndc::harness::CellResult> cells;
  /// Per cell: one of its runs broke request conservation or, for a
  /// compiled run, the verifier reported an error.
  std::vector<bool> faulty;
  /// Simulated events per run kind, over the distinct runs.
  std::uint64_t events[kNumRunKinds] = {};
  std::uint64_t distinct_runs = 0;
  std::uint64_t conservation_violations = 0;
  std::uint64_t verify_errors = 0;
  std::uint64_t DistinctEvents() const;
};

/// Performs every distinct run of `spec` once, in first-use order. With a
/// recorder, each call is timed into a span, and each Machine run is
/// repeated with the simulator's observability (obs::Observability,
/// default options) attached, timed into the span obs.run_ms.
ProbeResult RunProbes(const ndc::harness::SweepSpec& spec, SpanRecorder* rec);

/// The set-up the timed sweep is preceded by: builds every distinct
/// workload program and lowers its baseline traces. Returns the number of
/// trace instructions produced, so the work cannot be optimised away.
std::uint64_t BuildInputs(const ndc::harness::SweepSpec& spec);

}  // namespace perfbench
