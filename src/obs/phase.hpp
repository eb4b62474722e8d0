#pragma once

// Host-side phase profiling: wall-clock breakdown of where an experiment
// spends real time (building workloads, lowering traces, compiling plans,
// simulating, rendering). Scopes accumulate into a process-global profiler
// so the sweep harness can report a phase table across all worker threads
// without threading a handle through every layer; counters are atomic for
// exactly that reason.
//
// With NDC_OBS=OFF, ScopedPhase compiles to an empty object and the clock
// reads disappear — host profiling obeys the same compile-out switch as the
// simulated-side instrumentation.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "obs/enabled.hpp"

namespace ndc::obs {

enum class Phase : std::uint8_t {
  kBuildWorkload = 0,  ///< synthesizing benchmark traces
  kLowerTraces,        ///< lowering traces to machine programs
  kCompile,            ///< compiler passes (plans, policies)
  kSimulate,           ///< cycle-level simulation proper
  kRender,             ///< figure rendering / export
  kOther,
};
inline constexpr int kNumPhases = 6;

const char* PhaseName(Phase p);

/// The kinds of Machine run an experiment performs (SweepSummary.runs).
enum class RunKind : std::uint8_t {
  kBaseline = 0,  ///< conventional run of the original program
  kObserve,       ///< observation profile run (Oracle, Wait(x%))
  kPolicy,        ///< runtime-policy scheme run
  kCompiled,      ///< run of a compiled program (Algorithm-1/2, coarse-grain)
};
inline constexpr int kNumRunKinds = 4;

const char* RunKindName(RunKind k);

class PhaseProfiler {
 public:
  void Add(Phase p, std::uint64_t ns) {
    slots_[static_cast<int>(p)].ns.fetch_add(ns, std::memory_order_relaxed);
    slots_[static_cast<int>(p)].count.fetch_add(1, std::memory_order_relaxed);
  }

  /// One finished Machine run of kind `k` that retired `events` simulated
  /// events inside a kSimulate scope (reported by the experiment layer after
  /// each Machine::Run). Together with the kSimulate wall clock the events
  /// yield the substrate's end-to-end events/sec.
  void AddRun(RunKind k, std::uint64_t events) {
    runs_[static_cast<int>(k)].fetch_add(1, std::memory_order_relaxed);
    sim_events_.fetch_add(events, std::memory_order_relaxed);
  }
  std::uint64_t sim_events() const {
    return sim_events_.load(std::memory_order_relaxed);
  }

  std::uint64_t ns(Phase p) const {
    return slots_[static_cast<int>(p)].ns.load(std::memory_order_relaxed);
  }
  std::uint64_t count(Phase p) const {
    return slots_[static_cast<int>(p)].count.load(std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t ns[kNumPhases] = {};
    std::uint64_t count[kNumPhases] = {};
    std::uint64_t sim_events = 0;
    std::uint64_t runs[kNumRunKinds] = {};

    /// Per-phase milliseconds since `base`, keyed by phase name; phases with
    /// no delta are omitted. Used for SweepSummary.phase_ms.
    std::map<std::string, std::uint64_t> DeltaMsSince(const Snapshot& base) const;

    /// Machine runs since `base`, keyed by RunKindName: every kind (zeros
    /// included) when any run finished, empty otherwise. Used for
    /// SweepSummary.runs.
    std::map<std::string, std::uint64_t> RunsSince(const Snapshot& base) const;
  };
  Snapshot Take() const {
    Snapshot s;
    for (int i = 0; i < kNumPhases; ++i) {
      s.ns[i] = slots_[i].ns.load(std::memory_order_relaxed);
      s.count[i] = slots_[i].count.load(std::memory_order_relaxed);
    }
    s.sim_events = sim_events_.load(std::memory_order_relaxed);
    for (int k = 0; k < kNumRunKinds; ++k) {
      s.runs[k] = runs_[k].load(std::memory_order_relaxed);
    }
    return s;
  }

  void Reset() {
    for (Slot& s : slots_) {
      s.ns.store(0, std::memory_order_relaxed);
      s.count.store(0, std::memory_order_relaxed);
    }
    sim_events_.store(0, std::memory_order_relaxed);
    for (auto& r : runs_) r.store(0, std::memory_order_relaxed);
  }

  /// "phase  ms  scopes" table over all phases with activity.
  std::string ToText() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> count{0};
  };
  Slot slots_[kNumPhases];
  std::atomic<std::uint64_t> sim_events_{0};
  std::atomic<std::uint64_t> runs_[kNumRunKinds];  // zero-initialized (C++20)
};

/// The process-wide profiler every ScopedPhase reports into.
PhaseProfiler& GlobalPhases();

#ifndef NDC_OBS_DISABLED
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase p) : phase_(p), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhase() {
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    GlobalPhases().Add(phase_, static_cast<std::uint64_t>(ns));
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};
#else
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
};
#endif

}  // namespace ndc::obs
