#pragma once

// The sweep engine: fans a declarative SweepSpec (a list of fully resolved
// cells) out across a thread pool (ParallelFor), consults the persistent
// result cache before invoking the simulator, simulates each profile run
// (baseline, observe) once for all the cells that share it, and returns
// results in spec order — so a parallel sweep is cell-for-cell identical to
// a serial one, and to each cell run alone.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/cache.hpp"
#include "harness/cell.hpp"
#include "obs/phase.hpp"

namespace ndc::harness {

struct SweepSpec {
  std::string figure;  ///< name of the figure/grid this sweep regenerates
  std::vector<CellSpec> cells;
};

struct SweepOptions {
  int jobs = 1;                         ///< worker threads (1 = run inline)
  bool use_cache = true;
  std::string cache_dir = ".ndc-cache";
  bool progress = false;                ///< live progress/ETA lines on stderr
};

struct SweepSummary {
  std::string figure;
  int jobs = 1;
  std::uint64_t cells = 0;
  std::uint64_t cache_hits = 0;
  /// Cells actually simulated this run (== cells - cache_hits). A warm
  /// re-run of an already-measured grid reports 0 here.
  std::uint64_t cells_simulated = 0;
  std::uint64_t cache_load_errors = 0;
  std::uint64_t elapsed_ms = 0;
  /// Host wall-clock per phase (ms) accrued during this sweep, keyed by
  /// obs::PhaseName. Empty when NDC_OBS=OFF or nothing was simulated; the
  /// summary JSON omits the "phases" key in that case (byte-stable with
  /// pre-observability output).
  std::map<std::string, std::uint64_t> phase_ms;
  /// Simulated events retired during this sweep and the substrate's
  /// end-to-end throughput over the kSimulate wall clock. Zero when
  /// NDC_OBS=OFF or every cell was a cache hit; the summary JSON omits both
  /// keys in that case (byte-stable with pre-observability output).
  std::uint64_t sim_events = 0;
  double sim_events_per_sec = 0.0;
  /// Machine runs performed during this sweep, keyed by obs::RunKindName
  /// (baseline, observe, policy, compiled). Empty when NDC_OBS=OFF or every
  /// cell was a cache hit; the summary JSON omits the "runs" key then.
  std::map<std::string, std::uint64_t> runs;

  json::Value ToJson() const;
};

/// Measures a sweep, or a record figure that simulates outside RunSweep:
/// Finish() fills a summary's elapsed_ms, phase_ms, sim_events,
/// sim_events_per_sec and runs with what accrued since construction (wall
/// clock, and obs::GlobalPhases()).
struct SweepMeter {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  obs::PhaseProfiler::Snapshot base = obs::GlobalPhases().Take();

  void Finish(SweepSummary* s) const;
};

struct SweepResult {
  std::vector<CellResult> cells;  ///< one per SweepSpec cell, same order
  SweepSummary summary;
};

SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& opt);

/// One JSONL line per cell (spec fields + result + improvement), then a
/// summary line. Returns false when the file cannot be written.
bool ExportJsonl(const SweepSpec& spec, const SweepResult& result, const std::string& path);

/// Flat CSV, one row per cell.
bool ExportCsv(const SweepSpec& spec, const SweepResult& result, const std::string& path);

/// Appends the summary as one JSONL line to `path` (for CI cache-hit
/// verification across runs).
bool AppendSummary(const SweepSummary& summary, const std::string& path);

}  // namespace ndc::harness
