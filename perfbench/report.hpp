#pragma once

// Result checking and metric arithmetic of the benchmark: per-cell digests
// and the committed reference, the derived per-layer metrics, and the JSON
// lines the benchmark prints.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/cell.hpp"
#include "harness/sweep.hpp"
#include "probes.hpp"

namespace perfbench {

// ---------------------------------------------------------------- digests ---

/// 16-hex-digit FNV-1a of the cell's canonical JSON (every scalar field and
/// every StatSet counter), so a one-counter change alters the digest.
std::string CellDigest(const ndc::harness::CellResult& r);

/// Digest of a whole sweep: FNV-1a over its cell digests in spec order.
std::string SweepDigest(const std::vector<std::string>& cell_digests);

/// Per-cell reference digests, keyed by workload then seed.
using Reference = std::map<std::string, std::map<std::uint64_t, std::vector<std::string>>>;

/// Parses a reference file; returns false (with `err`) on malformed input.
bool ParseReference(const std::string& text, Reference* out, std::string* err);
std::string DumpReference(const Reference& ref);

/// One flag per cell, true where its digest differs from `reference`
/// (every cell when the counts differ).
std::vector<bool> DigestFailures(const std::vector<std::string>& digests,
                                 const std::vector<std::string>& reference);

/// Structural checks that hold for every cell at any seed: the scheme run
/// finished, every offload resolved (success or fallback), the cache
/// counters are populated, and cells simulating the same program agree on
/// its baseline. Returns one flag per cell, true where a check failed.
std::vector<bool> SanityFailures(const std::vector<ndc::harness::CellSpec>& specs,
                                 const std::vector<ndc::harness::CellResult>& cells);

/// Tallies the cells of the timed sweep's repetitions. Each repetition is
/// compared with the reference when one is kept, and with the run's first
/// repetition, so a wrong result fails in every repetition that repeats it.
class RepetitionCheck {
 public:
  /// `expected` (may be null: no reference kept) must outlive the check.
  explicit RepetitionCheck(const std::vector<std::string>* expected) : expected_(expected) {}

  /// Counts one repetition. `bad` holds its per-cell sanity flags; a
  /// repetition whose event count differs from the first one fails whole.
  void Add(const std::vector<std::string>& digests, std::uint64_t sim_events,
           std::vector<bool> bad);

  const std::vector<std::string>& first() const { return first_; }
  std::uint64_t first_events() const { return first_events_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  const std::vector<std::string>* expected_;
  std::vector<std::string> first_;
  std::uint64_t first_events_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

// ---------------------------------------------------------------- metrics ---

double Median(std::vector<double> v);

/// Share of the sweep's simulated events spent re-simulating a run that an
/// earlier cell already simulated: 1 - distinct_events / sim_events.
double RepeatEventsFrac(std::uint64_t distinct_events, std::uint64_t sim_events);

/// Host nanoseconds per simulated event.
double NsPerEvent(double seconds, std::uint64_t events);

/// CPU seconds over the wall seconds the pool's workers had available.
double PoolBusyFrac(double cpu_s, double wall_s, int jobs);

/// Wall time of the probe runs with the simulator's observability
/// attached (span obs.run_ms) over the same runs without it
/// (ndc.run_ms.*), minus 1; 0 when nothing was timed.
double TraceOverheadFrac(const SpanRecorder& spans);

/// a / b, 0 when b is 0.
double Ratio(std::uint64_t a, std::uint64_t b);

/// hits / (hits + misses), 0 when both are 0.
double HitRatio(std::uint64_t hits, std::uint64_t misses);

/// Sum of one StatSet counter over the cells.
std::uint64_t SumStat(const std::vector<ndc::harness::CellResult>& cells,
                      const std::string& name);

/// DRAM row-buffer hit ratio over the cells (mc.row_hits vs mc.row_misses).
double RowHitRatio(const std::vector<ndc::harness::CellResult>& cells);

// ----------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal form that reads back as the same double.
std::string FormatNumber(double v);

/// What a timed (--trace 0) run measured; one entry per repetition.
struct EndToEndInputs {
  std::vector<double> wall_s, cpu_s, setup_s;
  std::uint64_t sim_events = 0;
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0, failed = 0;
};

/// The end-to-end metrics, in BENCHMARK.json order; timings are medians.
std::vector<Metric> EndToEndMetrics(const EndToEndInputs& in);

/// What a traced (--trace 1) run measured.
struct LayerInputs {
  const ndc::harness::SweepResult* sweep = nullptr;
  const ProbeResult* probe = nullptr;
  const SpanRecorder* spans = nullptr;
  double wall_s = 0.0, cpu_s = 0.0;
  int jobs = 1;
  double cache_roundtrip_ms = 0.0;
};

/// The per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> LayerMetrics(const LayerInputs& in);

/// The benchmark's last stdout line.
std::string ResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench
