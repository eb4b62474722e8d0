#pragma once

// Fault-injection schedules. A FaultSchedule is a fully declarative,
// seed-reproducible description of every fault a run will experience:
// NoC link degradation/outage windows, DRAM bank fault windows (stall or
// NACK), and memory-controller queue-pressure spikes, plus the resilience
// parameters (retry/backoff budgets) the NDC runtime applies under it.
// Schedules parse from JSON (file or inline text) so every faulted run is
// replayable from its command line, and canonicalize to a stable string
// that the harness folds into result-cache keys. See DESIGN.md §11.
//
// Layering: src/fault sits directly above src/sim (alongside src/noc and
// src/mem, which consume injector decisions through plain std::function
// hooks). Schedule text is parsed by the leaf JSON codec in src/json; the
// schedule grammar (known keys, types, ranges) is checked on top of it.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace ndc::fault {

/// One NoC link degradation/outage window: while `start <= now < end`,
/// packets traversing `link` pay `extra_latency` cycles and are dropped
/// (forcing a retransmit) with probability `drop_prob`.
struct LinkFaultWindow {
  sim::LinkId link = 0;
  sim::Cycle start = 0;
  sim::Cycle end = 0;              ///< exclusive
  sim::Cycle extra_latency = 0;
  double drop_prob = 0.0;          ///< [0, 1]
};

/// What a faulted DRAM bank does to requests during its window.
enum class BankFaultKind : std::uint8_t {
  kStall = 0,  ///< the bank issues nothing until the window ends
  kNack,       ///< the controller rejects the pick; it re-enqueues after backoff
};

/// One DRAM bank fault window on bank `bank` of controller `mc`.
struct BankFaultWindow {
  sim::McId mc = 0;
  int bank = 0;
  sim::Cycle start = 0;
  sim::Cycle end = 0;  ///< exclusive
  BankFaultKind kind = BankFaultKind::kStall;
};

/// One MC queue-pressure spike: requests arriving at controller `mc`
/// during the window wait `extra_delay` cycles before entering the
/// transaction queue (modeling upstream queue backpressure).
struct McPressureWindow {
  sim::McId mc = 0;
  sim::Cycle start = 0;
  sim::Cycle end = 0;  ///< exclusive
  sim::Cycle extra_delay = 0;
};

/// Retry/timeout/degrade budgets the resilient NDC runtime applies.
/// The defaults are inert: with max_retries == 0 the offload state machine
/// is bit-identical to the fault-free runtime (timeout -> immediate
/// fallback), which is what keeps the figure goldens frozen.
struct ResilienceParams {
  /// Extra wait windows an offload may arm after its first timeout before
  /// degrading to host-core execution.
  int max_retries = 0;
  /// Each re-armed wait window is the previous one times this factor.
  double backoff_mult = 2.0;
  /// Cycles a dropped NoC packet waits before retransmitting on the link.
  sim::Cycle retransmit_delay = 32;
  /// Cycles a NACKed DRAM request waits before re-entering the queue.
  sim::Cycle nack_backoff = 64;
};

/// A complete, replayable fault plan for one simulation run.
struct FaultSchedule {
  std::uint64_t seed = 1;  ///< drives every probabilistic draw (drops)
  std::vector<LinkFaultWindow> link_faults;
  std::vector<BankFaultWindow> bank_faults;
  std::vector<McPressureWindow> mc_pressure;
  ResilienceParams resilience;

  /// True when the schedule injects nothing and enables no retries — a run
  /// under an empty schedule must be bit-identical to an unfaulted run.
  bool Empty() const {
    return link_faults.empty() && bank_faults.empty() && mc_pressure.empty() &&
           resilience.max_retries == 0;
  }

  /// Deterministic canonical serialization (cache-key input; also the
  /// determinism surface asserted by tests: equal schedules <=> equal
  /// canonical strings).
  std::string CanonicalString() const;

  /// Serializes to the same JSON grammar Parse() accepts (round-trips).
  std::string ToJson() const;

  /// Returns a copy with every fault intensity scaled by `factor`:
  /// drop probabilities (clamped to 1), link extra latencies, and MC
  /// pressure delays multiply; windows and kinds are unchanged. Factor 0
  /// yields a schedule whose injectors do nothing (resilience retained).
  FaultSchedule Scaled(double factor) const;
};

const char* BankFaultKindName(BankFaultKind k);

/// Parses the JSON schedule grammar:
/// {
///   "seed": 7,
///   "link_faults":  [{"link":3,"start":100,"end":900,"extra_latency":8,"drop_prob":0.25}],
///   "bank_faults":  [{"mc":0,"bank":2,"start":0,"end":5000,"kind":"stall"|"nack"}],
///   "mc_pressure":  [{"mc":1,"start":200,"end":400,"extra_delay":16}],
///   "resilience":   {"max_retries":2,"backoff_mult":2.0,
///                    "retransmit_delay":32,"nack_backoff":64}
/// }
/// Every key is optional; unknown keys are errors (a typo must not silently
/// produce an un-faulted run). Returns false and sets `err` on failure.
bool ParseSchedule(const std::string& text, FaultSchedule* out, std::string* err = nullptr);

/// Loads `arg` as a schedule: text starting with '{' parses inline,
/// anything else is read as a file path first. (The ndc-sweep/bench
/// `--faults=` argument accepts both forms.)
bool LoadSchedule(const std::string& arg, FaultSchedule* out, std::string* err = nullptr);

/// Parameters for the deterministic storm generator below.
struct StormSpec {
  int num_links = 0;        ///< mesh link-slot count (noc::Mesh::num_link_slots)
  int num_mcs = 0;
  int banks_per_mc = 0;
  sim::Cycle horizon = 0;   ///< faults fall inside [0, horizon)
  /// Intensity in [0, 1]: scales how many components fault and how hard.
  double intensity = 0.0;
  std::uint64_t seed = 1;
  int max_retries = 2;      ///< resilience budget the storm runs under
};

/// Deterministically generates a random "fault storm" schedule: a sample of
/// links, banks, and controllers each get one fault window whose position,
/// length, and severity are drawn from a seeded sim::Rng. Same spec (seed
/// included) always yields the identical schedule; bench_resilience sweeps
/// `intensity` with everything else fixed to trace a degradation curve.
FaultSchedule MakeStorm(const StormSpec& spec);

}  // namespace ndc::fault
