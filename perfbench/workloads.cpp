#include "workloads.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <thread>

#include "workloads/sharded.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using ndc::harness::CellSpec;
using ndc::harness::SweepSpec;
using ndc::metrics::Scheme;
using ndc::workloads::Scale;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"scheme-grid", "compiled-full", "sync-mesh"};
  return names;
}

namespace {

CellSpec MakeCell(const std::string& workload, Scale scale, std::uint64_t seed, Scheme s) {
  CellSpec c;
  c.workload = workload;
  c.scale = scale;
  c.seed = seed;
  c.scheme = s;
  return c;
}

// The Figure-4 schemes, in figure order.
const Scheme kFig04Schemes[] = {Scheme::kDefault,  Scheme::kOracle,     Scheme::kWait5,
                                Scheme::kWait10,   Scheme::kWait25,     Scheme::kWait50,
                                Scheme::kLastWait, Scheme::kMarkov,     Scheme::kAlgorithm1,
                                Scheme::kAlgorithm2};

bool NeedsObserve(Scheme s) {
  return s == Scheme::kOracle || s == Scheme::kWait5 || s == Scheme::kWait10 ||
         s == Scheme::kWait25 || s == Scheme::kWait50;
}

bool IsCompiled(const CellSpec& c) {
  return c.scheme == Scheme::kAlgorithm1 || c.scheme == Scheme::kAlgorithm2;
}

std::string ProgramKey(const CellSpec& cell) {
  CellSpec c = cell;
  c.scheme = Scheme::kBaseline;
  c.allow_reroute = true;
  c.control_register = ndc::arch::kAllLocs;
  return c.CanonicalString();
}

}  // namespace

SweepSpec BuildSpec(const std::string& name, std::uint64_t seed) {
  SweepSpec spec;
  spec.figure = name;
  if (name == "scheme-grid") {
    for (const char* w : {"swim", "nab", "mgrid", "cholesky"}) {
      for (Scheme s : kFig04Schemes) spec.cells.push_back(MakeCell(w, Scale::kSmall, seed, s));
    }
  } else if (name == "compiled-full") {
    for (const std::string& w : ndc::workloads::BenchmarkNames()) {
      spec.cells.push_back(MakeCell(w, Scale::kFull, seed, Scheme::kAlgorithm2));
    }
  } else if (name == "sync-mesh") {
    for (int dim : {5, 6, 8}) {
      for (const std::string& w : ndc::workloads::ShardedNames()) {
        CellSpec c = MakeCell(w, Scale::kFull, seed, Scheme::kBaseline);
        c.cfg.mesh_width = dim;
        c.cfg.mesh_height = dim;
        c.variant = std::to_string(dim) + "x" + std::to_string(dim);
        spec.cells.push_back(c);
      }
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return spec;
}

int JobCount() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

const char* RunKindName(RunKind k) {
  switch (k) {
    case RunKind::kBaseline: return "baseline";
    case RunKind::kObserve: return "observe";
    case RunKind::kPolicy: return "policy";
    case RunKind::kCompiled: return "compiled";
  }
  return "?";
}

std::vector<RunDesc> RunsOfCell(const SweepSpec& spec, std::size_t cell) {
  const CellSpec& c = spec.cells[cell];
  std::string program = ProgramKey(c);
  std::vector<RunDesc> runs;
  runs.push_back({RunKind::kBaseline, cell, program + "|baseline", program});
  if (IsCompiled(c)) {
    runs.push_back({RunKind::kCompiled, cell, c.CanonicalString() + "|compiled", program});
  } else if (c.scheme != Scheme::kBaseline) {
    if (NeedsObserve(c.scheme)) {
      runs.push_back({RunKind::kObserve, cell, program + "|observe", program});
    }
    runs.push_back({RunKind::kPolicy, cell, c.CanonicalString() + "|policy", program});
  }
  return runs;
}

std::vector<RunDesc> DistinctRuns(const SweepSpec& spec) {
  std::vector<RunDesc> out;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    for (RunDesc& r : RunsOfCell(spec, i)) {
      if (seen.insert(r.key).second) out.push_back(std::move(r));
    }
  }
  return out;
}

std::size_t TotalRuns(const SweepSpec& spec) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) n += RunsOfCell(spec, i).size();
  return n;
}

std::vector<std::size_t> DistinctPrograms(const SweepSpec& spec) {
  std::vector<std::size_t> out;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    if (seen.insert(ProgramKey(spec.cells[i])).second) out.push_back(i);
  }
  return out;
}

}  // namespace perfbench
