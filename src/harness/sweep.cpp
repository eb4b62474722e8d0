#include "harness/sweep.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "harness/pool.hpp"
#include "obs/phase.hpp"

namespace ndc::harness {

json::Value SweepSummary::ToJson() const {
  json::Value v = json::Value::Object();
  v.obj["figure"] = json::Value::Str(figure);
  v.obj["jobs"] = json::Value::Int(static_cast<std::uint64_t>(jobs));
  v.obj["cells"] = json::Value::Int(cells);
  v.obj["cache_hits"] = json::Value::Int(cache_hits);
  v.obj["cells_simulated"] = json::Value::Int(cells_simulated);
  v.obj["cache_load_errors"] = json::Value::Int(cache_load_errors);
  v.obj["elapsed_ms"] = json::Value::Int(elapsed_ms);
  if (!phase_ms.empty()) {
    json::Value ph = json::Value::Object();
    for (const auto& [k, ms] : phase_ms) ph.obj[k] = json::Value::Int(ms);
    v.obj["phases"] = std::move(ph);
  }
  if (sim_events > 0) {
    v.obj["sim_events"] = json::Value::Int(sim_events);
    v.obj["sim_events_per_sec"] = json::Value::Double(sim_events_per_sec);
  }
  if (!runs.empty()) {
    json::Value r = json::Value::Object();
    for (const auto& [kind, n] : runs) r.obj[kind] = json::Value::Int(n);
    v.obj["runs"] = std::move(r);
  }
  return v;
}

namespace {

/// Periodic progress/ETA lines on stderr while cells are simulating.
class ProgressReporter {
 public:
  ProgressReporter(const std::string& figure, std::size_t to_simulate, std::size_t cached)
      : figure_(figure),
        total_(to_simulate),
        cached_(cached),
        start_(std::chrono::steady_clock::now()),
        tty_(isatty(2) != 0),
        thread_([this] { Loop(); }) {}

  ~ProgressReporter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Print(true);
    if (tty_) std::fprintf(stderr, "\n");
  }

  void CellDone() { done_.fetch_add(1, std::memory_order_relaxed); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(500), [this] { return stop_; })) {
      Print(false);
    }
  }

  void Print(bool final_line) {
    std::size_t done = done_.load(std::memory_order_relaxed);
    double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                      .count();
    char eta[32] = "";
    if (!final_line && done > 0 && done < total_) {
      std::snprintf(eta, sizeof(eta), " | ETA %.1fs",
                    secs / static_cast<double>(done) *
                        static_cast<double>(total_ - done));
    }
    std::fprintf(stderr, "%ssweep %s: %zu/%zu cells simulated (+%zu cached) | %.1fs%s%s",
                 tty_ ? "\r" : "", figure_.c_str(), done, total_, cached_, secs, eta,
                 tty_ ? "   " : "\n");
    std::fflush(stderr);
  }

  std::string figure_;
  std::size_t total_;
  std::size_t cached_;
  std::chrono::steady_clock::time_point start_;
  bool tty_;
  std::atomic<std::size_t> done_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// What a cell's profile runs depend on: CanonicalString() with the fields
/// that only shape the measured run reset. Faults are reset too, because
/// profile runs are never faulted. Every cfg field stays in the key.
std::string ProfileKey(const CellSpec& cell) {
  CellSpec c = cell;
  c.scheme = metrics::Scheme::kBaseline;
  c.coarse_grain = false;
  c.allow_reroute = true;
  c.control_register = arch::kAllLocs;
  c.faults = {};
  return c.CanonicalString();
}

std::shared_ptr<metrics::Experiment> MakeExperiment(const CellSpec& c) {
  return std::make_shared<metrics::Experiment>(c.workload, c.scale, c.cfg, c.seed);
}

}  // namespace

void SweepMeter::Finish(SweepSummary* s) const {
  s->elapsed_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  obs::PhaseProfiler::Snapshot now = obs::GlobalPhases().Take();
  s->phase_ms = now.DeltaMsSince(base);
  s->sim_events = now.sim_events - base.sim_events;
  s->runs = now.RunsSince(base);
  constexpr int kSim = static_cast<int>(obs::Phase::kSimulate);
  std::uint64_t sim_ns = now.ns[kSim] - base.ns[kSim];
  if (s->sim_events > 0 && sim_ns > 0) {
    s->sim_events_per_sec =
        static_cast<double>(s->sim_events) * 1e9 / static_cast<double>(sim_ns);
  }
}

SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& opt) {
  SweepMeter meter;
  SweepResult out;
  out.cells.resize(spec.cells.size());
  out.summary.figure = spec.figure;
  out.summary.jobs = opt.jobs;
  out.summary.cells = spec.cells.size();

  std::unique_ptr<ResultCache> cache;
  if (opt.use_cache) {
    cache = std::make_unique<ResultCache>(opt.cache_dir);
    out.summary.cache_load_errors = cache->load_errors();
  }

  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    if (cache != nullptr && cache->Lookup(spec.cells[i], &out.cells[i])) {
      ++out.summary.cache_hits;
    } else {
      misses.push_back(i);
    }
  }
  out.summary.cells_simulated = misses.size();

  {
    std::unique_ptr<ProgressReporter> progress;
    if (opt.progress && !misses.empty()) {
      progress = std::make_unique<ProgressReporter>(spec.figure, misses.size(),
                                                    out.summary.cache_hits);
    }

    // Group the misses by profile key. A group of two or more cells shares
    // one Experiment, and the first pass simulates on it the profile runs
    // the group needs: the observe run if any cell's policy reads it, and the
    // baseline run if a cell reports the baseline itself or no observe run
    // can stand in for its makespan. A lone cell builds its Experiment in
    // the second pass. Each cell holds a reference to its Experiment, so the
    // group's last cell to finish frees the program, traces and profiles.
    std::vector<std::vector<std::size_t>> groups;  // indices into `misses`
    {
      std::map<std::string, std::size_t> index;
      for (std::size_t mi = 0; mi < misses.size(); ++mi) {
        auto [it, fresh] = index.try_emplace(ProfileKey(spec.cells[misses[mi]]), groups.size());
        if (fresh) groups.emplace_back();
        groups[it->second].push_back(mi);
      }
    }
    std::vector<std::shared_ptr<metrics::Experiment>> exp_of(misses.size());
    ParallelFor(opt.jobs, groups.size(), [&](std::size_t k) {
      const std::vector<std::size_t>& group = groups[k];
      if (group.size() < 2) return;
      bool observe = false, baseline = false;
      for (std::size_t mi : group) {
        const CellSpec& c = spec.cells[misses[mi]];
        if (c.Compiled()) continue;
        observe |= metrics::UsesObserveRun(c.scheme);
        baseline |= c.scheme == metrics::Scheme::kBaseline;
      }
      std::shared_ptr<metrics::Experiment> exp = MakeExperiment(spec.cells[misses[group[0]]]);
      if (observe) exp->Observe();
      if (baseline || !observe) exp->Baseline();
      for (std::size_t mi : group) exp_of[mi] = exp;
    });

    auto run_one = [&](std::size_t mi) {
      std::size_t i = misses[mi];
      std::shared_ptr<metrics::Experiment> exp = std::move(exp_of[mi]);
      if (exp == nullptr) exp = MakeExperiment(spec.cells[i]);
      CellResult r = RunCell(spec.cells[i], *exp);
      exp.reset();
      if (cache != nullptr) cache->Insert(spec.cells[i], r);
      out.cells[i] = std::move(r);
      if (progress != nullptr) progress->CellDone();
    };
    ParallelFor(opt.jobs, misses.size(), run_one);
  }

  meter.Finish(&out.summary);
  return out;
}

namespace {

json::Value CellLine(const SweepSpec& spec, std::size_t i, const CellResult& r) {
  const CellSpec& c = spec.cells[i];
  json::Value v = json::Value::Object();
  v.obj["figure"] = json::Value::Str(spec.figure);
  v.obj["workload"] = json::Value::Str(c.workload);
  v.obj["scheme"] = json::Value::Str(c.SchemeLabel());
  v.obj["scale"] = json::Value::Str(ScaleName(c.scale));
  if (!c.variant.empty()) v.obj["variant"] = json::Value::Str(c.variant);
  v.obj["seed"] = json::Value::Int(c.seed);
  v.obj["key"] = json::Value::Str(c.Key());
  v.obj["from_cache"] = json::Value::Bool(r.from_cache);
  v.obj["improvement_pct"] = json::Value::Double(r.ImprovementPct());
  v.obj["result"] = r.ToJson();
  return v;
}

}  // namespace

bool ExportJsonl(const SweepSpec& spec, const SweepResult& result, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    f << json::Dump(CellLine(spec, i, result.cells[i])) << "\n";
  }
  json::Value s = json::Value::Object();
  s.obj["summary"] = result.summary.ToJson();
  f << json::Dump(s) << "\n";
  return static_cast<bool>(f);
}

bool ExportCsv(const SweepSpec& spec, const SweepResult& result, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "figure,workload,scheme,scale,variant,seed,key,from_cache,"
       "makespan,baseline_makespan,improvement_pct,l1_miss_rate,l2_miss_rate,"
       "candidates,offloads,ndc_success,fallbacks,"
       "ndc_network,ndc_cache,ndc_mc,ndc_memory,chains,planned,transforms\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellSpec& c = spec.cells[i];
    const CellResult& r = result.cells[i];
    char num[64];
    f << spec.figure << ',' << c.workload << ',' << c.SchemeLabel() << ','
      << ScaleName(c.scale) << ',' << c.variant << ',' << c.seed << ',' << c.Key() << ','
      << (r.from_cache ? 1 : 0) << ',' << r.makespan << ',' << r.baseline_makespan << ',';
    std::snprintf(num, sizeof(num), "%.6f,%.6f,%.6f", r.ImprovementPct(), r.L1MissRate(),
                  r.L2MissRate());
    f << num << ',' << r.candidates << ',' << r.offloads << ',' << r.ndc_success << ','
      << r.fallbacks;
    for (std::uint64_t x : r.ndc_at_loc) f << ',' << x;
    f << ',' << r.chains << ',' << r.planned << ',' << r.transforms << "\n";
  }
  return static_cast<bool>(f);
}

bool AppendSummary(const SweepSummary& summary, const std::string& path) {
  std::ofstream f(path, std::ios::app);
  if (!f) return false;
  f << json::Dump(summary.ToJson()) << "\n";
  return static_cast<bool>(f);
}

}  // namespace ndc::harness
