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

/// Missed cells with one ProfileKey, and the profile runs they share.
struct ProfileGroup {
  std::vector<std::size_t> cells;  ///< spec indices, in spec order
  bool share_baseline = false, share_observe = false;
  runtime::RunResult baseline, observe;

  CellProfiles Profiles() const {
    return {share_baseline ? &baseline : nullptr, share_observe ? &observe : nullptr};
  }
};

}  // namespace

SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& opt) {
  auto start = std::chrono::steady_clock::now();
  obs::PhaseProfiler::Snapshot phase_base = obs::GlobalPhases().Take();
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

    // Group the misses by profile key. A group of two or more cells gets the
    // profile runs it needs simulated once, up front: the observe run if any
    // cell's policy reads it, and the baseline run if a cell reports the
    // baseline itself or no observe run can stand in for its makespan. A
    // lone cell simulates its own profiles in RunCell.
    std::vector<ProfileGroup> groups;
    std::vector<std::size_t> group_of(misses.size());
    {
      std::map<std::string, std::size_t> index;
      for (std::size_t mi = 0; mi < misses.size(); ++mi) {
        auto [it, fresh] = index.try_emplace(ProfileKey(spec.cells[misses[mi]]), groups.size());
        if (fresh) groups.emplace_back();
        groups[it->second].cells.push_back(misses[mi]);
        group_of[mi] = it->second;
      }
    }
    std::vector<std::pair<ProfileGroup*, obs::RunKind>> profile_runs;
    for (ProfileGroup& g : groups) {
      if (g.cells.size() < 2) continue;
      for (std::size_t i : g.cells) {
        const CellSpec& c = spec.cells[i];
        if (c.Compiled()) continue;
        g.share_observe |= metrics::UsesObserveRun(c.scheme);
        g.share_baseline |= c.scheme == metrics::Scheme::kBaseline;
      }
      g.share_baseline |= !g.share_observe;
      if (g.share_observe) profile_runs.emplace_back(&g, obs::RunKind::kObserve);
      if (g.share_baseline) profile_runs.emplace_back(&g, obs::RunKind::kBaseline);
    }
    ParallelFor(opt.jobs, profile_runs.size(), [&](std::size_t k) {
      auto [g, kind] = profile_runs[k];
      const CellSpec& c = spec.cells[g->cells.front()];
      metrics::Experiment exp(c.workload, c.scale, c.cfg, c.seed);
      if (kind == obs::RunKind::kObserve) {
        g->observe = exp.Observe();
      } else {
        g->baseline = exp.Baseline();
      }
    });

    auto run_one = [&](std::size_t mi) {
      std::size_t i = misses[mi];
      CellResult r = RunCell(spec.cells[i], groups[group_of[mi]].Profiles());
      if (cache != nullptr) cache->Insert(spec.cells[i], r);
      out.cells[i] = std::move(r);
      if (progress != nullptr) progress->CellDone();
    };
    ParallelFor(opt.jobs, misses.size(), run_one);
  }

  out.summary.elapsed_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  obs::PhaseProfiler::Snapshot phase_now = obs::GlobalPhases().Take();
  out.summary.phase_ms = phase_now.DeltaMsSince(phase_base);
  out.summary.sim_events = phase_now.sim_events - phase_base.sim_events;
  out.summary.runs = phase_now.RunsSince(phase_base);
  constexpr int kSim = static_cast<int>(obs::Phase::kSimulate);
  std::uint64_t sim_ns = phase_now.ns[kSim] - phase_base.ns[kSim];
  if (out.summary.sim_events > 0 && sim_ns > 0) {
    out.summary.sim_events_per_sec =
        static_cast<double>(out.summary.sim_events) * 1e9 / static_cast<double>(sim_ns);
  }
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
