#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "harness/json.hpp"

namespace perfbench {

namespace json = ndc::harness::json;
using ndc::harness::CellResult;
using ndc::harness::CellSpec;

namespace {

std::string Hex16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

std::string CellDigest(const CellResult& r) {
  return Hex16(ndc::harness::Fnv1a(json::Dump(r.ToJson())));
}

std::string SweepDigest(const std::vector<std::string>& cell_digests) {
  std::string all;
  for (const std::string& d : cell_digests) all += d;
  return Hex16(ndc::harness::Fnv1a(all));
}

bool ParseReference(const std::string& text, Reference* out, std::string* err) {
  json::Value v;
  if (!json::Parse(text, &v, err)) return false;
  const json::Value* wl = v.Find("workloads");
  if (wl == nullptr || !wl->is_object()) {
    *err = "missing \"workloads\" object";
    return false;
  }
  Reference ref;
  for (const auto& [name, seeds] : wl->obj) {
    if (!seeds.is_object()) {
      *err = name + ": expected an object keyed by seed";
      return false;
    }
    for (const auto& [seed_text, cells] : seeds.obj) {
      char* end = nullptr;
      std::uint64_t seed = std::strtoull(seed_text.c_str(), &end, 10);
      if (seed_text.empty() || *end != '\0' || !cells.is_array()) {
        *err = name + ": bad seed entry \"" + seed_text + "\"";
        return false;
      }
      std::vector<std::string>& list = ref[name][seed];
      for (const json::Value& d : cells.arr) {
        if (d.kind != json::Value::Kind::kString) {
          *err = name + ": digests must be strings";
          return false;
        }
        list.push_back(d.str);
      }
    }
  }
  *out = std::move(ref);
  return true;
}

std::string DumpReference(const Reference& ref) {
  // One line per (workload, seed) keeps diffs of the committed file readable.
  std::string out = "{\"workloads\": {";
  bool first_w = true;
  for (const auto& [name, seeds] : ref) {
    out += first_w ? "\n  " : ",\n  ";
    first_w = false;
    out += "\"" + json::Escape(name) + "\": {";
    bool first_s = true;
    for (const auto& [seed, cells] : seeds) {
      out += first_s ? "\n    " : ",\n    ";
      first_s = false;
      json::Value arr = json::Value::Array();
      for (const std::string& d : cells) arr.arr.push_back(json::Value::Str(d));
      out += "\"" + std::to_string(seed) + "\": " + json::Dump(arr);
    }
    out += "\n  }";
  }
  out += "\n}}\n";
  return out;
}

std::vector<bool> DigestFailures(const std::vector<std::string>& digests,
                                 const std::vector<std::string>& reference) {
  std::vector<bool> bad(digests.size(), true);
  if (digests.size() != reference.size()) return bad;
  for (std::size_t i = 0; i < digests.size(); ++i) bad[i] = digests[i] != reference[i];
  return bad;
}

void RepetitionCheck::Add(const std::vector<std::string>& digests, std::uint64_t sim_events,
                          std::vector<bool> bad) {
  auto flag = [&](const std::vector<bool>& more) {
    for (std::size_t i = 0; i < bad.size(); ++i) bad[i] = bad[i] || more[i];
  };
  if (expected_ != nullptr) flag(DigestFailures(digests, *expected_));
  if (first_.empty()) {
    first_ = digests;
    first_events_ = sim_events;
  } else {
    flag(DigestFailures(digests, first_));
    if (sim_events != first_events_) bad.assign(bad.size(), true);
  }
  attempted_ += bad.size();
  for (bool b : bad) failed_ += b;
}

std::vector<bool> SanityFailures(const std::vector<CellSpec>& specs,
                                 const std::vector<CellResult>& cells) {
  std::vector<bool> bad(cells.size(), false);
  std::map<std::string, std::uint64_t> baseline;  // program -> baseline makespan
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    bad[i] = c.makespan == 0 || c.baseline_makespan == 0 ||
             c.offloads != c.ndc_success + c.fallbacks || c.l1_hits + c.l1_misses == 0;
    std::string program = specs[i].workload + "/" + specs[i].variant;
    auto [it, fresh] = baseline.emplace(program, c.baseline_makespan);
    if (!fresh && it->second != c.baseline_makespan) bad[i] = true;
  }
  return bad;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double RepeatEventsFrac(std::uint64_t distinct_events, std::uint64_t sim_events) {
  if (sim_events == 0) return 0.0;
  return 1.0 - static_cast<double>(distinct_events) / static_cast<double>(sim_events);
}

double NsPerEvent(double seconds, std::uint64_t events) {
  return events == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(events);
}

double PoolBusyFrac(double cpu_s, double wall_s, int jobs) {
  return wall_s <= 0.0 || jobs <= 0 ? 0.0 : cpu_s / (wall_s * jobs);
}

double TraceOverheadFrac(const SpanRecorder& spans) {
  double off = 0.0;
  for (int k = 0; k < kNumRunKinds; ++k) {
    off += spans.Ms(std::string("ndc.run_ms.") + RunKindName(static_cast<RunKind>(k)));
  }
  return off > 0.0 ? spans.Ms("obs.run_ms") / off - 1.0 : 0.0;
}

double Ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

double HitRatio(std::uint64_t hits, std::uint64_t misses) { return Ratio(hits, hits + misses); }

std::uint64_t SumStat(const std::vector<CellResult>& cells, const std::string& name) {
  std::uint64_t n = 0;
  for (const CellResult& c : cells) n += c.Stat(name);
  return n;
}

double RowHitRatio(const std::vector<CellResult>& cells) {
  return HitRatio(SumStat(cells, "mc.row_hits"), SumStat(cells, "mc.row_misses"));
}

std::vector<Metric> EndToEndMetrics(const EndToEndInputs& in) {
  return {
      {"sweep_s", Median(in.wall_s), "s"},
      {"cpu_s", Median(in.cpu_s), "s"},
      {"sim_events", static_cast<double>(in.sim_events), "count"},
      {"setup_s", Median(in.setup_s), "s"},
      {"peak_rss_mb", in.peak_rss_mb, "MiB"},
      {"cell_pass_frac", in.attempted == 0 ? 0.0 : 1.0 - Ratio(in.failed, in.attempted), "frac"},
  };
}

namespace {

double PhaseSeconds(const ndc::harness::SweepResult& res, const char* phase) {
  auto it = res.summary.phase_ms.find(phase);
  return it == res.summary.phase_ms.end() ? 0.0 : static_cast<double>(it->second) / 1e3;
}

}  // namespace

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  const std::vector<CellResult>& cells = in.sweep->cells;
  const SpanRecorder& spans = *in.spans;
  std::uint64_t events = in.sweep->summary.sim_events;
  double simulate_s = PhaseSeconds(*in.sweep, "simulate");
  std::uint64_t l1h = 0, l1m = 0, l2h = 0, l2m = 0;
  for (const CellResult& c : cells) {
    l1h += c.l1_hits;
    l1m += c.l1_misses;
    l2h += c.l2_hits;
    l2m += c.l2_misses;
  }
  auto count = [&](const char* stat) { return static_cast<double>(SumStat(cells, stat)); };
  std::vector<Metric> m = {
      {"harness.pool_busy_frac", PoolBusyFrac(in.cpu_s, in.wall_s, in.jobs), "frac"},
      {"harness.cache_roundtrip_ms", in.cache_roundtrip_ms, "ms"},
      {"metrics.repeat_events_frac", RepeatEventsFrac(in.probe->DistinctEvents(), events),
       "frac"},
      {"phase.build_s", PhaseSeconds(*in.sweep, "build_workload"), "s"},
      {"phase.lower_s", PhaseSeconds(*in.sweep, "lower_traces"), "s"},
      {"phase.compile_s", PhaseSeconds(*in.sweep, "compile"), "s"},
      {"phase.simulate_s", simulate_s, "s"},
      {"sim.ns_per_event", NsPerEvent(simulate_s, events), "ns"},
      {"workloads.build_ms", spans.Ms("workloads.build_ms"), "ms"},
      {"compiler.lower_ms", spans.Ms("compiler.lower_ms"), "ms"},
      {"compiler.compile_ms", spans.Ms("compiler.compile_ms"), "ms"},
      {"verify.audit_ms", spans.Ms("verify.audit_ms"), "ms"},
      {"ndc.setup_ms", spans.Ms("ndc.setup_ms"), "ms"},
  };
  for (int k = 0; k < kNumRunKinds; ++k) {
    std::string kind = RunKindName(static_cast<RunKind>(k));
    m.push_back({"ndc.run_ms." + kind, spans.Ms("ndc.run_ms." + kind), "ms"});
  }
  for (int k = 0; k < kNumRunKinds; ++k) {
    std::string kind = RunKindName(static_cast<RunKind>(k));
    m.push_back({"ndc.ns_per_event." + kind,
                 NsPerEvent(spans.Ms("ndc.run_ms." + kind) / 1e3, in.probe->events[k]), "ns"});
  }
  std::vector<Metric> rest = {
      {"noc.packets", count("noc.packets"), "count"},
      {"noc.bytes", count("noc.bytes"), "bytes"},
      {"noc.link_busy_cycles", count("noc.link_busy_cycles"), "cycles"},
      {"noc.contention_cycles", count("noc.contention_cycles"), "cycles"},
      {"noc.hol_blocked", count("noc.hol_blocked"), "count"},
      {"mem.l1_hit_ratio", HitRatio(l1h, l1m), "frac"},
      {"mem.l2_hit_ratio", HitRatio(l2h, l2m), "frac"},
      {"mem.mc_reads", count("mc.reads"), "count"},
      {"mem.row_hit_ratio", RowHitRatio(cells), "frac"},
      {"mem.mc_queue_wait_cycles", count("mc.queue_wait_cycles"), "cycles"},
      {"ndc.candidates", count("ndc.candidates"), "count"},
      {"ndc.offloads", count("ndc.offloads"), "count"},
      {"ndc.success_ratio",
       Ratio(SumStat(cells, "ndc.success"), SumStat(cells, "ndc.offloads")), "frac"},
      {"ndc.timeouts", count("ndc.abort.timeout"), "count"},
      {"sync.ops", count("sync.ops"), "count"},
      {"sync.stall_cycles", count("sync.stall_cycles"), "cycles"},
      {"sync.queue_wait_cycles", count("sync.queue_wait_cycles"), "cycles"},
      {"fault.conservation_violations",
       static_cast<double>(in.probe->conservation_violations), "count"},
      {"verify.errors", static_cast<double>(in.probe->verify_errors), "count"},
      {"obs.trace_overhead_frac", TraceOverheadFrac(spans), "frac"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string FormatNumber(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string ResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
