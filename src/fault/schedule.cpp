#include "fault/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "json/json.hpp"
#include "sim/rng.hpp"

namespace ndc::fault {
namespace {

// ---------------------------------------------------------------------------
// Field extraction with strict unknown-key rejection: a typo'd key must not
// silently produce an un-faulted run.
// ---------------------------------------------------------------------------

class FieldReader {
 public:
  FieldReader(const json::Value& obj, std::string where, std::string* err)
      : obj_(obj), where_(std::move(where)), err_(err) {}

  /// Every signed schedule field (link, mc, bank, max_retries) is an int.
  bool Int(const char* key, int* out) {
    const json::Value* v = Take(key);
    if (v == nullptr) return !failed_;
    if (!IsIntegral(*v)) return Fail(std::string(key) + " must be an integer");
    double d = v->AsDouble();
    if (d < std::numeric_limits<int>::min() || d > std::numeric_limits<int>::max()) {
      return Fail(std::string(key) + " is out of range");
    }
    *out = static_cast<int>(d);
    return true;
  }

  bool Uint(const char* key, std::uint64_t* out) {
    const json::Value* v = Take(key);
    if (v == nullptr) return !failed_;
    if (!IsIntegral(*v)) return Fail(std::string(key) + " must be an integer");
    if (v->kind == json::Value::Kind::kDouble) {
      if (v->num < 0) return Fail(std::string(key) + " must be non-negative");
      if (v->num >= 0x1p64) return Fail(std::string(key) + " is out of range");
    }
    *out = v->AsU64();
    return true;
  }

  bool Double(const char* key, double* out) {
    const json::Value* v = Take(key);
    if (v == nullptr) return !failed_;
    if (v->kind != json::Value::Kind::kInt && v->kind != json::Value::Kind::kDouble) {
      return Fail(std::string(key) + " must be a number");
    }
    *out = v->AsDouble();
    return true;
  }

  bool String(const char* key, std::string* out) {
    const json::Value* v = Take(key);
    if (v == nullptr) return !failed_;
    if (v->kind != json::Value::Kind::kString) {
      return Fail(std::string(key) + " must be a string");
    }
    *out = v->str;
    return true;
  }

  const json::Value* Object(const char* key) {
    const json::Value* v = Take(key);
    if (v == nullptr) return nullptr;
    if (!v->is_object()) {
      Fail(std::string(key) + " must be an object");
      return nullptr;
    }
    return v;
  }

  const json::Value* Array(const char* key) {
    const json::Value* v = Take(key);
    if (v == nullptr) return nullptr;
    if (!v->is_array()) {
      Fail(std::string(key) + " must be an array");
      return nullptr;
    }
    return v;
  }

  /// Call after all known keys were consumed; rejects leftovers.
  bool Finish() {
    if (failed_) return false;
    for (const auto& [key, value] : obj_.obj) {
      if (taken_.count(key) == 0) {
        return Fail("unknown key \"" + key + "\"");
      }
    }
    return true;
  }

  bool Fail(const std::string& msg) {
    failed_ = true;
    if (err_ != nullptr && err_->empty()) *err_ = where_ + ": " + msg;
    return false;
  }

 private:
  // The parser reads non-negative integer tokens as kInt and everything
  // else as kDouble, so "-3" and "1e3" are integers only by value.
  static bool IsIntegral(const json::Value& v) {
    return v.kind == json::Value::Kind::kInt ||
           (v.kind == json::Value::Kind::kDouble && v.num == std::floor(v.num));
  }

  const json::Value* Take(const char* key) {
    if (failed_) return nullptr;
    taken_.insert(key);
    return obj_.Find(key);
  }

  const json::Value& obj_;
  std::string where_;
  std::string* err_;
  std::set<std::string> taken_;
  bool failed_ = false;
};

bool RequireWindow(FieldReader& fr, sim::Cycle start, sim::Cycle end) {
  if (end < start) return fr.Fail("window end precedes start");
  return true;
}

std::string FormatDouble(double d) {
  // Shortest round-trip-stable form keeps canonical strings readable and
  // platform-independent for the values schedules actually use.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  double back = 0.0;
  std::sscanf(buf, "%lg", &back);
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[32];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, d);
    std::sscanf(shorter, "%lg", &back);
    if (back == d) return shorter;
  }
  return buf;
}

sim::Cycle ScaleCycles(sim::Cycle c, double factor) {
  double scaled = static_cast<double>(c) * factor;
  if (scaled <= 0.0) return 0;
  return static_cast<sim::Cycle>(std::llround(scaled));
}

}  // namespace

const char* BankFaultKindName(BankFaultKind k) {
  return k == BankFaultKind::kStall ? "stall" : "nack";
}

std::string FaultSchedule::CanonicalString() const {
  std::ostringstream os;
  os << "seed=" << seed;
  for (const LinkFaultWindow& w : link_faults) {
    os << ";link{" << w.link << "," << w.start << "," << w.end << ","
       << w.extra_latency << "," << FormatDouble(w.drop_prob) << "}";
  }
  for (const BankFaultWindow& w : bank_faults) {
    os << ";bank{" << w.mc << "," << w.bank << "," << w.start << "," << w.end
       << "," << BankFaultKindName(w.kind) << "}";
  }
  for (const McPressureWindow& w : mc_pressure) {
    os << ";press{" << w.mc << "," << w.start << "," << w.end << ","
       << w.extra_delay << "}";
  }
  os << ";res{" << resilience.max_retries << ","
     << FormatDouble(resilience.backoff_mult) << ","
     << resilience.retransmit_delay << "," << resilience.nack_backoff << "}";
  return os.str();
}

std::string FaultSchedule::ToJson() const {
  std::ostringstream os;
  os << "{\"seed\":" << seed;
  if (!link_faults.empty()) {
    os << ",\"link_faults\":[";
    for (std::size_t i = 0; i < link_faults.size(); ++i) {
      const LinkFaultWindow& w = link_faults[i];
      if (i != 0) os << ",";
      os << "{\"link\":" << w.link << ",\"start\":" << w.start
         << ",\"end\":" << w.end << ",\"extra_latency\":" << w.extra_latency
         << ",\"drop_prob\":" << FormatDouble(w.drop_prob) << "}";
    }
    os << "]";
  }
  if (!bank_faults.empty()) {
    os << ",\"bank_faults\":[";
    for (std::size_t i = 0; i < bank_faults.size(); ++i) {
      const BankFaultWindow& w = bank_faults[i];
      if (i != 0) os << ",";
      os << "{\"mc\":" << w.mc << ",\"bank\":" << w.bank
         << ",\"start\":" << w.start << ",\"end\":" << w.end << ",\"kind\":\""
         << BankFaultKindName(w.kind) << "\"}";
    }
    os << "]";
  }
  if (!mc_pressure.empty()) {
    os << ",\"mc_pressure\":[";
    for (std::size_t i = 0; i < mc_pressure.size(); ++i) {
      const McPressureWindow& w = mc_pressure[i];
      if (i != 0) os << ",";
      os << "{\"mc\":" << w.mc << ",\"start\":" << w.start
         << ",\"end\":" << w.end << ",\"extra_delay\":" << w.extra_delay << "}";
    }
    os << "]";
  }
  os << ",\"resilience\":{\"max_retries\":" << resilience.max_retries
     << ",\"backoff_mult\":" << FormatDouble(resilience.backoff_mult)
     << ",\"retransmit_delay\":" << resilience.retransmit_delay
     << ",\"nack_backoff\":" << resilience.nack_backoff << "}}";
  return os.str();
}

FaultSchedule FaultSchedule::Scaled(double factor) const {
  FaultSchedule s = *this;
  if (factor < 0.0) factor = 0.0;
  s.link_faults.clear();
  s.bank_faults.clear();
  s.mc_pressure.clear();
  if (factor == 0.0) return s;
  for (const LinkFaultWindow& w : link_faults) {
    LinkFaultWindow scaled = w;
    scaled.extra_latency = ScaleCycles(w.extra_latency, factor);
    scaled.drop_prob = std::min(1.0, w.drop_prob * factor);
    if (scaled.extra_latency > 0 || scaled.drop_prob > 0.0) {
      s.link_faults.push_back(scaled);
    }
  }
  s.bank_faults = bank_faults;
  for (const McPressureWindow& w : mc_pressure) {
    McPressureWindow scaled = w;
    scaled.extra_delay = ScaleCycles(w.extra_delay, factor);
    if (scaled.extra_delay > 0) s.mc_pressure.push_back(scaled);
  }
  return s;
}

bool ParseSchedule(const std::string& text, FaultSchedule* out, std::string* err) {
  if (err != nullptr) err->clear();
  json::Value root;
  {
    std::string perr;
    if (!json::Parse(text, &root, &perr)) {
      if (err != nullptr) *err = "fault schedule: " + perr;
      return false;
    }
  }
  if (!root.is_object()) {
    if (err != nullptr) *err = "fault schedule: top level must be an object";
    return false;
  }
  FaultSchedule sched;
  FieldReader fr(root, "fault schedule", err);
  if (!fr.Uint("seed", &sched.seed)) return false;
  if (const json::Value* arr = fr.Array("link_faults")) {
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      const json::Value& e = arr->arr[i];
      std::string where = "link_faults[" + std::to_string(i) + "]";
      if (!e.is_object()) return fr.Fail(where + " must be an object");
      FieldReader wfr(e, where, err);
      LinkFaultWindow w;
      int link = 0;
      bool ok = wfr.Int("link", &link) && wfr.Uint("start", &w.start) &&
                wfr.Uint("end", &w.end) && wfr.Uint("extra_latency", &w.extra_latency) &&
                wfr.Double("drop_prob", &w.drop_prob) && wfr.Finish() &&
                RequireWindow(wfr, w.start, w.end);
      if (!ok) return fr.Fail("invalid link fault window");
      if (w.drop_prob < 0.0 || w.drop_prob > 1.0) {
        return wfr.Fail("drop_prob must be in [0, 1]") && false;
      }
      w.link = static_cast<sim::LinkId>(link);
      sched.link_faults.push_back(w);
    }
  }
  if (const json::Value* arr = fr.Array("bank_faults")) {
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      const json::Value& e = arr->arr[i];
      std::string where = "bank_faults[" + std::to_string(i) + "]";
      if (!e.is_object()) return fr.Fail(where + " must be an object");
      FieldReader wfr(e, where, err);
      BankFaultWindow w;
      int mc = 0, bank = 0;
      std::string kind = "stall";
      bool ok = wfr.Int("mc", &mc) && wfr.Int("bank", &bank) &&
                wfr.Uint("start", &w.start) && wfr.Uint("end", &w.end) &&
                wfr.String("kind", &kind) && wfr.Finish() &&
                RequireWindow(wfr, w.start, w.end);
      if (!ok) return fr.Fail("invalid bank fault window");
      if (kind == "stall") {
        w.kind = BankFaultKind::kStall;
      } else if (kind == "nack") {
        w.kind = BankFaultKind::kNack;
      } else {
        return wfr.Fail("kind must be \"stall\" or \"nack\"") && false;
      }
      w.mc = static_cast<sim::McId>(mc);
      w.bank = bank;
      sched.bank_faults.push_back(w);
    }
  }
  if (const json::Value* arr = fr.Array("mc_pressure")) {
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      const json::Value& e = arr->arr[i];
      std::string where = "mc_pressure[" + std::to_string(i) + "]";
      if (!e.is_object()) return fr.Fail(where + " must be an object");
      FieldReader wfr(e, where, err);
      McPressureWindow w;
      int mc = 0;
      bool ok = wfr.Int("mc", &mc) && wfr.Uint("start", &w.start) &&
                wfr.Uint("end", &w.end) && wfr.Uint("extra_delay", &w.extra_delay) &&
                wfr.Finish() && RequireWindow(wfr, w.start, w.end);
      if (!ok) return fr.Fail("invalid mc pressure window");
      w.mc = static_cast<sim::McId>(mc);
      sched.mc_pressure.push_back(w);
    }
  }
  if (const json::Value* res = fr.Object("resilience")) {
    FieldReader rfr(*res, "resilience", err);
    int retries = sched.resilience.max_retries;
    bool ok = rfr.Int("max_retries", &retries) &&
              rfr.Double("backoff_mult", &sched.resilience.backoff_mult) &&
              rfr.Uint("retransmit_delay", &sched.resilience.retransmit_delay) &&
              rfr.Uint("nack_backoff", &sched.resilience.nack_backoff) &&
              rfr.Finish();
    if (!ok) return fr.Fail("invalid resilience params");
    if (retries < 0) return rfr.Fail("max_retries must be non-negative") && false;
    if (sched.resilience.backoff_mult < 1.0) {
      return rfr.Fail("backoff_mult must be >= 1") && false;
    }
    // Zero would re-attempt in the same cycle forever (the injector decides
    // drop/NACK by window, not by attempt count).
    if (sched.resilience.retransmit_delay == 0) {
      return rfr.Fail("retransmit_delay must be positive") && false;
    }
    if (sched.resilience.nack_backoff == 0) {
      return rfr.Fail("nack_backoff must be positive") && false;
    }
    sched.resilience.max_retries = retries;
  }
  if (!fr.Finish()) return false;
  *out = std::move(sched);
  return true;
}

bool LoadSchedule(const std::string& arg, FaultSchedule* out, std::string* err) {
  std::string text = arg;
  // Anything that doesn't look like inline JSON is a file path.
  std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || text[first] != '{') {
    std::ifstream in(arg);
    if (!in) {
      if (err != nullptr) *err = "fault schedule: cannot open file '" + arg + "'";
      return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  return ParseSchedule(text, out, err);
}

FaultSchedule MakeStorm(const StormSpec& spec) {
  FaultSchedule s;
  s.seed = spec.seed;
  s.resilience.max_retries = spec.max_retries;
  double intensity = std::clamp(spec.intensity, 0.0, 1.0);
  if (intensity == 0.0 || spec.horizon == 0) return s;
  // Derive everything from one seeded stream so the spec is the only input.
  sim::Rng rng(spec.seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  auto window = [&](sim::Cycle min_len) {
    sim::Cycle len = min_len + rng.NextBelow(spec.horizon / 4 + 1);
    sim::Cycle start = rng.NextBelow(spec.horizon);
    return std::pair<sim::Cycle, sim::Cycle>{start,
                                             std::min(start + len, spec.horizon)};
  };
  int n_links = static_cast<int>(std::ceil(intensity * spec.num_links * 0.25));
  for (int i = 0; i < n_links && spec.num_links > 0; ++i) {
    LinkFaultWindow w;
    w.link = static_cast<sim::LinkId>(rng.NextBelow(static_cast<std::uint64_t>(spec.num_links)));
    auto [start, end] = window(64);
    w.start = start;
    w.end = end;
    w.extra_latency = static_cast<sim::Cycle>(1 + rng.NextBelow(static_cast<std::uint64_t>(1 + intensity * 16)));
    // Cap drop probability below 1 so a dropped packet always eventually
    // clears its window (conservation never depends on the window ending).
    w.drop_prob = std::min(0.9, intensity * rng.NextDouble());
    s.link_faults.push_back(w);
  }
  int total_banks = spec.num_mcs * spec.banks_per_mc;
  int n_banks = static_cast<int>(std::ceil(intensity * total_banks * 0.125));
  for (int i = 0; i < n_banks && total_banks > 0; ++i) {
    BankFaultWindow w;
    std::uint64_t pick = rng.NextBelow(static_cast<std::uint64_t>(total_banks));
    w.mc = static_cast<sim::McId>(pick / static_cast<std::uint64_t>(spec.banks_per_mc));
    w.bank = static_cast<int>(pick % static_cast<std::uint64_t>(spec.banks_per_mc));
    auto [start, end] = window(128);
    w.start = start;
    w.end = end;
    w.kind = rng.NextBool(0.5) ? BankFaultKind::kStall : BankFaultKind::kNack;
    s.bank_faults.push_back(w);
  }
  int n_press = static_cast<int>(std::ceil(intensity * spec.num_mcs * 0.5));
  for (int i = 0; i < n_press && spec.num_mcs > 0; ++i) {
    McPressureWindow w;
    w.mc = static_cast<sim::McId>(rng.NextBelow(static_cast<std::uint64_t>(spec.num_mcs)));
    auto [start, end] = window(64);
    w.start = start;
    w.end = end;
    w.extra_delay = static_cast<sim::Cycle>(1 + rng.NextBelow(static_cast<std::uint64_t>(1 + intensity * 32)));
    s.mc_pressure.push_back(w);
  }
  return s;
}

}  // namespace ndc::fault
