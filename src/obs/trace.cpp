#include "obs/trace.hpp"

#include <cstdio>
#include <fstream>

#include "json/json.hpp"

namespace ndc::obs {
namespace {

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

// Event names are static strings chosen by the instrumentation (no user
// input), but escape defensively so the output is always valid JSON.
void AppendQuoted(std::string& out, const char* s) {
  out += '"';
  json::AppendEscaped(out, s);
  out += '"';
}

}  // namespace

std::string TraceSink::ToJson() const {
  std::string out;
  out.reserve(events_.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\",\"ts\":";
    AppendU64(out, e.ts);
    if (e.ph == 'X') {
      out += ",\"dur\":";
      AppendU64(out, e.dur);
    }
    out += ",\"pid\":";
    AppendU64(out, static_cast<std::uint64_t>(e.pid));
    out += ",\"tid\":";
    AppendU64(out, static_cast<std::uint64_t>(e.tid));
    out += ",\"name\":";
    AppendQuoted(out, e.name);
    if (e.ph == 'i') out += ",\"s\":\"t\"";  // instant scope: thread
    if (e.token != 0 || e.arg_name != nullptr) {
      out += ",\"args\":{";
      bool comma = false;
      if (e.token != 0) {
        out += "\"token\":";
        AppendU64(out, e.token);
        comma = true;
      }
      if (e.arg_name != nullptr) {
        if (comma) out += ',';
        AppendQuoted(out, e.arg_name);
        out += ':';
        AppendU64(out, e.arg);
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

bool TraceSink::WriteFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << ToJson() << "\n";
  return static_cast<bool>(f);
}

}  // namespace ndc::obs
