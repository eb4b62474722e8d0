#include "cli/flags.hpp"

#include <cstdio>
#include <limits>

namespace ndc::cli {

std::optional<std::uint64_t> ParseUint(const char* s, std::uint64_t min, std::uint64_t max) {
  if (s == nullptr || *s == '\0') return std::nullopt;
  std::uint64_t v = 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    auto d = static_cast<std::uint64_t>(*p - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  if (v < min || v > max) return std::nullopt;
  return v;
}

std::optional<std::vector<std::uint64_t>> ParseUintList(const char* s, std::uint64_t min,
                                                        std::uint64_t max) {
  if (s == nullptr) return std::nullopt;
  std::vector<std::uint64_t> out;
  std::string elem;
  for (const char* p = s;; ++p) {
    if (*p != ',' && *p != '\0') {
      elem += *p;
      continue;
    }
    std::optional<std::uint64_t> v = ParseUint(elem.c_str(), min, max);
    if (!v) return std::nullopt;
    out.push_back(*v);
    if (*p == '\0') return out;
    elem.clear();
  }
}

std::optional<std::uint64_t> ParseUintFlag(const char* prog, const char* flag, const char* s,
                                           std::uint64_t min, std::uint64_t max,
                                           const std::string& expects) {
  std::optional<std::uint64_t> v = ParseUint(s, min, max);
  if (!v) std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", prog, flag, expects.c_str(), s);
  return v;
}

}  // namespace ndc::cli
