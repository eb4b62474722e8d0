#pragma once

// Numeric command-line flag values, parsed the same way by every binary.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ndc::cli {

/// Parses `s` as a decimal integer in [min, max]. Only ASCII digits are
/// accepted: an empty value, a sign, whitespace, trailing bytes, a value
/// that overflows 64 bits or one outside [min, max] yields nullopt.
std::optional<std::uint64_t> ParseUint(const char* s, std::uint64_t min, std::uint64_t max);

/// Parses a comma-separated list of ParseUint values in [min, max]. An empty
/// list or an empty element ("3,", ",3", "3,,4") yields nullopt.
std::optional<std::vector<std::uint64_t>> ParseUintList(const char* s, std::uint64_t min,
                                                        std::uint64_t max);

/// ParseUint for the value `s` of flag `flag`. On a bad value it prints
/// "<prog>: <flag> expects <expects>, got '<s>'" to stderr and returns
/// nullopt; the usage text and the exit status stay with the caller.
std::optional<std::uint64_t> ParseUintFlag(const char* prog, const char* flag, const char* s,
                                           std::uint64_t min, std::uint64_t max,
                                           const std::string& expects);

}  // namespace ndc::cli
