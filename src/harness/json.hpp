#pragma once

// The JSON codec lives in src/json (namespace ndc::json). This alias keeps
// the old harness::json spelling for perfbench/, which still includes it.

#include "json/json.hpp"

namespace ndc::harness {
namespace json = ndc::json;
}  // namespace ndc::harness
