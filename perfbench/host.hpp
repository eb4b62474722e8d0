#pragma once

// Host-side measurements: process CPU time, peak memory, and the context
// each run is recorded with.

#include <string>

namespace perfbench {

/// User plus system CPU seconds of this process, all threads included.
double CpuSeconds();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// JSON object describing the host and build: nproc, 1-minute load
/// average, build type, whether NDC_OBS is compiled in, and the job count.
std::string HostContextJson(int jobs);

}  // namespace perfbench
