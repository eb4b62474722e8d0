#include "host.hpp"

#include <sys/resource.h>

#include <cstdlib>
#include <thread>

#include "obs/enabled.hpp"
#include "report.hpp"

namespace perfbench {

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string HostContextJson(int jobs) {
  double load[1] = {-1.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
  std::string out = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"loadavg_1m\": " + FormatNumber(load[0]);
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"ndc_obs\": ";
  out += ndc::obs::kObsEnabled ? "true" : "false";
  out += ", \"jobs\": " + std::to_string(jobs) + "}";
  return out;
}

}  // namespace perfbench
