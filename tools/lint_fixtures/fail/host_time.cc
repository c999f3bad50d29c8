// analyze-fixture-as: src/time/host_time.cc
// analyze-expect: wallclock
// Process CPU time and calendar time are host clocks too: std::clock()
// and std::time() read the machine, not the virtual clock, so nothing
// built on them replays.
#include <ctime>

namespace avdb {

double HostCpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

long long HostSeed() { return static_cast<long long>(std::time(nullptr)); }

}  // namespace avdb
