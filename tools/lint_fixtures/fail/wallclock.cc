// analyze-fixture-as: src/sched/bad_clock.cc
// analyze-expect: wallclock
// Fixture: library code reading the wall clock and sleeping for real —
// both violate the virtual-time discipline.
#include <chrono>
#include <thread>

namespace avdb {

long long NowNs() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

void Nap() {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

}  // namespace avdb
