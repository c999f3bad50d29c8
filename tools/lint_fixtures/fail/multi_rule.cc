// analyze-fixture-as: src/net/bad_everything.cc
// analyze-expect: naked-new,wallclock
// Fixture: several rules at once — the report must name each distinct
// rule that fires, not stop at the first.
#include <chrono>

namespace avdb {

struct Packet {
  long long t_ns = 0;
};

Packet* Stamp() {
  Packet* p = new Packet;
  p->t_ns = std::chrono::system_clock::now().time_since_epoch().count();
  return p;
}

}  // namespace avdb
