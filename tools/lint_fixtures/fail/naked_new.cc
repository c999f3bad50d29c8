// analyze-fixture-as: src/media/bad_alloc.cc
// analyze-expect: naked-new
// Fixture: raw owning allocations outside buffer code.
#include <cstdlib>

namespace avdb {

int* MakeInts() {
  return new int[16];
}

void* MakeRaw(unsigned n) {
  return malloc(n);
}

}  // namespace avdb
