// analyze-fixture-as: src/media/gauge.h
// analyze-expect: unused-api
// Fixture: a header declares two accessors and the tree calls one. The
// other, peak(), is only the name of a local below, and a local is no use
// of a function: nothing calls it, so it is dead API.
#pragma once

namespace avdb {

class Gauge {
 public:
  int reading() const { return reading_; }
  int peak() const { return peak_; }

 private:
  int reading_ = 0;
  int peak_ = 0;
};

int Clamp(int level);

inline int Report(const Gauge& gauge) {
  int peak = gauge.reading();
  return Clamp(peak);
}

inline const int kReported = Report(Gauge());

}  // namespace avdb
