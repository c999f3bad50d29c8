#ifndef AVDB_TIME_WORLD_TIME_H_
#define AVDB_TIME_WORLD_TIME_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "base/rational.h"

namespace avdb {

/// A point on (or length of) the *world time* axis of §4.1 of the paper:
/// the shared presentation timeline against which all tracks of a temporal
/// composite are correlated. Stored as exact rational seconds so NTSC frame
/// durations (1001/30000 s) and audio sample periods (1/44100 s) compose
/// without drift. Following the paper's `MediaValue` interface, durations
/// are also WorldTime values.
class WorldTime {
 public:
  /// Zero time.
  WorldTime() = default;
  explicit WorldTime(Rational seconds) : seconds_(seconds) {}

  static WorldTime FromSeconds(int64_t s) { return WorldTime(Rational(s)); }
  static WorldTime FromSeconds(Rational s) { return WorldTime(s); }
  static WorldTime FromMillis(int64_t ms) {
    return WorldTime(Rational(ms, 1000));
  }
  static WorldTime FromMicros(int64_t us) {
    return WorldTime(Rational(us, 1000000));
  }
  static WorldTime FromNanos(int64_t ns) {
    return WorldTime(Rational(ns, 1000000000));
  }
  /// Duration of `count` media elements at `rate` elements/second.
  static WorldTime FromElements(int64_t count, Rational rate) {
    return WorldTime(Rational(count) / rate);
  }

  Rational seconds() const { return seconds_; }
  double ToSecondsF() const { return seconds_.ToDouble(); }
  int64_t ToMillis() const { return (seconds_ * Rational(1000)).Rounded(); }

  bool IsZero() const { return seconds_.IsZero(); }
  bool IsNegative() const { return seconds_.IsNegative(); }

  WorldTime operator+(WorldTime o) const {
    return WorldTime(seconds_ + o.seconds_);
  }
  WorldTime operator-(WorldTime o) const {
    return WorldTime(seconds_ - o.seconds_);
  }
  WorldTime operator*(Rational f) const { return WorldTime(seconds_ * f); }
  WorldTime operator/(Rational f) const { return WorldTime(seconds_ / f); }
  WorldTime operator-() const { return WorldTime(-seconds_); }
  WorldTime& operator+=(WorldTime o) { seconds_ += o.seconds_; return *this; }
  WorldTime& operator-=(WorldTime o) { seconds_ -= o.seconds_; return *this; }

  friend bool operator==(WorldTime a, WorldTime b) {
    return a.seconds_ == b.seconds_;
  }
  friend bool operator!=(WorldTime a, WorldTime b) { return !(a == b); }
  friend bool operator<(WorldTime a, WorldTime b) {
    return a.seconds_ < b.seconds_;
  }
  friend bool operator<=(WorldTime a, WorldTime b) {
    return a.seconds_ <= b.seconds_;
  }
  friend bool operator>(WorldTime a, WorldTime b) { return b < a; }
  friend bool operator>=(WorldTime a, WorldTime b) { return b <= a; }

  /// Seconds with 3 decimals, e.g. "2.500s".
  std::string ToString() const;

 private:
  Rational seconds_;
};

std::ostream& operator<<(std::ostream& os, WorldTime t);

/// A point on the *object time* axis of §4.1: position within one media
/// value, measured in that value's own element units (video frames, audio
/// samples, characters). A plain element index made a distinct type so the
/// two axes cannot be mixed accidentally.
class ObjectTime {
 public:
  ObjectTime() = default;
  explicit ObjectTime(int64_t ticks) : ticks_(ticks) {}

  int64_t ticks() const { return ticks_; }

  ObjectTime operator+(ObjectTime o) const {
    return ObjectTime(ticks_ + o.ticks_);
  }
  ObjectTime operator-(ObjectTime o) const {
    return ObjectTime(ticks_ - o.ticks_);
  }

  friend bool operator==(ObjectTime a, ObjectTime b) {
    return a.ticks_ == b.ticks_;
  }
  friend bool operator!=(ObjectTime a, ObjectTime b) { return !(a == b); }
  friend bool operator<(ObjectTime a, ObjectTime b) {
    return a.ticks_ < b.ticks_;
  }
  friend bool operator<=(ObjectTime a, ObjectTime b) {
    return a.ticks_ <= b.ticks_;
  }
  friend bool operator>(ObjectTime a, ObjectTime b) { return b < a; }
  friend bool operator>=(ObjectTime a, ObjectTime b) { return b <= a; }

 private:
  int64_t ticks_ = 0;
};

std::ostream& operator<<(std::ostream& os, ObjectTime t);

}  // namespace avdb

#endif  // AVDB_TIME_WORLD_TIME_H_
