// analyze-fixture-as: src/media/level.h
// Fixture: header declarations the unused-api rule keeps although nothing
// calls them by name — an operator, a constructor and destructor, a
// virtual function and its override — and uses it must see: a name in a
// #define body, a function taken by address, a local named like a
// function inside an inline body (no declaration), and knob fields set by
// a designated initializer and through a sub-field.
#pragma once

#include <cstdint>
#include <vector>

#define AVDB_FIXTURE_CLAMP(x) ::avdb::ClampLevel(x)

namespace avdb {

int ClampLevel(int level);
int Twice(int level);

struct BackoffPolicy {
  int max_attempts = 3;
};

struct FetchPolicy {
  int64_t deadline_ns = 0;
  BackoffPolicy backoff{};
};

class Level {
 public:
  explicit Level(int value) : value_(value) {}
  virtual ~Level() = default;

  bool operator==(const Level& other) const { return value_ == other.value_; }
  virtual int Weight() const { return value_; }

 private:
  int value_;
};

class HeavyLevel : public Level {
 public:
  using Level::Level;
  int Weight() const override { return 2; }
};

inline const auto kTwice = &Twice;

inline int Total(int n) {
  std::vector<int> slots(n);
  FetchPolicy policy{.deadline_ns = 5};
  policy.backoff.max_attempts = 2;
  return static_cast<int>(slots.size()) + policy.backoff.max_attempts +
         AVDB_FIXTURE_CLAMP(n) + kTwice(n);
}

inline const int kTotal = Total(4);

}  // namespace avdb
