// analyze-fixture-as: src/sched/shed_policy.h
// analyze-expect: unused-api
// Fixture: a policy field that code reads but nothing ever sets. A knob
// with one setting is a constant of the class that reads it.
#pragma once

#include <cstdint>

namespace avdb {

struct ShedPolicy {
  int64_t backlog_threshold_ns = 250 * 1000 * 1000;
};

inline bool ShouldShed(const ShedPolicy& policy, int64_t backlog_ns) {
  return backlog_ns > policy.backlog_threshold_ns;
}

inline const bool kShedsAtOneSecond =
    ShouldShed(ShedPolicy(), 1000 * 1000 * 1000);

}  // namespace avdb
