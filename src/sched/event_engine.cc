#include "sched/event_engine.h"

#include <algorithm>

namespace avdb {

TimerHandle EventEngine::ScheduleAt(int64_t t_ns, Callback cb) {
  if (t_ns < now_ns()) t_ns = now_ns();
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.armed = true;
  heap_.push_back(Entry{t_ns, next_seq_++, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_events_;
  return TimerHandle(slot, s.generation);
}

bool EventEngine::IsPending(TimerHandle handle) const {
  return handle.gen_ != 0 && handle.slot_ < slots_.size() &&
         slots_[handle.slot_].armed &&
         slots_[handle.slot_].generation == handle.gen_;
}

bool EventEngine::Cancel(TimerHandle handle) {
  if (!IsPending(handle)) return false;
  Slot& s = slots_[handle.slot_];
  s.cb.Reset();  // drop the closure (and its captures) now, not at deadline
  s.armed = false;
  BumpGeneration(s);
  free_slots_.push_back(handle.slot_);
  --live_events_;
  ++dead_entries_;
  ++events_cancelled_;
  MaybeCompact();
  return true;
}

void EventEngine::PurgeDeadTop() {
  while (!heap_.empty() && !EntryLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --dead_entries_;
  }
}

void EventEngine::MaybeCompact() {
  if (dead_entries_ <= kCompactMinDead || dead_entries_ * 2 <= heap_.size()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !EntryLive(e); }),
              heap_.end());
  // Entries keep their original seq, so re-heapifying reproduces the exact
  // tie-break order the lazy path would have produced.
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_entries_ = 0;
  ++compactions_;
}

bool EventEngine::RunOne() {
  PurgeDeadTop();
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Retire the slot before invoking: the callback may schedule (growing
  // slots_) or cancel, so no Slot reference is held across the call.
  Slot& s = slots_[top.slot];
  Callback cb = std::move(s.cb);
  s.cb.Reset();
  s.armed = false;
  BumpGeneration(s);
  free_slots_.push_back(top.slot);
  --live_events_;
  clock_.AdvanceTo(top.time_ns);
  ++events_run_;
  cb();
  return true;
}

int64_t EventEngine::RunUntilIdle(int64_t max_events) {
  int64_t run = 0;
  while (run < max_events && RunOne()) ++run;
  return run;
}

int64_t EventEngine::RunUntil(int64_t t_ns) {
  int64_t run = 0;
  for (;;) {
    PurgeDeadTop();
    if (heap_.empty() || heap_.front().time_ns > t_ns) break;
    RunOne();
    ++run;
  }
  if (t_ns > clock_.now_ns()) clock_.AdvanceTo(t_ns);
  return run;
}

void EventEngine::BindObservability(obs::MetricsRegistry* registry) {
  counters_.Bind(registry,
                 {{"avdb_sched_engine_cancelled_total",
                   "events removed before firing", &events_cancelled_},
                  {"avdb_sched_engine_compactions_total",
                   "tombstone sweeps of the event heap", &compactions_},
                  {"avdb_sched_engine_pending", "live scheduled events",
                   [this] { return static_cast<int64_t>(live_events_); }}});
}

}  // namespace avdb
