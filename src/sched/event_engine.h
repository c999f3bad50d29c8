#ifndef AVDB_SCHED_EVENT_ENGINE_H_
#define AVDB_SCHED_EVENT_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "time/virtual_clock.h"
#include "time/world_time.h"

namespace avdb {

/// Move-only type-erased callable with a small-buffer store sized for the
/// engine's real closures (an Emit delivery captures a receiver pointer, a
/// port pointer, a StreamElement and a generation — ~128 bytes). Anything
/// that fits is constructed in place; a per-event `std::function` would
/// heap-allocate every closure past 16 bytes, which at 10⁵ sessions is one
/// malloc/free pair per frame per stream. Oversized or throwing-move
/// callables fall back to a unique_ptr-holding wrapper, so correctness is
/// never size-limited.
class EventCallback {
 public:
  static constexpr size_t kInlineBytes = 192;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &OpsImpl<D>::kOps;
    } else {
      using H = HeapHolder<D>;
      ::new (static_cast<void*>(storage_))
          H{std::make_unique<D>(std::forward<F>(f))};
      ops_ = &OpsImpl<H>::kOps;
    }
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the held callable (and anything it captured) immediately.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*move)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename F>
  struct HeapHolder {
    std::unique_ptr<F> fn;
    void operator()() { (*fn)(); }
  };

  template <typename F>
  struct OpsImpl {
    static void Invoke(void* storage) { (*static_cast<F*>(storage))(); }
    static void Move(void* dst, void* src) {
      ::new (dst) F(std::move(*static_cast<F*>(src)));
      static_cast<F*>(src)->~F();
    }
    static void Destroy(void* storage) { static_cast<F*>(storage)->~F(); }
    static constexpr Ops kOps{&Invoke, &Move, &Destroy};
  };

  void MoveFrom(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Handle to a scheduled event. Generation-stamped: a handle only matches
/// while its slot still holds the same scheduling, so cancelling after the
/// event fired (or cancelling twice) is a harmless no-op. Default-constructed
/// handles are invalid and never match anything.
class TimerHandle {
 public:
  TimerHandle() = default;

 private:
  friend class EventEngine;
  TimerHandle(uint32_t slot, uint32_t gen) : slot_(slot), gen_(gen) {}
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;  ///< 0 = invalid; live slot generations start at 1.
};

/// Deterministic discrete-event engine over a VirtualClock. Everything
/// temporal in the system — stream ticks, device completions, network
/// deliveries, resynchronization checks — is an event here. Ties on the
/// timestamp are broken by insertion order, so runs are exactly
/// reproducible (hour-long media simulates in milliseconds; see DESIGN.md
/// §5 on time scaling).
///
/// Events are cancellable in O(1): each scheduling takes a slot in a
/// recycled slot table (callback + generation), and the heap holds only
/// POD entries pointing at slots. Cancel destroys the closure immediately
/// and bumps the slot generation; the dead heap entry is skipped lazily at
/// the top, or swept wholesale once dead entries dominate (see DESIGN.md
/// §16 on the compaction policy).
class EventEngine {
 public:
  using Callback = EventCallback;

  EventEngine() = default;

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  VirtualClock& clock() { return clock_; }
  int64_t now_ns() const { return clock_.now_ns(); }
  WorldTime Now() const { return clock_.Now(); }

  /// Schedules `cb` at absolute virtual time `t_ns`; times before "now" are
  /// clamped to now (the event still runs, immediately next). The returned
  /// handle may be ignored (fire-and-forget) or kept to Cancel later.
  TimerHandle ScheduleAt(int64_t t_ns, Callback cb);
  TimerHandle ScheduleAt(WorldTime t, Callback cb) {
    return ScheduleAt(VirtualClock::ToNs(t), std::move(cb));
  }

  /// Schedules `cb` `delta_ns` from now. Negative clamps to now; the sum
  /// saturates at INT64_MAX so sentinel deadlines ("never") stay in the far
  /// future instead of wrapping negative and firing immediately.
  TimerHandle ScheduleAfter(int64_t delta_ns, Callback cb) {
    if (delta_ns < 0) delta_ns = 0;
    const int64_t now = now_ns();
    const int64_t t =
        delta_ns > std::numeric_limits<int64_t>::max() - now
            ? std::numeric_limits<int64_t>::max()
            : now + delta_ns;
    return ScheduleAt(t, std::move(cb));
  }
  TimerHandle ScheduleAfter(WorldTime delta, Callback cb) {
    return ScheduleAfter(VirtualClock::ToNs(delta), std::move(cb));
  }

  /// Cancels a pending event: the closure (and everything it captured) is
  /// destroyed immediately, the slot is recycled, and the heap entry dies in
  /// place. Returns true if this call removed a pending event; false for
  /// invalid, already-fired, or already-cancelled handles (idempotent).
  bool Cancel(TimerHandle handle);

  /// True while the handle's event is scheduled and has neither fired nor
  /// been cancelled.
  bool IsPending(TimerHandle handle) const;

  /// Runs the earliest event (advancing the clock to it). False when empty.
  bool RunOne();

  /// Runs events until the queue is empty or `max_events` executed.
  /// Returns the number of events run.
  int64_t RunUntilIdle(int64_t max_events = 100000000);

  /// Runs all events with timestamps <= `t_ns`, then advances the clock to
  /// `t_ns` (if it is in the future).
  int64_t RunUntil(int64_t t_ns);
  int64_t RunUntil(WorldTime t) { return RunUntil(VirtualClock::ToNs(t)); }

  /// Live (schedulable) events — cancelled tombstones are not counted.
  size_t PendingEvents() const { return live_events_; }
  /// Heap entries including dead ones awaiting lazy removal/compaction;
  /// `HeapEntries() - PendingEvents()` is the current tombstone debt.
  size_t HeapEntries() const { return heap_.size(); }
  int64_t EventsRun() const { return events_run_; }
  int64_t EventsCancelled() const { return events_cancelled_; }
  int64_t Compactions() const { return compactions_; }

  /// Bytes held in the engine's own containers (heap entries, slot table,
  /// free list) — the per-session cost the scale bench gates on.
  size_t MemoryFootprintBytes() const {
    return heap_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(Slot) +
           free_slots_.capacity() * sizeof(uint32_t);
  }

  /// Exports `avdb_sched_engine_{pending,cancelled,compactions}` so heap
  /// health (tombstone debt, sweep frequency) is visible next to the
  /// admission and sync metrics. Null registry unbinds.
  void BindObservability(obs::MetricsRegistry* registry);

 private:
  /// POD heap entry: 24 bytes, trivially movable during sift/compaction.
  /// `seq` is assigned at scheduling time and survives compaction, so the
  /// tie-break order is identical whether or not a sweep happened.
  struct Entry {
    int64_t time_ns;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;
    uint32_t generation = 1;
    bool armed = false;
  };

  bool EntryLive(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.armed && s.generation == e.gen;
  }
  /// Pops dead entries off the heap top so front() is live or the heap is
  /// empty.
  void PurgeDeadTop();
  /// Sweeps all dead entries and re-heapifies once tombstones dominate.
  void MaybeCompact();
  void BumpGeneration(Slot& slot) {
    if (++slot.generation == 0) slot.generation = 1;
  }

  /// Compaction triggers when the heap carries more than this many dead
  /// entries AND they outnumber live ones — small teardown bursts are
  /// absorbed by lazy top-purging alone.
  static constexpr size_t kCompactMinDead = 64;

  VirtualClock clock_;
  std::vector<Entry> heap_;  ///< binary heap via std::push_heap/pop_heap
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  size_t live_events_ = 0;
  size_t dead_entries_ = 0;
  int64_t events_run_ = 0;
  int64_t events_cancelled_ = 0;
  int64_t compactions_ = 0;

  obs::CounterBinding counters_;
};

}  // namespace avdb

#endif  // AVDB_SCHED_EVENT_ENGINE_H_
