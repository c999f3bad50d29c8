#ifndef AVDB_OBS_TRACE_H_
#define AVDB_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/mutex.h"

namespace avdb {
namespace obs {

/// One structured trace record in virtual time. Spans arrive as a
/// 'B'(egin)/'E'(nd) pair sharing a span id; instants are phase 'I'.
struct TraceEvent {
  int64_t seq = 0;       ///< monotone, never reused (survives ring eviction)
  int64_t t_ns = 0;      ///< virtual time
  char phase = 'I';      ///< 'B' | 'E' | 'I'
  int64_t span_id = 0;   ///< nonzero for 'B'/'E'; pairs the two halves
  std::string category;  ///< emitting layer: "activity", "sched", ...
  std::string name;      ///< verb: "bind", "admit", "journal_commit", ...
  std::string actor;     ///< activity/stream/pool/device the event is about
  std::string detail;    ///< free-form context, may be empty
};

/// Bounded virtual-time trace recorder. Every layer appends lifecycle
/// spans (bind → cue → start → stop), retries, degradation-ladder
/// transitions, journal commits, admission decisions... into one ring
/// buffer; `DumpJson()` is the machine-readable timeline the figure
/// benches emit. When the ring is full the oldest events are evicted and
/// counted in `dropped`, so a runaway stream cannot grow memory.
///
/// Timestamps are explicit (`*At` overloads) or read from the clock
/// function installed with SetClock — typically the event engine's
/// virtual now_ns. No wall clock anywhere.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit Tracer(size_t capacity = kDefaultCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Installs the virtual-time source used by the clockless overloads.
  /// Without one they stamp t=0.
  void SetClock(std::function<int64_t()> now_fn);

  /// Per-element delivery events are high-volume; they are only recorded
  /// when explicitly enabled so lifecycle spans survive in the ring.
  void set_capture_deliveries(bool on);
  bool capture_deliveries() const;

  // --- recording -----------------------------------------------------------

  /// Opens a span; returns its id for EndSpan. Id 0 is never issued.
  int64_t BeginSpan(const std::string& category, const std::string& name,
                    const std::string& actor, const std::string& detail = "");
  int64_t BeginSpanAt(int64_t t_ns, const std::string& category,
                      const std::string& name, const std::string& actor,
                      const std::string& detail = "");
  /// Closes a span by id; unknown/already-closed ids are ignored (the
  /// begin half may have been evicted — closing must stay safe).
  void EndSpan(int64_t span_id, const std::string& detail = "");
  void EndSpanAt(int64_t span_id, int64_t t_ns,
                 const std::string& detail = "");

  /// Records an instant event.
  void Event(const std::string& category, const std::string& name,
             const std::string& actor, const std::string& detail = "");
  void EventAt(int64_t t_ns, const std::string& category,
               const std::string& name, const std::string& actor,
               const std::string& detail = "");

  // --- inspection ----------------------------------------------------------

  struct Stats {
    int64_t recorded = 0;  ///< events ever appended
    int64_t dropped = 0;   ///< events evicted by ring wraparound
  };
  Stats stats() const;
  size_t capacity() const { return capacity_; }

  /// Events currently held, oldest first.
  std::vector<TraceEvent> Events() const;

  /// The timeline as one JSON object, oldest event first — byte-stable for
  /// a fixed virtual-time schedule:
  ///   {"capacity":N,"recorded":R,"dropped":D,"events":[{...},...]}
  std::string DumpJson() const;

 private:
  void Append(TraceEvent event, int64_t t_ns) AVDB_REQUIRES(mu_);
  /// Samples the installed clock; each clockless overload stamps with it,
  /// then forwards to its `*At` form. The callback is copied out under a
  /// short-lived lock and invoked with mu_ released: the clock is caller
  /// code (typically the event engine) and may itself call back into the
  /// tracer, so running it under mu_ would self-deadlock.
  int64_t Now() const AVDB_EXCLUDES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  std::function<int64_t()> now_fn_ AVDB_GUARDED_BY(mu_);
  bool capture_deliveries_ AVDB_GUARDED_BY(mu_) = false;
  std::vector<TraceEvent> ring_ AVDB_GUARDED_BY(mu_);
  size_t head_ AVDB_GUARDED_BY(mu_) = 0;  ///< next write slot once full
  int64_t next_seq_ AVDB_GUARDED_BY(mu_) = 0;
  int64_t next_span_id_ AVDB_GUARDED_BY(mu_) = 1;
  /// Open spans: id -> (category, name, actor) so EndSpan can emit a
  /// self-describing 'E' record.
  std::map<int64_t, std::array<std::string, 3>> open_spans_
      AVDB_GUARDED_BY(mu_);
  Stats stats_ AVDB_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace avdb

#endif  // AVDB_OBS_TRACE_H_
