#ifndef AVDB_ACTIVITY_MEDIA_ACTIVITY_H_
#define AVDB_ACTIVITY_MEDIA_ACTIVITY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "activity/port.h"
#include "activity/stream_element.h"
#include "base/result.h"
#include "media/media_value.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/event_engine.h"
#include "sched/jitter.h"
#include "sched/sync_controller.h"
#include "time/world_time.h"

namespace avdb {

class ActivityGraph;

/// Where an activity executes (§4.2 "activity location"): within the
/// database system or within a client application. Location decides which
/// resources (devices, channels) an activity may touch and which side of a
/// connection pays network transfer.
enum class ActivityLocation { kDatabase, kClient };

std::string_view ActivityLocationName(ActivityLocation loc);

/// Classification by port directions (§3.1 / Table 1).
enum class ActivityKind { kSource, kTransformer, kSink, kOther };

std::string_view ActivityKindName(ActivityKind kind);

/// A notification raised by a running activity and caught by applications
/// (§4.2 "activity event notification", e.g. EACH_FRAME / LAST_FRAME).
struct ActivityEvent {
  std::string kind;
  int64_t element_index = 0;
  int64_t time_ns = 0;
  /// Free-form context for robustness events (FAULT_RETRY, QUALITY_CHANGED,
  /// ...): what happened and why, e.g. "layers 3->2" or "2 retries
  /// absorbed". Empty for plain per-element events.
  std::string detail;
};

using ActivityEventHandler = std::function<void(const ActivityEvent&)>;

/// Shared execution environment handed to every activity: the event engine
/// all temporal behaviour runs on, plus an optional jitter model applied to
/// element deliveries (§3.3's "unpredictable system latencies").
struct ActivityEnv {
  EventEngine* engine = nullptr;
  JitterModel* jitter = nullptr;
  /// Shared observability instruments (owned by the database). Either may
  /// be nullptr: an uninstrumented activity pays one null check per
  /// operation and nothing else.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Abstract base of all AV activities — the paper's central notion:
///
///   class MediaActivity {
///     PortSet ports; EventSet events;
///     Bind(MediaValue, Port); Cue(WorldTime); Start(); Stop();
///     Catch(Event, Handler);
///   }
///
/// An activity is the production and/or consumption of AV values at their
/// data rates (§3.1 definition). Concrete subclasses declare typed ports
/// and implement the streaming callbacks; applications drive them through
/// exactly the five verbs above. MediaActivity itself cannot be
/// instantiated (§4.2 "activity creation").
class MediaActivity {
 public:
  /// Lifecycle: created idle, Start() -> running, Stop()/EOS -> stopped.
  enum class State { kIdle, kRunning, kStopped };

  virtual ~MediaActivity() = default;

  MediaActivity(const MediaActivity&) = delete;
  MediaActivity& operator=(const MediaActivity&) = delete;

  const std::string& name() const { return name_; }
  ActivityLocation location() const { return location_; }
  State state() const { return state_; }
  const ActivityEnv& env() const { return env_; }

  // --- ports (PortSet) -----------------------------------------------------

  /// Resolves a port by name. Virtual so composite activities can expose
  /// child ports under their own names (§4.2 flow-composition rule 2).
  virtual Result<Port*> FindPort(const std::string& name) const;
  std::vector<Port*> InputPorts() const;
  std::vector<Port*> OutputPorts() const;

  /// Source/transformer/sink per §3.1's classification by port directions.
  /// Virtual so composites classify by their exposed ports.
  virtual ActivityKind Kind() const;

  // --- events (EventSet) ---------------------------------------------------

  /// Registers a handler for `kind` (NotFound when the activity does not
  /// declare that kind).
  Status Catch(const std::string& kind, ActivityEventHandler handler);

  // --- control -------------------------------------------------------------

  /// Associates a media value with a port (§4.2 "activity binding").
  /// Non-virtual so every bind lands in the lifecycle trace; subclasses
  /// customize via DoBind (base rejects; source activities override).
  Status Bind(MediaValuePtr value, const std::string& port_name);

  /// Positions the activity at world time `t` of its bound value (§4.2
  /// "cueing a VideoSource to world time 0 would position it at the first
  /// frame"). Only meaningful while idle. Non-virtual for tracing;
  /// subclasses customize via DoCue.
  Status Cue(WorldTime t);

  /// Starts the activity: sources begin producing, sinks begin accepting.
  Status Start();

  /// Stops the activity; idempotent.
  Status Stop();

  /// Joins the activity to a synchronization domain as `track`: sinks will
  /// report presentations, sources will honour skip recommendations
  /// (§3.3's resynchronization). Default: unsupported.
  virtual Status ConfigureSync(SyncController* sync, const std::string& track);

  // --- streaming (driven by the graph/engine) ------------------------------

  /// Delivery of one element on an input port. Only called while running.
  virtual void OnElement(Port* in, const StreamElement& element);

  /// Human-readable one-line description.
  virtual std::string Describe() const;

 protected:
  MediaActivity(std::string name, ActivityLocation location, ActivityEnv env);

  /// Declares a port during construction; returns it for convenience.
  Port* DeclarePort(const std::string& name, PortDirection direction,
                    MediaDataType type);

  /// Declares an event kind during construction.
  void DeclareEvent(const std::string& kind) { event_kinds_.push_back(kind); }

  /// Raises an event to all registered handlers.
  void Raise(const std::string& kind, int64_t element_index);
  void Raise(const std::string& kind, int64_t element_index,
             std::string detail);

  /// Sends an element out of `out`: routes through the port's connection
  /// (modeled transfer + jitter) and schedules delivery at the peer. No-op
  /// when the port is unconnected.
  void Emit(Port* out, StreamElement element);

  /// Emits `element` on `out` at virtual time `t_ns`, once the activity's
  /// modeled processing is done: an owned timer, so a stop cancels it.
  void EmitAt(int64_t t_ns, Port* out, StreamElement element);

  /// Subclass hooks behind the public Bind/Cue verbs (non-virtual
  /// interface: the base traces every lifecycle transition exactly once,
  /// whatever the subclass does).
  virtual Status DoBind(MediaValuePtr value, const std::string& port_name);
  virtual Status DoCue(WorldTime t);

  /// Subclass hooks for Start/Stop.
  virtual Status OnStart() { return Status::OK(); }
  virtual Status OnStop() { return Status::OK(); }

  /// Marks the activity stopped from inside (e.g. on end of stream).
  void SelfStop();

  /// Schedules `cb` on the engine and records the handle so Stop()/
  /// SelfStop() cancel it. Every periodic tick or deferred emit a subclass
  /// schedules for *itself* must go through here — a torn-down session then
  /// removes its events instead of leaving closures in the heap until their
  /// deadlines pass (the 10⁵-idle-session tombstone problem; DESIGN.md §16).
  TimerHandle ScheduleOwned(int64_t t_ns, EventEngine::Callback cb);
  TimerHandle ScheduleOwned(WorldTime t, EventEngine::Callback cb) {
    return ScheduleOwned(VirtualClock::ToNs(t), std::move(cb));
  }

  /// Cancels every still-pending owned timer (idempotent; called on every
  /// stop path).
  void CancelOwnedTimers();

  /// Monotone generation counter: bumped on Stop so stale scheduled events
  /// can recognize they belong to a previous run.
  int64_t generation() const { return generation_; }

  EventEngine* engine() const { return env_.engine; }

 private:
  friend class ActivityGraph;

  /// Records `h` for cancellation on stop, pruning fired handles once the
  /// list grows past a small bound (amortized O(1) per scheduling).
  void RecordOwnedTimer(TimerHandle h);

  std::string name_;
  ActivityLocation location_;
  ActivityEnv env_;
  State state_ = State::kIdle;
  int64_t generation_ = 0;

  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<std::string> event_kinds_;
  std::multimap<std::string, ActivityEventHandler> handlers_;
  std::vector<TimerHandle> owned_timers_;
  int64_t events_raised_ = 0;
  int64_t run_span_id_ = 0;  ///< open "run" trace span while running
  /// Exports `events_raised_`; the elements and bytes sent through Emit
  /// are counted once, by the connections they cross.
  obs::CounterBinding counters_;
};

using MediaActivityPtr = std::shared_ptr<MediaActivity>;

}  // namespace avdb

#endif  // AVDB_ACTIVITY_MEDIA_ACTIVITY_H_
