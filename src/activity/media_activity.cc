#include "activity/media_activity.h"

#include <algorithm>

#include "activity/graph.h"
#include "base/logging.h"

namespace avdb {

std::string_view ActivityLocationName(ActivityLocation loc) {
  switch (loc) {
    case ActivityLocation::kDatabase:
      return "database";
    case ActivityLocation::kClient:
      return "client";
  }
  return "unknown";
}

std::string_view ActivityKindName(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kSource:
      return "source";
    case ActivityKind::kTransformer:
      return "transformer";
    case ActivityKind::kSink:
      return "sink";
    case ActivityKind::kOther:
      return "other";
  }
  return "unknown";
}

std::string_view PortDirectionName(PortDirection d) {
  return d == PortDirection::kIn ? "in" : "out";
}

std::string Port::FullName() const {
  return owner_->name() + "." + name_;
}

Result<Port*> MediaActivity::FindPort(const std::string& name) const {
  for (const auto& p : ports_) {
    if (p->name() == name) return p.get();
  }
  return Status::NotFound("port " + name_ + "." + name);
}

std::vector<Port*> MediaActivity::InputPorts() const {
  std::vector<Port*> out;
  for (const auto& p : ports_) {
    if (p->direction() == PortDirection::kIn) out.push_back(p.get());
  }
  return out;
}

std::vector<Port*> MediaActivity::OutputPorts() const {
  std::vector<Port*> out;
  for (const auto& p : ports_) {
    if (p->direction() == PortDirection::kOut) out.push_back(p.get());
  }
  return out;
}

ActivityKind MediaActivity::Kind() const {
  const bool has_in = !InputPorts().empty();
  const bool has_out = !OutputPorts().empty();
  if (has_in && has_out) return ActivityKind::kTransformer;
  if (has_out) return ActivityKind::kSource;
  if (has_in) return ActivityKind::kSink;
  return ActivityKind::kOther;
}

Status MediaActivity::Catch(const std::string& kind,
                            ActivityEventHandler handler) {
  bool declared = false;
  for (const auto& k : event_kinds_) {
    if (k == kind) {
      declared = true;
      break;
    }
  }
  if (!declared) {
    return Status::NotFound("activity " + name_ + " has no event " + kind);
  }
  handlers_.emplace(kind, std::move(handler));
  return Status::OK();
}

MediaActivity::MediaActivity(std::string name, ActivityLocation location,
                             ActivityEnv env)
    : name_(std::move(name)), location_(location), env_(env) {
  counters_.Bind(env_.metrics,
                 {{"avdb_activity_events_total",
                   "activity events raised to handlers", &events_raised_}});
}

Status MediaActivity::Bind(MediaValuePtr value, const std::string& port_name) {
  int64_t span = 0;
  if (env_.tracer != nullptr) {
    span = env_.tracer->BeginSpan("activity", "bind", name_, port_name);
  }
  const Status status = DoBind(std::move(value), port_name);
  if (env_.tracer != nullptr) {
    env_.tracer->EndSpan(span, status.ok() ? "ok" : status.message());
  }
  return status;
}

Status MediaActivity::Cue(WorldTime t) {
  int64_t span = 0;
  if (env_.tracer != nullptr) {
    span = env_.tracer->BeginSpan("activity", "cue", name_,
                                  std::to_string(t.ToMillis()) + " ms");
  }
  const Status status = DoCue(t);
  if (env_.tracer != nullptr) {
    env_.tracer->EndSpan(span, status.ok() ? "ok" : status.message());
  }
  return status;
}

Status MediaActivity::DoBind(MediaValuePtr /*value*/,
                             const std::string& port_name) {
  return Status::FailedPrecondition("activity " + name_ +
                                    " does not support binding on port " +
                                    port_name);
}

Status MediaActivity::DoCue(WorldTime /*t*/) {
  return Status::FailedPrecondition("activity " + name_ +
                                    " does not support cueing");
}

Status MediaActivity::ConfigureSync(SyncController* /*sync*/,
                                    const std::string& /*track*/) {
  return Status::Unimplemented("activity " + name_ +
                               " does not participate in sync domains");
}

Status MediaActivity::Start() {
  if (state_ == State::kRunning) {
    return Status::FailedPrecondition("activity " + name_ +
                                      " already running");
  }
  AVDB_CHECK(env_.engine != nullptr)
      << "activity " << name_ << " has no event engine";
  int64_t span = 0;
  if (env_.tracer != nullptr) {
    span = env_.tracer->BeginSpan("activity", "start", name_);
  }
  state_ = State::kRunning;
  const Status status = OnStart();
  if (!status.ok()) state_ = State::kStopped;
  if (env_.tracer != nullptr) {
    env_.tracer->EndSpan(span, status.ok() ? "ok" : status.message());
    if (status.ok()) {
      run_span_id_ = env_.tracer->BeginSpan("activity", "run", name_);
    }
  }
  return status;
}

Status MediaActivity::Stop() {
  if (state_ != State::kRunning) return Status::OK();
  state_ = State::kStopped;
  ++generation_;
  CancelOwnedTimers();
  int64_t span = 0;
  if (env_.tracer != nullptr) {
    env_.tracer->EndSpan(run_span_id_);
    run_span_id_ = 0;
    span = env_.tracer->BeginSpan("activity", "stop", name_);
  }
  const Status status = OnStop();
  if (env_.tracer != nullptr) {
    env_.tracer->EndSpan(span, status.ok() ? "ok" : status.message());
  }
  return status;
}

void MediaActivity::SelfStop() {
  state_ = State::kStopped;
  CancelOwnedTimers();
  if (env_.tracer != nullptr) {
    env_.tracer->EndSpan(run_span_id_, "eos");
    run_span_id_ = 0;
    const int64_t span =
        env_.tracer->BeginSpan("activity", "stop", name_, "eos");
    env_.tracer->EndSpan(span);
  }
}

void MediaActivity::OnElement(Port* in, const StreamElement& /*element*/) {
  AVDB_LOG(Warning) << "activity " << name_ << " ignoring element on "
                    << in->name();
}

Port* MediaActivity::DeclarePort(const std::string& name,
                                 PortDirection direction,
                                 MediaDataType type) {
  ports_.push_back(
      std::make_unique<Port>(this, name, direction, std::move(type)));
  return ports_.back().get();
}

void MediaActivity::Raise(const std::string& kind, int64_t element_index) {
  Raise(kind, element_index, std::string());
}

void MediaActivity::Raise(const std::string& kind, int64_t element_index,
                          std::string detail) {
  ActivityEvent event;
  event.kind = kind;
  event.element_index = element_index;
  event.time_ns = env_.engine != nullptr ? env_.engine->now_ns() : 0;
  event.detail = std::move(detail);
  ++events_raised_;
  // Per-element kinds (EACH_FRAME, ...) would swamp the trace ring; only
  // milestone events land in the timeline.
  if (env_.tracer != nullptr && kind.rfind("EACH_", 0) != 0) {
    env_.tracer->Event("activity", "raise", name_,
                       event.detail.empty() ? kind
                                            : kind + ": " + event.detail);
  }
  auto [begin, end] = handlers_.equal_range(kind);
  for (auto it = begin; it != end; ++it) it->second(event);
}

void MediaActivity::Emit(Port* out, StreamElement element) {
  AVDB_DCHECK(out->owner() == this) << "emitting on foreign port";
  AVDB_DCHECK(out->direction() == PortDirection::kOut)
      << "emitting on input port " << out->FullName();
  Connection* connection = out->connection();
  if (connection == nullptr) return;
  connection->CountElement(element.size_bytes);
  int64_t delivery_ns = engine()->now_ns();
  if (connection->channel() != nullptr) {
    delivery_ns =
        connection->channel()->Transfer(delivery_ns, element.size_bytes);
  }
  if (env_.jitter != nullptr) {
    delivery_ns += env_.jitter->Sample();
  }
  if (env_.tracer != nullptr && env_.tracer->capture_deliveries()) {
    env_.tracer->EventAt(delivery_ns, "activity", "deliver", out->FullName(),
                         std::to_string(element.size_bytes) + " B");
  }
  MediaActivity* receiver = connection->to()->owner();
  Port* in = connection->to();
  const int64_t receiver_generation = receiver->generation_;
  // The delivery belongs to the *receiver*: if it stops, in-flight elements
  // are cancelled outright (they would have been dropped by the generation
  // guard anyway — the guard stays as defense against foreign schedulers).
  const TimerHandle h = engine()->ScheduleAt(
      delivery_ns, [receiver, in, element = std::move(element),
                    receiver_generation] {
        if (receiver->state() == State::kRunning &&
            receiver->generation_ == receiver_generation) {
          receiver->OnElement(in, element);
        }
      });
  receiver->RecordOwnedTimer(h);
}

void MediaActivity::EmitAt(int64_t t_ns, Port* out, StreamElement element) {
  ScheduleOwned(t_ns, [this, out, element = std::move(element)] {
    if (state_ != State::kRunning) return;
    Emit(out, element);
  });
}

TimerHandle MediaActivity::ScheduleOwned(int64_t t_ns,
                                         EventEngine::Callback cb) {
  const TimerHandle h = engine()->ScheduleAt(t_ns, std::move(cb));
  RecordOwnedTimer(h);
  return h;
}

void MediaActivity::RecordOwnedTimer(TimerHandle h) {
  if (owned_timers_.size() >= 8) {
    EventEngine* e = engine();
    owned_timers_.erase(
        std::remove_if(owned_timers_.begin(), owned_timers_.end(),
                       [e](TimerHandle t) { return !e->IsPending(t); }),
        owned_timers_.end());
  }
  owned_timers_.push_back(h);
}

void MediaActivity::CancelOwnedTimers() {
  if (env_.engine == nullptr) return;
  for (TimerHandle h : owned_timers_) env_.engine->Cancel(h);
  owned_timers_.clear();
}

std::string MediaActivity::Describe() const {
  std::string out = name_;
  out += " [";
  out += ActivityKindName(Kind());
  out += " @ ";
  out += ActivityLocationName(location_);
  out += "]";
  for (const auto& p : ports_) {
    out += " ";
    out += std::string(PortDirectionName(p->direction()));
    out += ":";
    out += p->name();
    out += "(";
    out += p->data_type().ToString();
    out += ")";
  }
  return out;
}

}  // namespace avdb
