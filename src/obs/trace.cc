#include "obs/trace.h"

#include <utility>

#include "obs/metrics.h"

namespace avdb {
namespace obs {

Tracer::Tracer(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {
  MutexLock lock(mu_);
  ring_.reserve(capacity_);
}

void Tracer::SetClock(std::function<int64_t()> now_fn) {
  MutexLock lock(mu_);
  now_fn_ = std::move(now_fn);
}

void Tracer::set_capture_deliveries(bool on) {
  MutexLock lock(mu_);
  capture_deliveries_ = on;
}

bool Tracer::capture_deliveries() const {
  MutexLock lock(mu_);
  return capture_deliveries_;
}

int64_t Tracer::Now() const {
  std::function<int64_t()> now_fn;
  {
    MutexLock lock(mu_);
    now_fn = now_fn_;
  }
  return now_fn ? now_fn() : 0;
}

void Tracer::Append(TraceEvent event, int64_t t_ns) {
  event.seq = next_seq_++;
  event.t_ns = t_ns;
  ++stats_.recorded;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  ++stats_.dropped;
}

int64_t Tracer::BeginSpan(const std::string& category, const std::string& name,
                          const std::string& actor,
                          const std::string& detail) {
  return BeginSpanAt(Now(), category, name, actor, detail);
}

int64_t Tracer::BeginSpanAt(int64_t t_ns, const std::string& category,
                            const std::string& name, const std::string& actor,
                            const std::string& detail) {
  MutexLock lock(mu_);
  const int64_t id = next_span_id_++;
  open_spans_[id] = {category, name, actor};
  TraceEvent e;
  e.phase = 'B';
  e.span_id = id;
  e.category = category;
  e.name = name;
  e.actor = actor;
  e.detail = detail;
  Append(std::move(e), t_ns);
  return id;
}

void Tracer::EndSpan(int64_t span_id, const std::string& detail) {
  EndSpanAt(span_id, Now(), detail);
}

void Tracer::EndSpanAt(int64_t span_id, int64_t t_ns,
                       const std::string& detail) {
  MutexLock lock(mu_);
  auto it = open_spans_.find(span_id);
  if (it == open_spans_.end()) return;
  TraceEvent e;
  e.phase = 'E';
  e.span_id = span_id;
  e.category = it->second[0];
  e.name = it->second[1];
  e.actor = it->second[2];
  e.detail = detail;
  open_spans_.erase(it);
  Append(std::move(e), t_ns);
}

void Tracer::Event(const std::string& category, const std::string& name,
                   const std::string& actor, const std::string& detail) {
  EventAt(Now(), category, name, actor, detail);
}

void Tracer::EventAt(int64_t t_ns, const std::string& category,
                     const std::string& name, const std::string& actor,
                     const std::string& detail) {
  MutexLock lock(mu_);
  TraceEvent e;
  e.category = category;
  e.name = name;
  e.actor = actor;
  e.detail = detail;
  Append(std::move(e), t_ns);
}

Tracer::Stats Tracer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::vector<TraceEvent> Tracer::Events() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
    return out;
  }
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

std::string Tracer::DumpJson() const {
  const std::vector<TraceEvent> events = Events();
  const Stats stats = this->stats();
  std::string out = "{\"capacity\":" + std::to_string(capacity_) +
                    ",\"recorded\":" + std::to_string(stats.recorded) +
                    ",\"dropped\":" + std::to_string(stats.dropped) +
                    ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ",";
    out += "{\"seq\":" + std::to_string(e.seq) +
           ",\"t_ns\":" + std::to_string(e.t_ns) + ",\"ph\":\"" + e.phase +
           "\"";
    if (e.span_id != 0) out += ",\"id\":" + std::to_string(e.span_id);
    out += ",\"cat\":\"" + JsonEscape(e.category) + "\",\"name\":\"" +
           JsonEscape(e.name) + "\",\"actor\":\"" + JsonEscape(e.actor) +
           "\"";
    if (!e.detail.empty()) {
      out += ",\"detail\":\"" + JsonEscape(e.detail) + "\"";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace avdb
