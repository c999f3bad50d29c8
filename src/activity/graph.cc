#include "activity/graph.h"

#include <algorithm>
#include <sstream>

#include "base/logging.h"

namespace avdb {

Connection::Connection(Port* from, Port* to, ChannelPtr channel,
                       obs::MetricsRegistry* metrics)
    : from_(from), to_(to), channel_(std::move(channel)) {
  counters_.Bind(metrics, {{"avdb_activity_elements_emitted_total",
                            "stream elements sent through Emit",
                            &stats_.elements},
                           {"avdb_activity_emit_bytes_total",
                            "payload bytes sent through Emit", &stats_.bytes}});
}

std::string Connection::Describe() const {
  std::string out = from_->FullName() + " -> " + to_->FullName();
  if (channel_ != nullptr) {
    out += " via " + channel_->name();
  }
  return out;
}

Status ActivityGraph::Add(MediaActivityPtr activity) {
  if (activity == nullptr) return Status::InvalidArgument("null activity");
  const auto [it, inserted] =
      by_name_.emplace(activity->name(), activity.get());
  if (!inserted) {
    return Status::AlreadyExists("activity exists: " + activity->name());
  }
  activities_.push_back(std::move(activity));
  return Status::OK();
}

Result<MediaActivity*> ActivityGraph::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return Status::NotFound("activity: " + name);
  return it->second;
}

Result<Connection*> ActivityGraph::Connect(MediaActivity* from,
                                           const std::string& out_port,
                                           MediaActivity* to,
                                           const std::string& in_port,
                                           ChannelPtr channel) {
  auto out = from->FindPort(out_port);
  if (!out.ok()) return out.status();
  auto in = to->FindPort(in_port);
  if (!in.ok()) return in.status();
  if (out.value()->direction() != PortDirection::kOut) {
    return Status::InvalidArgument(out.value()->FullName() +
                                   " is not an output port");
  }
  if (in.value()->direction() != PortDirection::kIn) {
    return Status::InvalidArgument(in.value()->FullName() +
                                   " is not an input port");
  }
  if (out.value()->data_type() != in.value()->data_type()) {
    return Status::InvalidArgument(
        "port type mismatch: " + out.value()->FullName() + " carries " +
        out.value()->data_type().ToString() + " but " +
        in.value()->FullName() + " expects " +
        in.value()->data_type().ToString());
  }
  if (out.value()->IsConnected()) {
    return Status::FailedPrecondition(out.value()->FullName() +
                                      " already connected");
  }
  if (in.value()->IsConnected()) {
    return Status::FailedPrecondition(in.value()->FullName() +
                                      " already connected");
  }
  connections_.push_back(std::make_unique<Connection>(
      out.value(), in.value(), std::move(channel), from->env_.metrics));
  Connection* c = connections_.back().get();
  out.value()->set_connection(c);
  in.value()->set_connection(c);
  return c;
}

Status ActivityGraph::Disconnect(Connection* connection) {
  if (connection == nullptr) {
    return Status::NotFound("connection not in this graph");
  }
  auto it = std::find_if(
      connections_.begin(), connections_.end(),
      [connection](const auto& c) { return c.get() == connection; });
  if (it == connections_.end()) {
    return Status::NotFound("connection not in this graph");
  }
  connection->from()->set_connection(nullptr);
  connection->to()->set_connection(nullptr);
  connections_.erase(it);
  return Status::OK();
}

Status ActivityGraph::Validate() const {
  for (const auto& a : activities_) {
    for (Port* in : a->InputPorts()) {
      if (!in->IsConnected()) {
        return Status::FailedPrecondition("dangling input port: " +
                                          in->FullName());
      }
    }
  }
  return Status::OK();
}

Status ActivityGraph::StartAll() {
  // Non-sources first so every consumer is running before producers emit.
  std::vector<MediaActivity*> order;
  for (const auto& a : activities_) {
    if (a->Kind() != ActivityKind::kSource) order.push_back(a.get());
  }
  for (const auto& a : activities_) {
    if (a->Kind() == ActivityKind::kSource) order.push_back(a.get());
  }
  for (MediaActivity* a : order) {
    const Status status = a->Start();
    if (!status.ok()) {
      // The start error is the primary failure; a rollback failure on top
      // of it must not vanish silently.
      const Status rollback = StopAll();
      if (!rollback.ok()) {
        AVDB_LOG(Warning) << "StartAll rollback failed: " << rollback;
      }
      return status;
    }
  }
  return Status::OK();
}

Status ActivityGraph::StopAll() {
  Status first_error;
  for (const auto& a : activities_) {
    const Status status = a->Stop();
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

std::string ActivityGraph::Describe() const {
  std::ostringstream os;
  os << "activity graph (" << activities_.size() << " activities, "
     << connections_.size() << " connections)\n";
  for (const auto& a : activities_) {
    os << "  " << a->Describe() << "\n";
  }
  for (const auto& c : connections_) {
    os << "  " << c->Describe() << "\n";
  }
  return os.str();
}

}  // namespace avdb
