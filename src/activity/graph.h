#ifndef AVDB_ACTIVITY_GRAPH_H_
#define AVDB_ACTIVITY_GRAPH_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "activity/media_activity.h"
#include "net/channel.h"

namespace avdb {

/// A directed edge between an "out" port and an "in" port. When the two
/// activities live on different sides of the database/application boundary
/// the connection carries a network channel and every element pays modeled
/// transfer time; local connections deliver after only jitter.
///
/// Its stats are the only count of what the emitting activity sends:
/// bound to `metrics`, they export as `avdb_activity_elements_emitted_total`
/// and `avdb_activity_emit_bytes_total`.
class Connection {
 public:
  Connection(Port* from, Port* to, ChannelPtr channel,
             obs::MetricsRegistry* metrics);

  Port* from() const { return from_; }
  Port* to() const { return to_; }
  const ChannelPtr& channel() const { return channel_; }

  struct Stats {
    int64_t elements = 0;
    int64_t bytes = 0;
  };
  const Stats& stats() const { return stats_; }
  void CountElement(int64_t bytes) {
    ++stats_.elements;
    stats_.bytes += bytes;
  }

  std::string Describe() const;

 private:
  Port* from_;
  Port* to_;
  ChannelPtr channel_;
  Stats stats_;
  obs::CounterBinding counters_;
};

/// Flow composition (§4.2): "activities are connected via their in and out
/// ports; an in port can be connected to an out port provided they are of
/// the same data type. A group of activities connected in this fashion is
/// called an activity graph."
///
/// The graph owns its activities and connections, enforces the
/// type-compatibility rule at Connect time, and starts/stops the group
/// (sinks and transformers before sources, so no element arrives at an
/// idle activity).
class ActivityGraph {
 public:
  explicit ActivityGraph(ActivityEnv env) : env_(env) {}

  const ActivityEnv& env() const { return env_; }

  /// Adds an activity to the graph (AlreadyExists on duplicate name).
  Status Add(MediaActivityPtr activity);

  Result<MediaActivity*> Find(const std::string& name) const;

  /// Connects `from.out_port` to `to.in_port` over an optional network
  /// channel. Fails unless directions are out->in, data types are equal
  /// (§4.2 rule 1), and neither port is already connected.
  Result<Connection*> Connect(MediaActivity* from,
                              const std::string& out_port, MediaActivity* to,
                              const std::string& in_port,
                              ChannelPtr channel = nullptr);

  /// Removes an existing connection (used by reconfiguration).
  Status Disconnect(Connection* connection);

  /// Structural checks beyond per-connect validation: every input port of
  /// every activity is connected (sources of dangling inputs are the
  /// classic silent-failure in dataflow wiring).
  Status Validate() const;

  /// Starts every activity, non-sources first. Stops already-started
  /// activities again if any start fails.
  Status StartAll();

  /// Stops every activity (idempotent).
  Status StopAll();

  /// Runs the shared engine until no events remain or until virtual time
  /// `deadline` (whichever first). Returns events executed.
  int64_t RunUntilIdle() { return env_.engine->RunUntilIdle(); }
  int64_t RunUntil(WorldTime deadline) { return env_.engine->RunUntil(deadline); }

  const std::vector<MediaActivityPtr>& activities() const {
    return activities_;
  }
  const std::vector<std::unique_ptr<Connection>>& connections() const {
    return connections_;
  }

  /// ASCII topology in the style of the paper's Fig. 2 / Fig. 4 diagrams.
  std::string Describe() const;

 private:
  ActivityEnv env_;
  std::vector<MediaActivityPtr> activities_;
  /// Name index so Add/Find stay O(1) at session scale — a linear duplicate
  /// scan made building a 10⁵-session graph quadratic.
  std::unordered_map<std::string, MediaActivity*> by_name_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace avdb

#endif  // AVDB_ACTIVITY_GRAPH_H_
