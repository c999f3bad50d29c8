#ifndef AVDB_ACTIVITY_COMPOSITE_H_
#define AVDB_ACTIVITY_COMPOSITE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "activity/graph.h"
#include "activity/media_activity.h"
#include "sched/sync_controller.h"

namespace avdb {

/// §4.2 flow-composition rule 2: "composite activities can be formed which
/// contain component activities. It is possible to connect an out port of a
/// component to the out of the composite in which it is contained."
///
/// A CompositeActivity owns an internal activity graph of installed
/// children, exposes selected child ports under its own names, and
/// cascades Start/Stop to the children — so "an application working with a
/// source activity need not be aware of its internal configuration"
/// (Fig. 2 bottom). The two §4.2 use cases are both served: composites that
/// process composite AV values keep their tracks synchronized through an
/// owned SyncController, and frequently-used sub-graphs (read+decode) hide
/// their wiring.
class CompositeActivity : public MediaActivity {
 public:
  static std::shared_ptr<CompositeActivity> Create(const std::string& name,
                                                   ActivityLocation location,
                                                   ActivityEnv env);

  /// Adds a child (the paper's `install ... in` from §4.3's pseudo-code).
  Status Install(MediaActivityPtr child);

  const std::vector<MediaActivityPtr>& children() const {
    return children_.activities();
  }

  /// Exposes `child.port` as this composite's port `as_name`. The port must
  /// not be connected yet; same-type rule is inherited from the port
  /// itself. Direction must cross the boundary consistently (out stays
  /// out, in stays in).
  Status ExposePort(const std::string& child_name,
                    const std::string& child_port, const std::string& as_name);

  /// Connects two children inside the composite (same rules as a graph).
  Result<Connection*> ConnectChildren(const std::string& from_child,
                                      const std::string& out_port,
                                      const std::string& to_child,
                                      const std::string& in_port);

  /// Resolves exposed names to the underlying child ports, so external
  /// graph connections attach directly to the child (zero relay cost).
  Result<Port*> FindPort(const std::string& name) const override;

  /// Classification from the exposed boundary ports.
  ActivityKind Kind() const override;

  /// The composite's synchronization domain. Children installed through
  /// InstallSynced join it automatically.
  SyncController* sync() { return &sync_; }

  /// Installs a child and joins it to the composite's sync domain as
  /// `track` (master tracks define the reference clock; the first track
  /// becomes master if none is flagged). Exposes the child's single
  /// boundary-eligible port as "<track>_<dir>".
  Status InstallSynced(MediaActivityPtr child, const std::string& track,
                       bool master = false);

  /// Binding on an exposed port forwards to the owning child (so §4.3's
  /// `bind myNews.clip to dbSource` reaches the right component).
  Status DoBind(MediaValuePtr value, const std::string& port_name) override;

  /// Cue forwards to every child that supports it.
  Status DoCue(WorldTime t) override;

  std::string Describe() const override;

 protected:
  CompositeActivity(const std::string& name, ActivityLocation location,
                    ActivityEnv env);

  Status OnStart() override;
  Status OnStop() override;

  /// Re-points every synced child at another controller (keeping its track
  /// name) — how a MultiSource joins its MultiSink's domain.
  Status RepointSync(SyncController* sync);

 private:
  ActivityGraph children_;
  /// exposed name -> (child activity, child port name)
  std::map<std::string, std::pair<MediaActivity*, std::string>> exposed_;
  /// Synced children with their track names, in install order. Install
  /// order (not pointer order) so RepointSync re-points tracks in the
  /// same sequence on every run — iteration order here reaches
  /// SyncController configuration, which must be deterministic.
  std::vector<std::pair<MediaActivity*, std::string>> track_of_;
  SyncController sync_;
};

/// §4.3's `MultiSource`: a composite of source activities whose streams
/// belong to one temporal composite. InstallSynced registers each child
/// source as a track; lagging tracks skip to stay correlated.
class MultiSource final : public CompositeActivity {
 public:
  static std::shared_ptr<MultiSource> Create(const std::string& name,
                                             ActivityLocation location,
                                             ActivityEnv env);

  /// Attaches this source composite to its sink composite's sync domain:
  /// sinks observe presentation, these sources perform the skips. Call
  /// before starting.
  Status UseSyncDomain(SyncController* sync);

 private:
  MultiSource(const std::string& name, ActivityLocation location,
              ActivityEnv env)
      : CompositeActivity(name, location, env) {}
};

/// §4.3's `MultiSink`: a composite of sink activities presenting one
/// temporal composite. Owns the sync domain (presentation is where skew is
/// observable).
class MultiSink final : public CompositeActivity {
 public:
  static std::shared_ptr<MultiSink> Create(const std::string& name,
                                           ActivityLocation location,
                                           ActivityEnv env);

 private:
  MultiSink(const std::string& name, ActivityLocation location,
            ActivityEnv env)
      : CompositeActivity(name, location, env) {}
};

}  // namespace avdb

#endif  // AVDB_ACTIVITY_COMPOSITE_H_
