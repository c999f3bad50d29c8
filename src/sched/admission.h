#ifndef AVDB_SCHED_ADMISSION_H_
#define AVDB_SCHED_ADMISSION_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace avdb {

/// Interned identity of an admission pool: a dense index assigned at
/// RegisterPool time. Hot admit/release paths carry these instead of pool
/// name strings, so a demand resolves in one array index instead of a
/// red-black-tree string walk per pool per request.
using PoolId = int32_t;
inline constexpr PoolId kInvalidPoolId = -1;

/// One resource demand inside an admission request: `amount` units from the
/// pool named `pool` (e.g. {"disk0.bandwidth", 1.2e6} bytes/s).
struct ResourceDemand {
  std::string pool;
  double amount = 0;
};

/// The interned form of a demand — what tickets store and what the
/// session-scale hot path submits directly.
struct PooledDemand {
  PoolId pool = kInvalidPoolId;
  double amount = 0;
};

/// A granted admission: releasing it returns every reserved amount. Value
/// type; movable, not copyable (a ticket is a capability).
class AdmissionTicket {
 public:
  AdmissionTicket() = default;

  bool IsActive() const { return active_; }
  /// Reserved demands, merged per pool and interned. Names resolve via
  /// AdmissionController::PoolName.
  const std::vector<PooledDemand>& demands() const { return demands_; }

 private:
  friend class AdmissionController;
  bool active_ = false;
  int64_t id_ = 0;
  std::vector<PooledDemand> demands_;
};

/// §3.3 "scheduling — should allow application involvement": resource
/// pre-allocation with all-or-nothing semantics. Pools model disk
/// bandwidth, network bandwidth, buffer memory, decoder cycles, and
/// exclusive devices (capacity 1). A stream is only started after its whole
/// demand vector is admitted; requests that would oversubscribe any pool
/// fail with ResourceExhausted *before* any resource is tied up — the
/// failure mode the paper's §4.3 pseudo-code attributes to statements 1-3.
///
/// Pools live in fixed-size shards (stable addresses, O(1) id lookup); the
/// name→id map is consulted only at registration and at the string-keyed
/// convenience entry points, never per admit/release on the id path.
class AdmissionController {
 public:
  AdmissionController() = default;

  /// Defines a pool with the given capacity (AlreadyExists on collision).
  Status RegisterPool(const std::string& name, double capacity);

  /// Interned id of a registered pool; kInvalidPoolId when absent. Cache
  /// this once per session/stream and admit through the id overloads.
  PoolId FindPool(const std::string& name) const;
  /// Name of a registered pool id ("?" for invalid ids).
  const std::string& PoolName(PoolId id) const;
  size_t PoolCount() const { return static_cast<size_t>(pool_count_); }

  Result<double> Capacity(const std::string& name) const;
  /// Unreserved capacity, clamped at zero: a mid-stream capacity revocation
  /// can leave a pool oversubscribed, and availability must then read as
  /// "nothing", not a negative number. The shortfall is reported by
  /// Oversubscription().
  Result<double> Available(const std::string& name) const;
  /// Reserved amount in excess of the pool's (possibly revoked) capacity;
  /// zero in normal operation.
  Result<double> Oversubscription(const std::string& name) const;

  /// Changes a pool's capacity mid-simulation — the revocation hook (a
  /// fault shrank a link, a device went degraded). Existing tickets keep
  /// their reservations; the pool may come out oversubscribed, which the
  /// return value reports so the caller can readmit streams at reduced
  /// demand.
  Result<double> SetPoolCapacity(const std::string& name, double capacity);

  /// Atomically reserves every demand (all-or-nothing). On any shortfall
  /// nothing is reserved and the status names the limiting pool. The
  /// string-keyed form interns each demand first; per-session hot paths
  /// should pre-intern and call the PooledDemand overload.
  Result<AdmissionTicket> Admit(const std::vector<ResourceDemand>& demands);
  Result<AdmissionTicket> Admit(const std::vector<PooledDemand>& demands);

  /// Returns a ticket's reservations to their pools; idempotent.
  void Release(AdmissionTicket* ticket);

  /// Atomically trades `old_ticket` for a new admission of `demands` — the
  /// reduced-demand re-admission path after a revocation. The old ticket is
  /// released first (its reservation is already invalid once capacity was
  /// revoked); if the new demands still don't fit, the error returns with
  /// the old ticket *released* and the caller must stop the stream.
  Result<AdmissionTicket> Readmit(AdmissionTicket* old_ticket,
                                  const std::vector<ResourceDemand>& demands);

  struct Stats {
    int64_t admitted = 0;
    int64_t rejected = 0;
    int64_t readmitted = 0;   ///< successful reduced-demand re-admissions
    int64_t revocations = 0;  ///< SetPoolCapacity calls that shrank a pool
    /// Releases that would have driven a pool's `used` below zero — a
    /// double-release accounting bug somewhere upstream. The clamp still
    /// protects the pool, but silently clamping *masked* the bug; this
    /// stays 0 in a correct system (mirrors Channel's over-release stat).
    int64_t over_releases = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Exports the stats as `avdb_sched_admission_*` counters
  /// (obs::CounterBinding) and traces every decision (the §4.3
  /// "this statement would fail" moments are exactly what a timeline must
  /// show).
  void BindObservability(obs::MetricsRegistry* registry, obs::Tracer* tracer);

 private:
  struct Pool {
    std::string name;
    double capacity = 0;
    double used = 0;
  };
  static constexpr int32_t kShardSize = 64;
  struct PoolShard {
    std::array<Pool, kShardSize> pools;
  };

  Pool& PoolAt(PoolId id) {
    return shards_[static_cast<size_t>(id) / kShardSize]
        ->pools[static_cast<size_t>(id) % kShardSize];
  }
  const Pool& PoolAt(PoolId id) const {
    return shards_[static_cast<size_t>(id) / kShardSize]
        ->pools[static_cast<size_t>(id) % kShardSize];
  }
  bool ValidId(PoolId id) const { return id >= 0 && id < pool_count_; }

  std::vector<std::unique_ptr<PoolShard>> shards_;
  int32_t pool_count_ = 0;
  std::map<std::string, PoolId> index_;  ///< registration/intern time only
  int64_t next_ticket_id_ = 1;
  Stats stats_;
  obs::CounterBinding counters_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace avdb

#endif  // AVDB_SCHED_ADMISSION_H_
