#ifndef AVDB_NET_CHANNEL_H_
#define AVDB_NET_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "base/deadline.h"
#include "base/fault_injector.h"
#include "base/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/service_queue.h"

namespace avdb {

/// A simulated network channel between the database site and a client —
/// stand-in for the paper's broadband ISDN / ATM links (DESIGN.md §5).
/// Bandwidth is reservable (§4.3: "this statement would fail if
/// insufficient network bandwidth were available") and transfers serialize
/// on the link, so an unreserved second stream visibly degrades both.
class Channel {
 public:
  struct Profile {
    std::string model;
    int64_t bandwidth_bytes_per_sec = 0;
    int64_t propagation_delay_ns = 0;

    /// 10 Mb/s shared LAN (≈1.25 MB/s), campus latency.
    static Profile Ethernet10();
    /// 155 Mb/s ATM / B-ISDN class link.
    static Profile Atm155();
    /// 1.5 Mb/s T1 tail circuit.
    static Profile T1();
  };

  Channel(std::string name, Profile profile);

  const std::string& name() const { return name_; }
  const Profile& profile() const { return profile_; }

  /// Reserves `bytes_per_sec` of the link for a stream; ResourceExhausted
  /// when the remaining unreserved bandwidth is insufficient.
  Result<int64_t> ReserveBandwidth(int64_t bytes_per_sec);
  /// Releases a prior reservation amount. Releasing more than is currently
  /// reserved clamps the total at zero and logs the over-release — a caller
  /// bug the accounting must survive, not propagate.
  void ReleaseBandwidth(int64_t bytes_per_sec);
  int64_t ReservedBandwidth() const { return reserved_bytes_per_sec_; }
  /// Unreserved line rate, never negative: when a fault shrinks the line
  /// rate below what is already reserved, availability is zero (not a
  /// negative number that could admit a new stream via a signed compare)
  /// and the shortfall shows up in OversubscribedBandwidth().
  int64_t AvailableBandwidth() const {
    const int64_t avail = line_rate_bytes_per_sec_ - reserved_bytes_per_sec_;
    return avail > 0 ? avail : 0;
  }
  /// Reserved bandwidth in excess of the current line rate (zero in normal
  /// operation; positive after a mid-stream rate collapse until callers
  /// re-admit at reduced demand).
  int64_t OversubscribedBandwidth() const {
    const int64_t over = reserved_bytes_per_sec_ - line_rate_bytes_per_sec_;
    return over > 0 ? over : 0;
  }

  /// Current effective line rate; equals profile().bandwidth_bytes_per_sec
  /// until a revocation fault shrinks it.
  int64_t LineRate() const { return line_rate_bytes_per_sec_; }
  /// Changes the effective line rate mid-simulation (models a revoked or
  /// degraded reservation: link failover, competing traffic class). Returns
  /// the number of reserved bytes/sec now in excess of the new rate so the
  /// caller can revoke/readmit streams. Existing reservations stay counted;
  /// only future transfers serialize at the new rate. A rate <= 0 (total
  /// collapse — the link went dark) is clamped to 1 B/s: serialization
  /// math stays finite, every in-flight reservation reads as
  /// oversubscription, and transfers effectively stall until the rate is
  /// restored.
  int64_t SetLineRate(int64_t bytes_per_sec);

  /// Models sending `bytes` at `request_ns`: serializes on the link at full
  /// line rate, then adds propagation delay. Returns delivery time.
  int64_t Transfer(int64_t request_ns, int64_t bytes);

  /// Transfer under a propagated per-request deadline. A spent budget fails
  /// fast with DeadlineExceeded; a transfer whose predicted delivery (queue
  /// wait + serialization + propagation) cannot fit the remaining budget is
  /// cancelled *before* occupying the link — doomed bytes never serialize,
  /// so they cost other streams nothing. Note the fault injector is still
  /// consulted for a cancelled-after-prediction transfer (the decision to
  /// abandon is made with the collapse in view), so fault traces remain a
  /// pure function of the attempt sequence.
  Result<int64_t> TransferWithDeadline(int64_t request_ns, int64_t bytes,
                                       DeadlineBudget budget);

  /// Seconds per byte at line rate (for cost estimation).
  int64_t SerializationNs(int64_t bytes) const;

  /// Attaches a fault injector consulted on every Transfer (non-owning;
  /// nullptr detaches). An injected bandwidth collapse multiplies that
  /// transfer's serialization time. With no injector the transfer path is
  /// exactly the fault-free one.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }

  struct Stats {
    int64_t transfers = 0;
    int64_t bytes = 0;
    int64_t over_releases = 0;       ///< ReleaseBandwidth clamps at zero
    int64_t collapsed_transfers = 0; ///< transfers slowed by injected faults
    int64_t deadline_cancelled = 0;  ///< transfers refused: budget unfittable
    int64_t rate_clamps = 0;         ///< SetLineRate(<= 0) clamped to 1 B/s
  };
  const Stats& stats() const { return stats_; }
  const ServiceQueue& queue() const { return link_; }

  /// Exports the transfer/over-release stats as `avdb_net_*` counters
  /// (obs::CounterBinding) and traces line-rate revocations, fault-collapsed
  /// transfers, and over-releases (actor = channel name). nullptr detaches.
  void BindObservability(obs::MetricsRegistry* registry, obs::Tracer* tracer);

 private:
  std::string name_;
  Profile profile_;
  int64_t line_rate_bytes_per_sec_ = 0;
  int64_t reserved_bytes_per_sec_ = 0;
  ServiceQueue link_;
  FaultInjector* fault_injector_ = nullptr;
  Stats stats_;
  obs::CounterBinding counters_;
  obs::Tracer* tracer_ = nullptr;
};

using ChannelPtr = std::shared_ptr<Channel>;

}  // namespace avdb

#endif  // AVDB_NET_CHANNEL_H_
