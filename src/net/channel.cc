#include "net/channel.h"

#include "base/logging.h"

namespace avdb {

Channel::Profile Channel::Profile::Ethernet10() {
  Profile p;
  p.model = "ethernet-10mbps";
  p.bandwidth_bytes_per_sec = 10 * 1000 * 1000 / 8;
  p.propagation_delay_ns = 2 * 1000 * 1000;  // 2 ms campus RTT share
  return p;
}

Channel::Profile Channel::Profile::Atm155() {
  Profile p;
  p.model = "atm-155mbps";
  p.bandwidth_bytes_per_sec = 155LL * 1000 * 1000 / 8;
  p.propagation_delay_ns = 1 * 1000 * 1000;
  return p;
}

Channel::Profile Channel::Profile::T1() {
  Profile p;
  p.model = "t1-1.5mbps";
  p.bandwidth_bytes_per_sec = 1544 * 1000 / 8;
  p.propagation_delay_ns = 8 * 1000 * 1000;
  return p;
}

Channel::Channel(std::string name, Profile profile)
    : name_(std::move(name)),
      profile_(profile),
      line_rate_bytes_per_sec_(profile.bandwidth_bytes_per_sec),
      link_(name_ + ".link") {
  AVDB_CHECK(profile_.bandwidth_bytes_per_sec > 0)
      << "channel needs positive bandwidth";
}

Result<int64_t> Channel::ReserveBandwidth(int64_t bytes_per_sec) {
  if (bytes_per_sec <= 0) {
    return Status::InvalidArgument("reservation must be positive");
  }
  if (bytes_per_sec > AvailableBandwidth()) {
    return Status::ResourceExhausted(
        "channel " + name_ + " has " + std::to_string(AvailableBandwidth()) +
        " B/s unreserved, need " + std::to_string(bytes_per_sec));
  }
  reserved_bytes_per_sec_ += bytes_per_sec;
  return bytes_per_sec;
}

void Channel::ReleaseBandwidth(int64_t bytes_per_sec) {
  if (bytes_per_sec > reserved_bytes_per_sec_) {
    AVDB_LOG(Warning) << "channel " << name_ << ": released "
                      << bytes_per_sec << " B/s but only "
                      << reserved_bytes_per_sec_
                      << " B/s reserved; clamping at zero";
    ++stats_.over_releases;
    if (tracer_ != nullptr) {
      tracer_->Event("net", "over_release", name_,
                     std::to_string(bytes_per_sec) + " B/s over " +
                         std::to_string(reserved_bytes_per_sec_));
    }
    reserved_bytes_per_sec_ = 0;
    return;
  }
  reserved_bytes_per_sec_ -= bytes_per_sec;
}

int64_t Channel::SetLineRate(int64_t bytes_per_sec) {
  if (bytes_per_sec <= 0) {
    // Total rate collapse ("the link went dark"). Clamp to 1 B/s instead of
    // asserting: serialization stays finite, AvailableBandwidth() reads zero,
    // and every reservation shows up as oversubscription for readmission.
    AVDB_LOG(Warning) << "channel " << name_ << ": line rate "
                      << bytes_per_sec << " B/s clamped to 1 B/s";
    ++stats_.rate_clamps;
    bytes_per_sec = 1;
  }
  if (tracer_ != nullptr && bytes_per_sec != line_rate_bytes_per_sec_) {
    tracer_->Event("net", "line_rate_set", name_,
                   std::to_string(line_rate_bytes_per_sec_) + " -> " +
                       std::to_string(bytes_per_sec) + " B/s");
  }
  line_rate_bytes_per_sec_ = bytes_per_sec;
  return OversubscribedBandwidth();
}

int64_t Channel::SerializationNs(int64_t bytes) const {
  return bytes * 1000000000LL / line_rate_bytes_per_sec_;
}

int64_t Channel::Transfer(int64_t request_ns, int64_t bytes) {
  // An unlimited budget never expires and affords any delivery time.
  return TransferWithDeadline(request_ns, bytes, DeadlineBudget::Unlimited())
      .value();
}

Result<int64_t> Channel::TransferWithDeadline(int64_t request_ns,
                                              int64_t bytes,
                                              DeadlineBudget budget) {
  if (budget.expired()) {
    // Fast-fail before touching the injector or the link queue: a spent
    // budget must not perturb the fault trace or cost other streams time.
    ++stats_.deadline_cancelled;
    return Status::DeadlineExceeded("deadline budget already spent; " +
                                    std::to_string(bytes) + " B transfer on " +
                                    name_ + " not attempted");
  }
  int64_t serialization_ns = SerializationNs(bytes);
  if (fault_injector_ != nullptr) {
    const double slowdown = fault_injector_->OnTransfer();
    if (slowdown > 1.0) {
      serialization_ns = static_cast<int64_t>(
          static_cast<double>(serialization_ns) * slowdown);
      ++stats_.collapsed_transfers;
      if (tracer_ != nullptr) {
        tracer_->EventAt(request_ns, "net", "bandwidth_collapse", name_,
                         "x" + std::to_string(slowdown));
      }
    }
  }
  const int64_t predicted_done =
      link_.PeekCompletion(request_ns, serialization_ns) +
      profile_.propagation_delay_ns;
  if (budget.CannotAfford(predicted_done - request_ns)) {
    // Doomed before it serializes: cancel without occupying the link. The
    // injector draw above stands (the collapse is what doomed it), keeping
    // the fault trace a pure function of the attempt sequence.
    ++stats_.deadline_cancelled;
    if (tracer_ != nullptr) {
      tracer_->EventAt(request_ns, "net", "deadline_cancel", name_,
                       std::to_string(predicted_done - request_ns) +
                           " ns needed, " +
                           std::to_string(budget.remaining_ns()) + " ns left");
    }
    return Status::DeadlineExceeded(
        "transfer of " + std::to_string(bytes) + " B on " + name_ +
        " needs " + std::to_string(predicted_done - request_ns) +
        " ns but only " + std::to_string(budget.remaining_ns()) +
        " ns of budget remain");
  }
  const int64_t done = link_.Submit(request_ns, serialization_ns);
  ++stats_.transfers;
  stats_.bytes += bytes;
  return done + profile_.propagation_delay_ns;
}

void Channel::BindObservability(obs::MetricsRegistry* registry,
                                obs::Tracer* tracer) {
  tracer_ = tracer;
  counters_.Bind(
      registry,
      {{"avdb_net_transfers_total", "transfers submitted to the link",
        &stats_.transfers},
       {"avdb_net_transfer_bytes_total", "payload bytes sent over the link",
        &stats_.bytes},
       {"avdb_net_collapsed_transfers_total",
        "transfers slowed by an injected fault", &stats_.collapsed_transfers},
       {"avdb_net_over_releases_total", "bandwidth releases clamped at zero",
        &stats_.over_releases},
       {"avdb_net_deadline_cancelled_total",
        "transfers cancelled before serializing because "
        "the propagated deadline budget could not fit",
        &stats_.deadline_cancelled}});
}

}  // namespace avdb
