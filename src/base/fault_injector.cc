#include "base/fault_injector.h"

namespace avdb {

FaultSpec FaultSpec::TransientReads(double p) {
  FaultSpec spec;
  spec.read_error_rate = p;
  spec.latency_spike_rate = p / 2;
  spec.latency_spike_ns = 30 * 1000 * 1000;  // 30 ms bus hiccup
  return spec;
}

FaultSpec FaultSpec::PowerCut(int64_t nth_write) {
  FaultSpec spec;
  spec.power_cut_at_write = nth_write;
  return spec;
}

FaultSpec FaultSpec::NodeCrash(int64_t nth_op) {
  FaultSpec spec;
  spec.node_crash_at_op = nth_op;
  return spec;
}

bool FaultSpec::Enabled() const {
  return read_error_rate > 0 || latency_spike_rate > 0 ||
         stuck_head_rate > 0 || bandwidth_collapse_rate > 0 ||
         WritesEnabled() || NodeFaultsEnabled();
}

bool FaultSpec::WritesEnabled() const {
  return torn_write_rate > 0 || dropped_write_rate > 0 ||
         write_bit_flip_rate > 0 || power_cut_at_write > 0;
}

bool FaultSpec::NodeFaultsEnabled() const {
  return node_crash_at_op > 0 || node_partition_rate > 0 ||
         node_slow_rate > 0 || repair_crash_rate > 0;
}

FaultDecision FaultInjector::OnDeviceRead() {
  if (powered_off_) {
    FaultDecision decision;
    decision.fail = true;
    decision.kind = "power-off";
    ++stats_.decisions;
    ++stats_.read_errors;
    return decision;
  }
  // A fixed draw order per decision keeps the trace a pure function of the
  // call sequence; a zero rate draws nothing.
  const bool read_error = rng_.NextBool(spec_.read_error_rate);
  const bool spike = rng_.NextBool(spec_.latency_spike_rate);
  const bool stuck = rng_.NextBool(spec_.stuck_head_rate);

  FaultDecision decision;
  ++stats_.decisions;
  if (read_error) {
    decision.fail = true;
    decision.kind = "read-error";
    ++stats_.read_errors;
    return decision;
  }
  if (stuck) {
    decision.extra_latency_ns += spec_.stuck_head_stall_ns;
    decision.kind = "stuck-head";
    ++stats_.stuck_heads;
  }
  if (spike) {
    decision.extra_latency_ns += spec_.latency_spike_ns;
    if (decision.kind[0] == '\0') decision.kind = "spike";
    ++stats_.latency_spikes;
  }
  stats_.extra_latency_ns += decision.extra_latency_ns;
  return decision;
}

WriteFaultDecision FaultInjector::OnDeviceWrite(int64_t length) {
  WriteFaultDecision decision;
  if (!spec_.WritesEnabled()) return decision;
  if (powered_off_) {
    decision.fail = true;
    decision.persist_bytes = 0;
    decision.kind = "power-off";
    ++stats_.write_decisions;
    return decision;
  }
  ++stats_.write_decisions;
  ++writes_seen_;
  // Fixed draw order: one variate per non-zero rate, then the fraction and
  // the position, so the trace stays a pure function of (seed, spec, call
  // sequence).
  const bool torn = rng_.NextBool(spec_.torn_write_rate);
  const bool dropped = rng_.NextBool(spec_.dropped_write_rate);
  const bool flip = rng_.NextBool(spec_.write_bit_flip_rate);
  const double fraction = rng_.NextDouble();
  const uint64_t position = rng_.NextU64();

  if (spec_.power_cut_at_write > 0 &&
      writes_seen_ >= spec_.power_cut_at_write) {
    // The in-flight write persists a strict prefix (possibly empty), then
    // the lights go out.
    decision.fail = true;
    decision.power_cut = true;
    decision.persist_bytes =
        length <= 0 ? 0 : static_cast<int64_t>(fraction * length);
    if (decision.persist_bytes >= length) decision.persist_bytes = length - 1;
    decision.kind = "power-cut";
    powered_off_ = true;
    ++stats_.power_cuts;
    return decision;
  }
  if (torn) {
    decision.fail = true;
    decision.persist_bytes =
        length <= 0 ? 0 : static_cast<int64_t>(fraction * length);
    if (decision.persist_bytes >= length) decision.persist_bytes = length - 1;
    decision.kind = "torn-write";
    ++stats_.torn_writes;
    return decision;
  }
  if (dropped) {
    decision.persist_bytes = 0;  // reports success; nothing reaches media
    decision.kind = "dropped-write";
    ++stats_.dropped_writes;
    return decision;
  }
  if (flip) {
    decision.bit_flip = true;
    decision.flip_offset = position;
    decision.flip_mask = static_cast<uint8_t>(1u << (position % 8));
    decision.kind = "bit-flip";
    ++stats_.write_bit_flips;
  }
  return decision;
}

NodeFaultDecision FaultInjector::OnNodeOp() {
  NodeFaultDecision decision;
  if (!spec_.NodeFaultsEnabled()) return decision;
  if (node_down_) {
    decision.fail = true;
    decision.kind = "node-down";
    ++stats_.node_ops;
    return decision;
  }
  ++stats_.node_ops;
  ++node_ops_seen_;
  // Fixed draw order, always two variates, so the node-fault trace is a
  // pure function of (seed, spec, call sequence) like every other class.
  const bool partition = rng_.NextBool(spec_.node_partition_rate);
  const bool slow = rng_.NextBool(spec_.node_slow_rate);

  if (spec_.node_crash_at_op > 0 && node_ops_seen_ >= spec_.node_crash_at_op &&
      stats_.node_crashes == 0) {
    decision.fail = true;
    decision.kind = "node-crash";
    node_down_ = true;
    ++stats_.node_crashes;
    return decision;
  }
  if (partition_ops_left_ > 0 || (partition && spec_.node_partition_ops > 0)) {
    if (partition_ops_left_ <= 0) partition_ops_left_ = spec_.node_partition_ops;
    --partition_ops_left_;
    decision.fail = true;
    decision.unresponsive = true;
    decision.kind = "node-partition";
    ++stats_.node_partition_ops;
    return decision;
  }
  if (slow && spec_.node_slow_factor > 1.0) {
    decision.slow_factor = spec_.node_slow_factor;
    decision.kind = "node-slow";
    ++stats_.node_slow_ops;
  }
  return decision;
}

NodeFaultDecision FaultInjector::OnRepairOp() {
  NodeFaultDecision decision;
  if (node_down_) {
    decision.fail = true;
    decision.kind = "node-down";
    ++stats_.repair_ops;
    return decision;
  }
  if (spec_.repair_crash_rate <= 0) return decision;  // draws nothing
  ++stats_.repair_ops;
  const bool crash = rng_.NextBool(spec_.repair_crash_rate);
  if (crash) {
    decision.fail = true;
    decision.kind = "repair-crash";
    node_down_ = true;
    ++stats_.repair_crashes;
  }
  return decision;
}

double FaultInjector::OnTransfer() {
  ++stats_.transfers;
  const bool collapse = rng_.NextBool(spec_.bandwidth_collapse_rate);
  if (!collapse || spec_.bandwidth_collapse_factor >= 1.0 ||
      spec_.bandwidth_collapse_factor <= 0.0) {
    return 1.0;
  }
  ++stats_.collapses;
  return 1.0 / spec_.bandwidth_collapse_factor;
}

}  // namespace avdb
