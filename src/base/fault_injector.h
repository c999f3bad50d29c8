#ifndef AVDB_BASE_FAULT_INJECTOR_H_
#define AVDB_BASE_FAULT_INJECTOR_H_

#include <cstdint>

#include "base/rng.h"

namespace avdb {

/// Configuration of a deterministic adversary for the simulated hardware:
/// each field is the per-operation probability (or magnitude) of one fault
/// class. All delays are virtual nanoseconds — faults cost simulated
/// WorldTime, never host time, so faulty runs replay exactly.
///
/// The fault classes mirror what the paper's §3.3 resource discussion takes
/// for granted can go wrong on 1993 hardware: transient SCSI/read errors,
/// latency spikes from bus contention, a stuck head that stalls the stream,
/// and a network whose effective rate collapses under cross traffic.
struct FaultSpec {
  /// P(one device read fails with Unavailable) — transient I/O error.
  double read_error_rate = 0.0;
  /// P(one device read is slowed by `latency_spike_ns`).
  double latency_spike_rate = 0.0;
  int64_t latency_spike_ns = 0;
  /// P(one device read stalls for `stuck_head_stall_ns`) — recalibration.
  double stuck_head_rate = 0.0;
  int64_t stuck_head_stall_ns = 0;
  /// P(one channel transfer runs at `bandwidth_collapse_factor` of line
  /// rate) — congestion collapse on the shared link.
  double bandwidth_collapse_rate = 0.0;
  /// Effective-rate multiplier during a collapse, in (0, 1].
  double bandwidth_collapse_factor = 1.0;

  // --- write-path faults ---------------------------------------------------
  // Where read faults threaten liveness, write faults threaten *custody*:
  // bytes the client handed over silently fail to reach the platter. Torn
  // and power-cut writes surface an error at write time; dropped and
  // bit-flipped writes report success and are only caught later by page
  // checksums (Get/ReadRange/Scrub).

  /// P(one device write persists only a strict prefix and fails with
  /// Unavailable) — an I/O error mid-transfer.
  double torn_write_rate = 0.0;
  /// P(one device write persists nothing but *reports success*) — a lost
  /// write (e.g. dead cache battery). Silent until a checksum catches it.
  double dropped_write_rate = 0.0;
  /// P(one device write persists with a single flipped bit, reporting
  /// success) — media corruption in flight. Silent until checked.
  double write_bit_flip_rate = 0.0;
  /// Deterministic power cut: the Nth consulted write (1-based) persists
  /// only a strict prefix, then the device is frozen — every later read or
  /// write fails with Unavailable until the injector is detached (the
  /// "reboot"). 0 disables.
  int64_t power_cut_at_write = 0;

  // --- node-granularity faults --------------------------------------------
  // Consulted by a cluster ServerNode once per served request, *before* the
  // node's device/channel injectors see anything — a whole machine failing,
  // layered on top of the per-device fault classes above.

  /// Deterministic node crash: the Nth consulted node operation (1-based)
  /// finds the node dead, and every later operation fails fast with
  /// Unavailable until the node is revived. 0 disables.
  int64_t node_crash_at_op = 0;
  /// P(one node operation opens a network partition lasting
  /// `node_partition_ops` consulted operations, this one included). A
  /// partitioned node is unreachable-but-alive: requests to it burn their
  /// entire deadline budget before failing, unlike a crash's fast refusal.
  double node_partition_rate = 0.0;
  int64_t node_partition_ops = 0;
  /// P(one node operation is served `node_slow_factor`x slower than its
  /// modeled duration) — a struggling node (page cache cold, CPU stolen)
  /// that still answers. Factor must be >= 1 to have any effect.
  double node_slow_rate = 0.0;
  double node_slow_factor = 1.0;
  /// P(one repair/resync apply crashes the node mid-apply) — consulted only
  /// by the repair write path (ApplyRepair), once before the old entry is
  /// dropped and once before the replacement lands, so a firing can leave a
  /// torn repair for the next anti-entropy round to finish. The crashed
  /// node fails fast like a deterministic crash until revived.
  double repair_crash_rate = 0.0;

  /// All-zero spec: injecting with it never perturbs anything.
  static FaultSpec None() { return FaultSpec{}; }

  /// Uniform transient-read-fault profile at probability `p` with mild
  /// latency spikes — the knob the fault-rate sweeps turn.
  static FaultSpec TransientReads(double p);

  /// Power-cut-only spec: cut at the `nth_write`-th device write.
  static FaultSpec PowerCut(int64_t nth_write);

  /// True when any fault class can fire.
  bool Enabled() const;

  /// True when any *write* fault class can fire. Writes consult the rng
  /// only when this holds, so read-only fault traces are unchanged by the
  /// presence of (fault-free) writes in the call sequence.
  bool WritesEnabled() const;

  /// True when any node-granularity fault class can fire. Node operations
  /// draw from the rng only when this holds, so attaching a node injector
  /// with a device-only spec leaves the device trace untouched.
  bool NodeFaultsEnabled() const;

  /// Node-kill-only spec: the node dies at its `nth_op`-th consulted
  /// operation — the replication bench's mid-stream node loss.
  static FaultSpec NodeCrash(int64_t nth_op);
};

/// Outcome of consulting the injector for one device operation.
struct FaultDecision {
  /// The operation fails with Unavailable (retry may succeed).
  bool fail = false;
  /// Extra modeled latency charged to the operation (spikes, stalls).
  int64_t extra_latency_ns = 0;
  /// Label of the fault class that fired ("", "read-error", "spike",
  /// "stuck-head", "power-off") for logs and typed notifications.
  const char* kind = "";
};

/// Outcome of consulting the injector for one device write.
struct WriteFaultDecision {
  /// The write fails with Unavailable (torn, power-cut, powered-off).
  /// Silent faults (drop, bit flip) leave this false.
  bool fail = false;
  /// Bytes of the write that actually persist; -1 means all of them.
  /// 0 with `fail == false` is a dropped (lost) write.
  int64_t persist_bytes = -1;
  /// One bit of the persisted bytes is flipped: byte `flip_offset %
  /// persisted-length`, mask `flip_mask`.
  bool bit_flip = false;
  uint64_t flip_offset = 0;
  uint8_t flip_mask = 1;
  /// This write tripped the power cut: the device freezes after it.
  bool power_cut = false;
  /// "", "torn-write", "dropped-write", "bit-flip", "power-cut",
  /// "power-off".
  const char* kind = "";
};

/// Outcome of consulting the injector for one node-level operation.
struct NodeFaultDecision {
  /// The operation fails with Unavailable (crash) or DeadlineExceeded
  /// (partition — the caller charges its whole remaining budget first).
  bool fail = false;
  /// The node is unresponsive rather than refusing: the request times out
  /// instead of failing fast.
  bool unresponsive = false;
  /// Multiplier (>= 1) on the operation's modeled duration; 1.0 when no
  /// slow-node fault fired.
  double slow_factor = 1.0;
  /// "", "node-crash", "node-partition", "node-slow", "node-down".
  const char* kind = "";
};

/// Deterministic, seeded fault source shared by simulated devices and
/// channels. Every decision draws one variate per non-zero rate from one
/// explicitly seeded Rng in a fixed order, and a zero rate draws nothing
/// (Rng::NextBool returns before drawing), so the fault trace is a pure
/// function of (seed, spec, call sequence): two runs with equal seeds see
/// byte-identical fault schedules — the property the robustness tests pin.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec, uint64_t seed = 1)
      : spec_(spec), rng_(seed) {}

  const FaultSpec& spec() const { return spec_; }

  /// Decision for one device read. After a power cut every read fails
  /// ("power-off") without drawing from the rng.
  FaultDecision OnDeviceRead();

  /// Decision for one device write of `length` bytes. Draws nothing (and
  /// fires nothing) unless the spec enables write faults, so read-only
  /// traces are unaffected by interleaved writes.
  WriteFaultDecision OnDeviceWrite(int64_t length);

  /// Slowdown factor (>= 1) applied to one transfer's serialization time;
  /// 1.0 when no collapse fires.
  double OnTransfer();

  /// Decision for one node-level operation (a ServerNode serving a
  /// request). Draws nothing unless the spec enables node faults, so
  /// device/channel traces are unaffected by node-fault consultation.
  /// After the deterministic crash every operation fails ("node-down")
  /// without drawing.
  NodeFaultDecision OnNodeOp();

  /// Decision for one repair apply step (read-repair / anti-entropy
  /// rewrite). Draws one variate iff `repair_crash_rate > 0`, so repair
  /// consultation never perturbs node-op or device traces. A firing downs
  /// the node ("repair-crash") until Revive(); a downed node refuses
  /// without drawing.
  NodeFaultDecision OnRepairOp();

  /// True once the deterministic node crash has fired; operations fail
  /// until Revive().
  bool node_down() const { return node_down_; }
  /// Reboots a crashed node: subsequent operations draw faults normally
  /// again. The crash count in stats() keeps the history.
  void Revive() { node_down_ = false; }

  /// True once the deterministic power cut has fired; every subsequent
  /// device operation fails until the injector is detached (reboot).
  bool powered_off() const { return powered_off_; }

  struct Stats {
    int64_t decisions = 0;          ///< device reads consulted
    int64_t read_errors = 0;
    int64_t latency_spikes = 0;
    int64_t stuck_heads = 0;
    int64_t transfers = 0;          ///< channel transfers consulted
    int64_t collapses = 0;
    int64_t extra_latency_ns = 0;   ///< total injected delay
    int64_t write_decisions = 0;    ///< device writes consulted (and drawn)
    int64_t torn_writes = 0;
    int64_t dropped_writes = 0;
    int64_t write_bit_flips = 0;
    int64_t power_cuts = 0;         ///< 0 or 1
    int64_t node_ops = 0;           ///< node operations consulted
    int64_t node_crashes = 0;       ///< deterministic crashes fired (0 or 1)
    int64_t node_partition_ops = 0; ///< ops lost to a partition window
    int64_t node_slow_ops = 0;      ///< ops served slow
    int64_t repair_ops = 0;         ///< repair apply steps consulted
    int64_t repair_crashes = 0;     ///< repairs that crashed the node
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  FaultSpec spec_;
  Rng rng_;
  Stats stats_;
  int64_t writes_seen_ = 0;  ///< writes consulted while write faults enabled
  bool powered_off_ = false;
  int64_t node_ops_seen_ = 0;  ///< node ops consulted while node faults on
  int64_t partition_ops_left_ = 0;
  bool node_down_ = false;
};

}  // namespace avdb

#endif  // AVDB_BASE_FAULT_INJECTOR_H_
