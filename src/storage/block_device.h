#ifndef AVDB_STORAGE_BLOCK_DEVICE_H_
#define AVDB_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/fault_injector.h"
#include "base/result.h"
#include "time/world_time.h"

namespace avdb {

/// Performance/behaviour profile of a simulated storage device. Profiles
/// approximate early-1990s hardware (the paper's §3.3 "storage media"
/// discussion) — the *relations* between them (disk ≫ CD-ROM bandwidth,
/// jukebox disc-exchange stalls, seek costs that penalize interleaving two
/// streams on one spindle) are what the placement and admission experiments
/// depend on; see DESIGN.md §5.
struct DeviceProfile {
  std::string model;
  int64_t capacity_bytes = 0;
  int64_t transfer_bytes_per_sec = 0;
  /// Average seek (repositioning) cost charged whenever a read/write does
  /// not continue at the current head position.
  WorldTime seek_time;
  /// Half-rotation latency added to every repositioning.
  WorldTime rotational_latency;
  /// Disc-exchange cost (videodisc/CD jukeboxes); zero for fixed media.
  WorldTime exchange_time;
  /// Number of platters/discs; objects are placed on one disc. 1 for
  /// fixed-media devices.
  int disc_count = 1;
  /// True when the device can serve only one stream at a time (e.g. an
  /// analog videodisc player) — the §3.3 "may not be possible to allow
  /// concurrent use of special-purpose hardware" case.
  bool exclusive = false;

  // --- 1993-flavoured factory profiles ------------------------------------

  /// High-end magnetic disk, ~1 GB, ~3.5 MB/s, 12 ms seek.
  static DeviceProfile MagneticDisk();
  /// Double-speed CD-ROM: 300 KB/s, slow seeks.
  static DeviceProfile CdRom();
  /// Videodisc jukebox: huge capacity across many discs, real-time-capable
  /// transfer, multi-second disc exchange, exclusive access.
  static DeviceProfile VideodiscJukebox();
  /// Battery-backed RAM disk: small, fast, no seek penalty.
  static DeviceProfile RamDisk();
};

/// A simulated block storage device. Data is held in memory; *time* is
/// modeled, not spent: every operation returns the WorldTime it would take,
/// and the discrete-event scheduler charges that duration. The head
/// position persists between operations so interleaved streams pay seeks —
/// the mechanism behind the paper's data-placement argument.
class BlockDevice {
 public:
  BlockDevice(std::string name, DeviceProfile profile);

  const std::string& name() const { return name_; }
  const DeviceProfile& profile() const { return profile_; }

  int64_t capacity() const { return profile_.capacity_bytes; }
  int64_t used_bytes() const { return used_bytes_; }

  /// Writes `data` at byte `offset` on `disc`, growing the backing store as
  /// needed. Returns the modeled duration. InvalidArgument when the write
  /// exceeds capacity or names a bad disc. With a fault injector attached,
  /// the write may tear (a prefix persists, Unavailable returned), drop or
  /// bit-flip silently (success reported, media wrong), or trip the
  /// deterministic power cut (prefix persists, device frozen).
  Result<WorldTime> Write(int disc, int64_t offset, const Buffer& data);

  /// Reads `length` bytes from `offset` on `disc` into `out`. Returns the
  /// modeled duration (seek + exchange + transfer).
  Result<WorldTime> Read(int disc, int64_t offset, int64_t length,
                         Buffer* out);

  /// Duration of a purely sequential read of `length` bytes (no seek):
  /// the best case used for bandwidth budgeting.
  WorldTime SequentialReadTime(int64_t length) const;

  /// Attaches a fault injector consulted on every read and write
  /// (non-owning; nullptr detaches — after a power cut, detaching is the
  /// "reboot"). With no injector — the default — both paths are exactly
  /// the fault-free ones: zero extra work, byte-identical bytes and timing.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }

  /// Bookkeeping for allocators: reserve/free capacity.
  Status ReserveCapacity(int64_t bytes);
  void ReleaseCapacity(int64_t bytes);

  /// Cumulative statistics.
  struct Stats {
    int64_t reads = 0;
    int64_t writes = 0;
    int64_t bytes_written = 0;
    int64_t seeks = 0;
    int64_t disc_exchanges = 0;
    int64_t injected_faults = 0;     ///< reads failed by the injector
    int64_t injected_write_faults = 0;  ///< writes failed (torn, power-cut)
    WorldTime injected_latency;      ///< spike/stall time added by faults
    WorldTime busy_time;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  /// Charges positioning cost and updates head state.
  WorldTime Position(int disc, int64_t offset, bool count_stats);
  WorldTime PositionCost(int disc, int64_t offset) const;

  std::string name_;
  DeviceProfile profile_;
  std::vector<std::vector<uint8_t>> discs_;  // backing bytes per disc
  int64_t used_bytes_ = 0;

  int current_disc_ = 0;
  int64_t head_position_ = 0;

  FaultInjector* fault_injector_ = nullptr;
  Stats stats_;
};

using BlockDevicePtr = std::shared_ptr<BlockDevice>;

}  // namespace avdb

#endif  // AVDB_STORAGE_BLOCK_DEVICE_H_
