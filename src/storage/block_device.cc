#include "storage/block_device.h"

#include "base/logging.h"

namespace avdb {

DeviceProfile DeviceProfile::MagneticDisk() {
  DeviceProfile p;
  p.model = "magnetic-disk-1993";
  p.capacity_bytes = 1000LL * 1024 * 1024;  // ~1 GB
  p.transfer_bytes_per_sec = 3500 * 1024;   // 3.5 MB/s
  p.seek_time = WorldTime::FromMillis(12);
  p.rotational_latency = WorldTime::FromMillis(6);
  p.exchange_time = WorldTime();
  p.disc_count = 1;
  p.exclusive = false;
  return p;
}

DeviceProfile DeviceProfile::CdRom() {
  DeviceProfile p;
  p.model = "cdrom-2x";
  p.capacity_bytes = 650LL * 1024 * 1024;
  p.transfer_bytes_per_sec = 300 * 1024;  // 2x speed
  p.seek_time = WorldTime::FromMillis(200);
  p.rotational_latency = WorldTime::FromMillis(60);
  p.exchange_time = WorldTime();
  p.disc_count = 1;
  p.exclusive = false;
  return p;
}

DeviceProfile DeviceProfile::VideodiscJukebox() {
  DeviceProfile p;
  p.model = "videodisc-jukebox";
  p.capacity_bytes = 50LL * 1024 * 1024 * 1024;  // 50 GB across discs
  p.transfer_bytes_per_sec = 4000 * 1024;        // real-time analog video
  p.seek_time = WorldTime::FromMillis(500);      // track search
  p.rotational_latency = WorldTime::FromMillis(20);
  p.exchange_time = WorldTime::FromSeconds(6);   // robot disc swap
  p.disc_count = 100;
  p.exclusive = true;  // one playback arm
  return p;
}

DeviceProfile DeviceProfile::RamDisk() {
  DeviceProfile p;
  p.model = "ram-disk";
  p.capacity_bytes = 64LL * 1024 * 1024;
  p.transfer_bytes_per_sec = 40LL * 1024 * 1024;
  p.seek_time = WorldTime();
  p.rotational_latency = WorldTime();
  p.exchange_time = WorldTime();
  p.disc_count = 1;
  p.exclusive = false;
  return p;
}

BlockDevice::BlockDevice(std::string name, DeviceProfile profile)
    : name_(std::move(name)), profile_(std::move(profile)) {
  AVDB_CHECK(profile_.disc_count >= 1) << "device needs at least one disc";
  AVDB_CHECK(profile_.transfer_bytes_per_sec > 0)
      << "device needs positive transfer rate";
  discs_.resize(static_cast<size_t>(profile_.disc_count));
}

WorldTime BlockDevice::PositionCost(int disc, int64_t offset) const {
  WorldTime cost;
  if (disc != current_disc_) {
    cost += profile_.exchange_time;
    cost += profile_.seek_time + profile_.rotational_latency;
  } else if (offset != head_position_) {
    cost += profile_.seek_time + profile_.rotational_latency;
  }
  return cost;
}

WorldTime BlockDevice::Position(int disc, int64_t offset, bool count_stats) {
  const WorldTime cost = PositionCost(disc, offset);
  if (count_stats) {
    if (disc != current_disc_) {
      ++stats_.disc_exchanges;
      ++stats_.seeks;
    } else if (offset != head_position_) {
      ++stats_.seeks;
    }
  }
  current_disc_ = disc;
  head_position_ = offset;
  return cost;
}

WorldTime BlockDevice::SequentialReadTime(int64_t length) const {
  return WorldTime(Rational(length, profile_.transfer_bytes_per_sec));
}

Result<WorldTime> BlockDevice::Write(int disc, int64_t offset,
                                     const Buffer& data) {
  if (disc < 0 || disc >= profile_.disc_count) {
    return Status::InvalidArgument("bad disc index on " + name_);
  }
  const int64_t end = offset + static_cast<int64_t>(data.size());
  if (offset < 0 || end > profile_.capacity_bytes) {
    return Status::InvalidArgument("write beyond capacity on " + name_);
  }
  auto& disc_bytes = discs_[static_cast<size_t>(disc)];

  // Fault injection decides how much of the write reaches the media before
  // any state changes. Torn and power-cut writes persist a prefix and fail
  // (a failed write leaves the head where it was); dropped and bit-flipped
  // writes persist wrong bytes but report success — silent until a
  // checksum catches them.
  int64_t persist = static_cast<int64_t>(data.size());
  WriteFaultDecision decision;
  if (fault_injector_ != nullptr) {
    decision = fault_injector_->OnDeviceWrite(persist);
    if (decision.persist_bytes >= 0) persist = decision.persist_bytes;
  }
  // The whole target range becomes addressable either way: sectors past a
  // torn/dropped prefix keep their old contents (zeros when never written),
  // which is what a later checksum verification must be able to read.
  if (static_cast<int64_t>(disc_bytes.size()) < end) {
    disc_bytes.resize(static_cast<size_t>(end), 0);
  }
  if (persist > 0) {
    std::copy(data.data(), data.data() + persist,
              disc_bytes.begin() + offset);
    if (decision.bit_flip) {
      const int64_t at = static_cast<int64_t>(
          decision.flip_offset % static_cast<uint64_t>(persist));
      disc_bytes[static_cast<size_t>(offset + at)] ^= decision.flip_mask;
    }
  }
  if (decision.fail) {
    ++stats_.injected_write_faults;
    return Status::Unavailable(std::string("injected ") + decision.kind +
                               " fault on " + name_);
  }

  WorldTime cost = Position(disc, offset, /*count_stats=*/true);
  cost += SequentialReadTime(static_cast<int64_t>(data.size()));
  head_position_ = end;
  ++stats_.writes;
  stats_.bytes_written += static_cast<int64_t>(data.size());
  stats_.busy_time += cost;
  return cost;
}

Result<WorldTime> BlockDevice::Read(int disc, int64_t offset, int64_t length,
                                    Buffer* out) {
  if (disc < 0 || disc >= profile_.disc_count) {
    return Status::InvalidArgument("bad disc index on " + name_);
  }
  if (offset < 0 || length < 0) {
    return Status::InvalidArgument("bad read range on " + name_);
  }
  const auto& disc_bytes = discs_[static_cast<size_t>(disc)];
  if (offset + length > static_cast<int64_t>(disc_bytes.size())) {
    return Status::InvalidArgument("read past written extent on " + name_);
  }

  // Fault injection happens before any state changes: a failed attempt
  // leaves the head where it was (the arm never completed the motion).
  WorldTime injected;
  if (fault_injector_ != nullptr) {
    const FaultDecision decision = fault_injector_->OnDeviceRead();
    if (decision.fail) {
      ++stats_.injected_faults;
      return Status::Unavailable(std::string("injected ") + decision.kind +
                                 " fault on " + name_);
    }
    if (decision.extra_latency_ns > 0) {
      injected = WorldTime::FromNanos(decision.extra_latency_ns);
      stats_.injected_latency += injected;
    }
  }

  out->Clear();
  out->AppendBytes(disc_bytes.data() + offset, static_cast<size_t>(length));

  WorldTime cost = injected + Position(disc, offset, /*count_stats=*/true);
  cost += SequentialReadTime(length);
  head_position_ = offset + length;
  ++stats_.reads;
  stats_.busy_time += cost;
  return cost;
}

Status BlockDevice::ReserveCapacity(int64_t bytes) {
  if (used_bytes_ + bytes > profile_.capacity_bytes) {
    return Status::ResourceExhausted("device " + name_ + " full");
  }
  used_bytes_ += bytes;
  return Status::OK();
}

void BlockDevice::ReleaseCapacity(int64_t bytes) {
  used_bytes_ -= bytes;
  if (used_bytes_ < 0) used_bytes_ = 0;
}

}  // namespace avdb
