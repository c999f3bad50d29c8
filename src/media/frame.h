#ifndef AVDB_MEDIA_FRAME_H_
#define AVDB_MEDIA_FRAME_H_

#include <cstdint>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace avdb {

/// Read-only view of one component plane of a VideoFrame: width×height
/// bytes, contiguous in raster order. A view borrows the frame's storage —
/// it is valid only while the frame outlives it and is not resized.
/// Codecs iterate these directly instead of copying planes out.
class PlaneView {
 public:
  PlaneView() = default;
  PlaneView(const uint8_t* data, int width, int height)
      : data_(data), width_(width), height_(height) {}

  const uint8_t* data() const { return data_; }
  int width() const { return width_; }
  int height() const { return height_; }
  size_t size() const { return static_cast<size_t>(width_) * height_; }
  uint8_t at(int x, int y) const {
    return data_[static_cast<size_t>(y) * width_ + x];
  }
  const uint8_t* row(int y) const {
    return data_ + static_cast<size_t>(y) * width_;
  }

 private:
  const uint8_t* data_ = nullptr;
  int width_ = 0;
  int height_ = 0;
};

/// Mutable counterpart of PlaneView. Aliasing rule: a PlaneSpan must not
/// overlap a PlaneView of the same plane inside one kernel call — the
/// codecs write either a different frame or a different plane than they
/// read.
class PlaneSpan {
 public:
  PlaneSpan() = default;
  PlaneSpan(uint8_t* data, int width, int height)
      : data_(data), width_(width), height_(height) {}

  uint8_t* data() const { return data_; }
  int width() const { return width_; }
  int height() const { return height_; }
  size_t size() const { return static_cast<size_t>(width_) * height_; }
  uint8_t* row(int y) const {
    return data_ + static_cast<size_t>(y) * width_;
  }
  operator PlaneView() const { return PlaneView(data_, width_, height_); }

 private:
  uint8_t* data_ = nullptr;
  int width_ = 0;
  int height_ = 0;
};

/// One uncompressed raster frame: `width`×`height` pixels at `depth_bits`
/// bits per pixel. Supported depths are 8 (single 8-bit luma plane) and 24
/// (RGB). This is the unit that flows through video ports, the paper's
/// "raw" port data type.
///
/// Storage is *planar* (plane-major: all of component 0, then 1, then 2),
/// so each component plane is a contiguous width×height byte run exposed
/// zero-copy through plane()/plane_span(). Backing stores are leased from
/// BufferPool::Shared() and recycled on destruction, so steady-state frame
/// churn performs no heap allocations once the pool is warm.
class VideoFrame {
 public:
  /// Component planes of the deepest frame (24-bit).
  static constexpr int kMaxPlanes = 3;

  /// Empty 0x0 frame.
  VideoFrame() = default;
  /// Allocates a zero-filled frame. Depth must be 8 or 24 (checked).
  VideoFrame(int width, int height, int depth_bits);
  ~VideoFrame();

  VideoFrame(const VideoFrame& other);
  VideoFrame& operator=(const VideoFrame& other);
  VideoFrame(VideoFrame&& other) noexcept;
  VideoFrame& operator=(VideoFrame&& other) noexcept;

  int width() const { return width_; }
  int height() const { return height_; }
  int depth_bits() const { return depth_bits_; }
  int bytes_per_pixel() const { return depth_bits_ / 8; }
  int plane_count() const { return bytes_per_pixel(); }
  size_t SizeBytes() const { return data_.size(); }
  size_t plane_size() const { return static_cast<size_t>(width_) * height_; }

  const std::vector<uint8_t>& data() const { return data_; }
  std::vector<uint8_t>& data() { return data_; }

  /// Zero-copy view of component plane `p` (0..plane_count-1).
  PlaneView plane(int p) const {
    return PlaneView(data_.data() + plane_size() * p, width_, height_);
  }
  /// Zero-copy mutable span of component plane `p`.
  PlaneSpan plane_span(int p) {
    return PlaneSpan(data_.data() + plane_size() * p, width_, height_);
  }

  /// Pixel component `c` (0..bytes_per_pixel-1) at (x, y); coordinates are
  /// caller's responsibility in release paths, checked in debug.
  uint8_t At(int x, int y, int c = 0) const {
    return data_[plane_size() * c + static_cast<size_t>(y) * width_ + x];
  }
  void Set(int x, int y, uint8_t v, int c = 0) {
    data_[plane_size() * c + static_cast<size_t>(y) * width_ + x] = v;
  }

  /// Mean absolute per-component difference against `other`; used as the
  /// distortion measure in codec tests and the quality bench. Frames must
  /// have equal geometry (InvalidArgument otherwise).
  Result<double> MeanAbsoluteError(const VideoFrame& other) const;

  friend bool operator==(const VideoFrame& a, const VideoFrame& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.depth_bits_ == b.depth_bits_ && a.data_ == b.data_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  int depth_bits_ = 8;
  std::vector<uint8_t> data_;  // plane-major, leased from BufferPool
};

/// A block of interleaved 16-bit PCM audio samples: `channels` interleaved
/// streams. `frame_count` is samples per channel. The unit that flows
/// through audio ports. Backing stores are pooled like VideoFrame's.
class AudioBlock {
 public:
  AudioBlock() = default;
  AudioBlock(int channels, int frame_count);
  ~AudioBlock();

  AudioBlock(const AudioBlock& other);
  AudioBlock& operator=(const AudioBlock& other);
  AudioBlock(AudioBlock&& other) noexcept;
  AudioBlock& operator=(AudioBlock&& other) noexcept;

  int channels() const { return channels_; }
  int frame_count() const {
    return channels_ == 0 ? 0 : static_cast<int>(samples_.size()) / channels_;
  }
  size_t SizeBytes() const { return samples_.size() * sizeof(int16_t); }

  const std::vector<int16_t>& samples() const { return samples_; }
  std::vector<int16_t>& samples() { return samples_; }

  int16_t At(int frame, int channel) const {
    return samples_[static_cast<size_t>(frame) * channels_ + channel];
  }
  void Set(int frame, int channel, int16_t v) {
    samples_[static_cast<size_t>(frame) * channels_ + channel] = v;
  }

  friend bool operator==(const AudioBlock& a, const AudioBlock& b) {
    return a.channels_ == b.channels_ && a.samples_ == b.samples_;
  }

 private:
  int channels_ = 0;
  std::vector<int16_t> samples_;  // leased from BufferPool
};

}  // namespace avdb

#endif  // AVDB_MEDIA_FRAME_H_
