#include "media/frame.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "base/buffer_pool.h"
#include "base/logging.h"

namespace avdb {

VideoFrame::VideoFrame(int width, int height, int depth_bits)
    : width_(width), height_(height), depth_bits_(depth_bits) {
  AVDB_CHECK(width >= 0 && height >= 0) << "negative frame geometry";
  AVDB_CHECK(depth_bits == 8 || depth_bits == 24)
      << "unsupported frame depth " << depth_bits;
  data_ = BufferPool::Shared().AcquireBytes(
      static_cast<size_t>(width) * height * (depth_bits / 8));
  std::fill(data_.begin(), data_.end(), uint8_t{0});
}

VideoFrame::~VideoFrame() {
  BufferPool::Shared().Release(std::move(data_));
}

VideoFrame::VideoFrame(const VideoFrame& other)
    : width_(other.width_),
      height_(other.height_),
      depth_bits_(other.depth_bits_) {
  data_ = BufferPool::Shared().AcquireBytes(other.data_.size());
  if (!other.data_.empty()) {
    std::memcpy(data_.data(), other.data_.data(), other.data_.size());
  }
}

VideoFrame& VideoFrame::operator=(const VideoFrame& other) {
  if (this == &other) return *this;
  width_ = other.width_;
  height_ = other.height_;
  depth_bits_ = other.depth_bits_;
  data_.resize(other.data_.size());  // reuses capacity in steady state
  if (!other.data_.empty()) {
    std::memcpy(data_.data(), other.data_.data(), other.data_.size());
  }
  return *this;
}

VideoFrame::VideoFrame(VideoFrame&& other) noexcept
    : width_(other.width_),
      height_(other.height_),
      depth_bits_(other.depth_bits_),
      data_(std::move(other.data_)) {
  other.width_ = 0;
  other.height_ = 0;
  other.data_.clear();
}

VideoFrame& VideoFrame::operator=(VideoFrame&& other) noexcept {
  if (this == &other) return *this;
  BufferPool::Shared().Release(std::move(data_));
  width_ = other.width_;
  height_ = other.height_;
  depth_bits_ = other.depth_bits_;
  data_ = std::move(other.data_);
  other.width_ = 0;
  other.height_ = 0;
  other.data_.clear();
  return *this;
}

Result<double> VideoFrame::MeanAbsoluteError(const VideoFrame& other) const {
  if (width_ != other.width_ || height_ != other.height_ ||
      depth_bits_ != other.depth_bits_) {
    return Status::InvalidArgument("frame geometry mismatch in MAE");
  }
  if (data_.empty()) return 0.0;
  uint64_t total = 0;
  for (size_t i = 0; i < data_.size(); ++i) {
    total += static_cast<uint64_t>(
        std::abs(static_cast<int>(data_[i]) - static_cast<int>(other.data_[i])));
  }
  return static_cast<double>(total) / static_cast<double>(data_.size());
}

AudioBlock::AudioBlock(int channels, int frame_count) : channels_(channels) {
  samples_ = BufferPool::Shared().AcquireI16(static_cast<size_t>(channels) *
                                             frame_count);
  std::fill(samples_.begin(), samples_.end(), int16_t{0});
}

AudioBlock::~AudioBlock() {
  BufferPool::Shared().Release(std::move(samples_));
}

AudioBlock::AudioBlock(const AudioBlock& other) : channels_(other.channels_) {
  samples_ = BufferPool::Shared().AcquireI16(other.samples_.size());
  if (!other.samples_.empty()) {
    std::memcpy(samples_.data(), other.samples_.data(),
                other.samples_.size() * sizeof(int16_t));
  }
}

AudioBlock& AudioBlock::operator=(const AudioBlock& other) {
  if (this == &other) return *this;
  channels_ = other.channels_;
  samples_.resize(other.samples_.size());
  if (!other.samples_.empty()) {
    std::memcpy(samples_.data(), other.samples_.data(),
                other.samples_.size() * sizeof(int16_t));
  }
  return *this;
}

AudioBlock::AudioBlock(AudioBlock&& other) noexcept
    : channels_(other.channels_), samples_(std::move(other.samples_)) {
  other.channels_ = 0;
  other.samples_.clear();
}

AudioBlock& AudioBlock::operator=(AudioBlock&& other) noexcept {
  if (this == &other) return *this;
  BufferPool::Shared().Release(std::move(samples_));
  channels_ = other.channels_;
  samples_ = std::move(other.samples_);
  other.channels_ = 0;
  other.samples_.clear();
  return *this;
}

}  // namespace avdb
