#include "activity/transformers.h"

#include "base/logging.h"

namespace avdb {

// --------------------------------------------------- VideoDecoderActivity --

VideoDecoderActivity::VideoDecoderActivity(const std::string& name,
                                           ActivityLocation location,
                                           ActivityEnv env, CostModel costs)
    : MediaActivity(name, location, env),
      costs_(costs),
      decode_unit_(name + ".unit") {
  in_ = DeclarePort(kPortIn, PortDirection::kIn,
                    MediaDataType::CompressedVideo(EncodingFamily::kIntra, 0,
                                                   0, 8, Rational(1)));
  out_ = DeclarePort(kPortOut, PortDirection::kOut,
                     MediaDataType::RawVideo(0, 0, 8, Rational(1)));
}

std::shared_ptr<VideoDecoderActivity> VideoDecoderActivity::Create(
    const std::string& name, ActivityLocation location, ActivityEnv env,
    CostModel costs) {
  return std::shared_ptr<VideoDecoderActivity>(
      new VideoDecoderActivity(name, location, env, costs));
}

Status VideoDecoderActivity::DoBind(MediaValuePtr value,
                                  const std::string& port_name) {
  if (port_name != kPortIn) {
    return Status::NotFound("port " + name() + "." + port_name);
  }
  auto encoded = std::dynamic_pointer_cast<EncodedVideoValue>(value);
  if (encoded == nullptr) {
    return Status::InvalidArgument(
        "VideoDecoderActivity requires an EncodedVideoValue");
  }
  value_ = encoded;
  in_->set_data_type(encoded->type());
  out_->set_data_type(MediaDataType::RawVideo(
      encoded->width(), encoded->height(), encoded->depth_bits(),
      encoded->frame_rate()));
  return Status::OK();
}

void VideoDecoderActivity::OnElement(Port* in, const StreamElement& element) {
  AVDB_DCHECK(in == in_);
  if (element.end_of_stream) {
    Emit(out_, element);
    reader_.reset();
    SelfStop();
    return;
  }
  if (value_ == nullptr) {
    AVDB_LOG(Error) << name() << ": element before bind";
    return;
  }
  if (reader_ == nullptr) {
    auto reader = value_->NewReader();
    if (!reader.ok()) {
      AVDB_LOG(Error) << name() << ": decode failed: " << reader.status();
      return;
    }
    reader_ = std::move(reader).value();
  }
  auto frame = reader_->DecodeFrame(element.index);
  if (!frame.ok()) {
    AVDB_LOG(Error) << name() << ": decode failed: " << frame.status();
    return;
  }
  const int64_t pixels =
      static_cast<int64_t>(value_->width()) * value_->height();
  const int64_t ready_ns =
      decode_unit_.Submit(engine()->now_ns(), costs_.VideoDecodeNs(pixels));
  StreamElement out_element;
  out_element.index = element.index;
  out_element.ideal_time_ns = element.ideal_time_ns;
  out_element.frame =
      std::make_shared<const VideoFrame>(std::move(frame).value());
  out_element.size_bytes =
      static_cast<int64_t>(out_element.frame->SizeBytes());
  ++frames_decoded_;
  EmitAt(ready_ns, out_, std::move(out_element));
}

Status VideoDecoderActivity::OnStop() {
  reader_.reset();
  return Status::OK();
}

// --------------------------------------------------- VideoEncoderActivity --

VideoEncoderActivity::VideoEncoderActivity(const std::string& name,
                                           ActivityLocation location,
                                           ActivityEnv env,
                                           MediaDataType input_type,
                                           int quality, CostModel costs)
    : MediaActivity(name, location, env),
      quality_(quality),
      costs_(costs),
      encode_unit_(name + ".unit") {
  in_ = DeclarePort(kPortIn, PortDirection::kIn, input_type);
  out_ = DeclarePort(kPortOut, PortDirection::kOut,
                     MediaDataType::CompressedVideo(
                         EncodingFamily::kIntra, input_type.width(),
                         input_type.height(), input_type.depth_bits(),
                         input_type.element_rate()));
}

std::shared_ptr<VideoEncoderActivity> VideoEncoderActivity::Create(
    const std::string& name, ActivityLocation location, ActivityEnv env,
    MediaDataType input_type, int quality, CostModel costs) {
  AVDB_CHECK(input_type.kind() == MediaKind::kVideo &&
             !input_type.IsCompressed())
      << "encoder input must be raw video";
  return std::shared_ptr<VideoEncoderActivity>(new VideoEncoderActivity(
      name, location, env, std::move(input_type), quality, costs));
}

void VideoEncoderActivity::OnElement(Port* in, const StreamElement& element) {
  AVDB_DCHECK(in == in_);
  if (element.end_of_stream) {
    Emit(out_, element);
    SelfStop();
    return;
  }
  if (element.frame == nullptr) {
    AVDB_LOG(Error) << name() << ": element without frame payload";
    return;
  }
  Buffer bits = IntraCodec::EncodeFrame(*element.frame, quality_);
  const int64_t pixels = static_cast<int64_t>(element.frame->width()) *
                         element.frame->height();
  const int64_t ready_ns =
      encode_unit_.Submit(engine()->now_ns(), costs_.VideoEncodeNs(pixels));
  StreamElement out_element;
  out_element.index = element.index;
  out_element.ideal_time_ns = element.ideal_time_ns;
  out_element.size_bytes = static_cast<int64_t>(bits.size());
  out_element.encoded = std::make_shared<const Buffer>(std::move(bits));
  out_element.encoded_is_intra = true;
  ++frames_encoded_;
  bytes_out_ += out_element.size_bytes;
  EmitAt(ready_ns, out_, std::move(out_element));
}

// ---------------------------------------------------------------- PairMixer --

PairMixer::PairMixer(const std::string& name, ActivityLocation location,
                     ActivityEnv env, const MediaDataType& type,
                     const char* port_out, CostModel costs)
    : MediaActivity(name, location, env),
      costs_(costs),
      mix_unit_(name + ".unit") {
  in_a_ = DeclarePort(kPortInA, PortDirection::kIn, type);
  in_b_ = DeclarePort(kPortInB, PortDirection::kIn, type);
  out_ = DeclarePort(port_out, PortDirection::kOut, type);
}

void PairMixer::OnElement(Port* in, const StreamElement& element) {
  if (element.end_of_stream) {
    if (in == in_a_) a_done_ = true;
    if (in == in_b_) b_done_ = true;
    if (a_done_ && b_done_ && !eos_sent_) {
      eos_sent_ = true;
      Emit(out_, element);
      SelfStop();
    }
    return;
  }
  const bool video = out_->data_type().kind() == MediaKind::kVideo;
  if (video ? element.frame == nullptr : element.audio == nullptr) {
    AVDB_LOG(Error) << name() << ": element without payload";
    return;
  }
  if (in == in_a_) {
    pending_a_[element.index] = element;
  } else {
    pending_b_[element.index] = element;
  }
  TryEmit(element.index);
}

void PairMixer::TryEmit(int64_t index) {
  const auto a = pending_a_.find(index);
  const auto b = pending_b_.find(index);
  const bool have_a = a != pending_a_.end();
  const bool have_b = b != pending_b_.end();
  StreamElement out_element;
  if (have_a && have_b) {
    out_element = Mix(a->second, b->second);
    out_element.index = index;
    out_element.ideal_time_ns =
        std::max(a->second.ideal_time_ns, b->second.ideal_time_ns);
    pending_a_.erase(a);
    pending_b_.erase(b);
  } else if (have_a && b_done_) {
    // Pass-through once one side has ended.
    out_element = std::move(a->second);
    pending_a_.erase(a);
  } else if (have_b && a_done_) {
    out_element = std::move(b->second);
    pending_b_.erase(b);
  } else {
    return;  // waiting for the partner element
  }
  const int64_t ready_ns =
      mix_unit_.Submit(engine()->now_ns(), CostNs(out_element));
  ++elements_mixed_;
  EmitAt(ready_ns, out_, std::move(out_element));
}

// --------------------------------------------------------------- VideoMixer --

VideoMixer::VideoMixer(const std::string& name, ActivityLocation location,
                       ActivityEnv env, const MediaDataType& video_type,
                       double mix, CostModel costs)
    : PairMixer(name, location, env, video_type, kPortOut, costs),
      mix_(mix) {}

std::shared_ptr<VideoMixer> VideoMixer::Create(const std::string& name,
                                               ActivityLocation location,
                                               ActivityEnv env,
                                               MediaDataType video_type,
                                               double mix, CostModel costs) {
  AVDB_CHECK(video_type.kind() == MediaKind::kVideo &&
             !video_type.IsCompressed())
      << "mixer works on raw video";
  if (mix < 0) mix = 0;
  if (mix > 1) mix = 1;
  return std::shared_ptr<VideoMixer>(
      new VideoMixer(name, location, env, video_type, mix, costs));
}

StreamElement VideoMixer::Mix(const StreamElement& a,
                              const StreamElement& b) const {
  const VideoFrame& fa = *a.frame;
  const VideoFrame& fb = *b.frame;
  VideoFrame mixed(fa.width(), fa.height(), fa.depth_bits());
  if (fb.width() == fa.width() && fb.height() == fa.height() &&
      fb.depth_bits() == fa.depth_bits()) {
    for (size_t i = 0; i < mixed.data().size(); ++i) {
      mixed.data()[i] = static_cast<uint8_t>(mix_ * fa.data()[i] +
                                             (1.0 - mix_) * fb.data()[i]);
    }
  } else {
    mixed = fa;  // geometry mismatch: favour input A
  }
  StreamElement out;
  out.frame = std::make_shared<const VideoFrame>(std::move(mixed));
  out.size_bytes = static_cast<int64_t>(out.frame->SizeBytes());
  return out;
}

int64_t VideoMixer::CostNs(const StreamElement& out) const {
  const int64_t pixels =
      out.frame == nullptr
          ? 0
          : static_cast<int64_t>(out.frame->width()) * out.frame->height();
  return costs_.MixNs(pixels);
}

// ----------------------------------------------------------------- VideoTee --

VideoTee::VideoTee(const std::string& name, ActivityLocation location,
                   ActivityEnv env, MediaDataType video_type, int fanout)
    : MediaActivity(name, location, env) {
  in_ = DeclarePort(kPortIn, PortDirection::kIn, video_type);
  for (int i = 0; i < fanout; ++i) {
    outs_.push_back(DeclarePort("out_" + std::to_string(i),
                                PortDirection::kOut, video_type));
  }
}

std::shared_ptr<VideoTee> VideoTee::Create(const std::string& name,
                                           ActivityLocation location,
                                           ActivityEnv env,
                                           MediaDataType video_type,
                                           int fanout) {
  AVDB_CHECK(fanout >= 1) << "tee fanout must be >= 1";
  return std::shared_ptr<VideoTee>(
      new VideoTee(name, location, env, std::move(video_type), fanout));
}

void VideoTee::OnElement(Port* in, const StreamElement& element) {
  AVDB_DCHECK(in == in_);
  for (Port* out : outs_) {
    Emit(out, element);  // shared payload, no copy
  }
  if (element.end_of_stream) SelfStop();
}

// ------------------------------------------------------- AudioMixerActivity --

AudioMixerActivity::AudioMixerActivity(const std::string& name,
                                       ActivityLocation location,
                                       ActivityEnv env,
                                       const MediaDataType& audio_type,
                                       double gain_a, double gain_b,
                                       CostModel costs)
    : PairMixer(name, location, env, audio_type, kPortOut, costs),
      gain_a_(gain_a),
      gain_b_(gain_b) {}

std::shared_ptr<AudioMixerActivity> AudioMixerActivity::Create(
    const std::string& name, ActivityLocation location, ActivityEnv env,
    MediaDataType audio_type, double gain_a, double gain_b, CostModel costs) {
  AVDB_CHECK(audio_type.kind() == MediaKind::kAudio &&
             !audio_type.IsCompressed())
      << "audio mixer works on raw PCM";
  return std::shared_ptr<AudioMixerActivity>(new AudioMixerActivity(
      name, location, env, audio_type, gain_a, gain_b, costs));
}

StreamElement AudioMixerActivity::Mix(const StreamElement& a,
                                      const StreamElement& b) const {
  const AudioBlock& block_a = *a.audio;
  const AudioBlock& block_b = *b.audio;
  const int frames = std::max(block_a.frame_count(), block_b.frame_count());
  AudioBlock mixed(block_a.channels(), frames);
  for (int f = 0; f < frames; ++f) {
    for (int c = 0; c < block_a.channels(); ++c) {
      double sample = 0;
      if (f < block_a.frame_count()) sample += gain_a_ * block_a.At(f, c);
      if (f < block_b.frame_count() && c < block_b.channels()) {
        sample += gain_b_ * block_b.At(f, c);
      }
      if (sample > 32767) sample = 32767;
      if (sample < -32768) sample = -32768;
      mixed.Set(f, c, static_cast<int16_t>(sample));
    }
  }
  StreamElement out;
  out.audio = std::make_shared<const AudioBlock>(std::move(mixed));
  out.size_bytes = static_cast<int64_t>(out.audio->SizeBytes());
  return out;
}

int64_t AudioMixerActivity::CostNs(const StreamElement& out) const {
  const int64_t samples =
      out.audio == nullptr
          ? 0
          : static_cast<int64_t>(out.audio->samples().size());
  return static_cast<int64_t>(CostModel::kAudioMixNsPerSample * samples);
}

// ---------------------------------------------------------- FormatConverter --

FormatConverter::FormatConverter(const std::string& name,
                                 ActivityLocation location, ActivityEnv env,
                                 MediaDataType from, MediaDataType to,
                                 CostModel costs)
    : MediaActivity(name, location, env), to_(to), costs_(costs),
      convert_unit_(name + ".unit") {
  in_ = DeclarePort(kPortIn, PortDirection::kIn, from);
  out_ = DeclarePort(kPortOut, PortDirection::kOut, to);
}

std::shared_ptr<FormatConverter> FormatConverter::Create(
    const std::string& name, ActivityLocation location, ActivityEnv env,
    MediaDataType from, MediaDataType to, CostModel costs) {
  AVDB_CHECK(from.kind() == MediaKind::kVideo &&
             to.kind() == MediaKind::kVideo)
      << "format converter works on video";
  return std::shared_ptr<FormatConverter>(new FormatConverter(
      name, location, env, std::move(from), std::move(to), costs));
}

VideoFrame FormatConverter::Convert(const VideoFrame& src, int width,
                                    int height, int depth_bits) {
  VideoFrame dst(width, height, depth_bits);
  const int src_bpp = src.bytes_per_pixel();
  const int dst_bpp = dst.bytes_per_pixel();
  for (int y = 0; y < height; ++y) {
    const int sy = height > 1 ? y * src.height() / height : 0;
    for (int x = 0; x < width; ++x) {
      const int sx = width > 1 ? x * src.width() / width : 0;
      for (int c = 0; c < dst_bpp; ++c) {
        uint8_t v;
        if (c < src_bpp) {
          v = src.At(sx, sy, c);
        } else {
          v = src.At(sx, sy, 0);  // grey -> replicate into RGB
        }
        dst.Set(x, y, v, c);
      }
      if (dst_bpp == 1 && src_bpp == 3) {
        // RGB -> grey: ITU-R 601 luma.
        const int grey = (299 * src.At(sx, sy, 0) + 587 * src.At(sx, sy, 1) +
                          114 * src.At(sx, sy, 2)) /
                         1000;
        dst.Set(x, y, static_cast<uint8_t>(grey), 0);
      }
    }
  }
  return dst;
}

void FormatConverter::OnElement(Port* in, const StreamElement& element) {
  AVDB_DCHECK(in == in_);
  if (element.end_of_stream) {
    Emit(out_, element);
    SelfStop();
    return;
  }
  if (element.frame == nullptr) {
    AVDB_LOG(Error) << name() << ": element without frame payload";
    return;
  }
  VideoFrame converted = Convert(*element.frame, to_.width(), to_.height(),
                                 to_.depth_bits());
  const int64_t pixels =
      static_cast<int64_t>(to_.width()) * to_.height();
  const int64_t ready_ns =
      convert_unit_.Submit(engine()->now_ns(), costs_.ConvertNs(pixels));
  StreamElement out_element;
  out_element.index = element.index;
  out_element.ideal_time_ns = element.ideal_time_ns;
  out_element.frame =
      std::make_shared<const VideoFrame>(std::move(converted));
  out_element.size_bytes =
      static_cast<int64_t>(out_element.frame->SizeBytes());
  EmitAt(ready_ns, out_, std::move(out_element));
}

}  // namespace avdb
