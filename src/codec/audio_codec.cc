#include "codec/audio_codec.h"

#include <algorithm>
#include <array>

namespace avdb {

namespace {

// IMA ADPCM tables (IMA Recommended Practices, 1992).
constexpr int kIndexTable[16] = {-1, -1, -1, -1, 2, 4, 6, 8,
                                 -1, -1, -1, -1, 2, 4, 6, 8};
constexpr int kStepTable[89] = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,
    19,    21,    23,    25,    28,    31,    34,    37,    41,    45,
    50,    55,    60,    66,    73,    80,    88,    97,    107,   118,
    130,   143,   157,   173,   190,   209,   230,   253,   279,   307,
    337,   371,   408,   449,   494,   544,   598,   658,   724,   796,
    876,   963,   1060,  1166,  1282,  1411,  1552,  1707,  1878,  2066,
    2272,  2499,  2749,  3024,  3327,  3660,  4026,  4428,  4871,  5358,
    5894,  6484,  7132,  7845,  8630,  9493,  10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

struct AdpcmState {
  int predictor = 0;  // int16 range
  int index = 0;      // 0..88
};

uint8_t AdpcmEncodeSample(AdpcmState* state, int16_t sample) {
  const int step = kStepTable[state->index];
  int diff = sample - state->predictor;
  uint8_t code = 0;
  if (diff < 0) {
    code = 8;
    diff = -diff;
  }
  int accum = step >> 3;
  if (diff >= step) {
    code |= 4;
    diff -= step;
    accum += step;
  }
  if (diff >= step >> 1) {
    code |= 2;
    diff -= step >> 1;
    accum += step >> 1;
  }
  if (diff >= step >> 2) {
    code |= 1;
    accum += step >> 2;
  }
  if (code & 8) {
    state->predictor -= accum;
  } else {
    state->predictor += accum;
  }
  if (state->predictor > 32767) state->predictor = 32767;
  if (state->predictor < -32768) state->predictor = -32768;
  state->index += kIndexTable[code];
  if (state->index < 0) state->index = 0;
  if (state->index > 88) state->index = 88;
  return code;
}

// The predictor delta of every (step index, code) pair: step/8, plus step,
// step/2 and step/4 for code bits 2, 1 and 0, negated by bit 3, as the IMA
// reference decoder computes it per sample, so every decoded sample is
// unchanged. A delta reaches 61,436 at step 32,767, so it is an int32_t.
using AdpcmDeltaTable = std::array<std::array<int32_t, 16>, 89>;

constexpr AdpcmDeltaTable MakeAdpcmDeltaTable() {
  AdpcmDeltaTable table{};
  for (int index = 0; index < 89; ++index) {
    const int step = kStepTable[index];
    for (int code = 0; code < 16; ++code) {
      int accum = step >> 3;
      if (code & 4) accum += step;
      if (code & 2) accum += step >> 1;
      if (code & 1) accum += step >> 2;
      table[index][code] = (code & 8) != 0 ? -accum : accum;
    }
  }
  return table;
}

constexpr AdpcmDeltaTable kAdpcmDelta = MakeAdpcmDeltaTable();

// One decode step of a channel whose whole state is `predictor` and
// `index`. Each clamp is two branch-free selects whose compares both read
// the unclamped value, so they run side by side.
inline int16_t AdpcmDecodeStep(int* predictor, int* index, int code) {
  const int sum = *predictor + kAdpcmDelta[*index][code];
  *predictor = sum > 32767 ? 32767 : (sum < -32768 ? -32768 : sum);
  const int next = *index + kIndexTable[code];
  *index = next > 88 ? 88 : (next < 0 ? 0 : next);
  return static_cast<int16_t>(*predictor);
}

Status ValidateChunkIndex(const EncodedAudio& audio, int64_t index) {
  if (index < 0 || index >= static_cast<int64_t>(audio.chunks.size())) {
    return Status::InvalidArgument("chunk index out of range");
  }
  return Status::OK();
}

int FramesInChunk(const EncodedAudio& audio, int64_t index) {
  const int64_t start = index * audio.chunk_frames;
  int64_t n = audio.total_frames - start;
  if (n > audio.chunk_frames) n = audio.chunk_frames;
  return static_cast<int>(n);
}

}  // namespace

int64_t EncodedAudio::TotalBytes() const {
  int64_t total = 0;
  for (const auto& c : chunks) total += static_cast<int64_t>(c.size());
  return total;
}

Buffer EncodedAudio::Serialize() const {
  Buffer out;
  out.AppendU32(0x41564141);  // 'AVAA'
  out.AppendU8(static_cast<uint8_t>(family));
  out.AppendI32(raw_type.channels());
  out.AppendI64(raw_type.element_rate().num());
  out.AppendI64(raw_type.element_rate().den());
  out.AppendI32(chunk_frames);
  out.AppendI64(total_frames);
  out.AppendU32(static_cast<uint32_t>(chunks.size()));
  for (const auto& c : chunks) {
    out.AppendU32(static_cast<uint32_t>(c.size()));
    out.AppendBuffer(c);
  }
  return out;
}

bool EncodedAudio::ShapeMatches(int64_t chunk_count) const {
  return raw_type.channels() >= 1 && chunk_frames >= 1 && total_frames >= 0 &&
         total_frames / chunk_frames +
                 (total_frames % chunk_frames != 0 ? 1 : 0) ==
             chunk_count;
}

Result<EncodedAudio> EncodedAudio::Deserialize(const Buffer& buffer) {
  BufferReader r(buffer);
  auto magic = r.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != 0x41564141) {
    return Status::DataLoss("bad encoded-audio magic");
  }
  EncodedAudio a;
  auto family = r.ReadU8();
  if (!family.ok()) return family.status();
  a.family = static_cast<EncodingFamily>(family.value());
  auto channels = r.ReadI32();
  if (!channels.ok()) return channels.status();
  auto rate_num = r.ReadI64();
  if (!rate_num.ok()) return rate_num.status();
  auto rate_den = r.ReadI64();
  if (!rate_den.ok()) return rate_den.status();
  if (rate_den.value() == 0) return Status::DataLoss("zero rate denominator");
  a.raw_type = MediaDataType::RawAudio(
      channels.value(), Rational(rate_num.value(), rate_den.value()));
  auto chunk_frames = r.ReadI32();
  if (!chunk_frames.ok()) return chunk_frames.status();
  a.chunk_frames = chunk_frames.value();
  auto total = r.ReadI64();
  if (!total.ok()) return total.status();
  a.total_frames = total.value();
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  if (!a.ShapeMatches(count.value())) {
    return Status::DataLoss("encoded-audio header does not match its chunks");
  }
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto size = r.ReadU32();
    if (!size.ok()) return size.status();
    Buffer c;
    c.Resize(size.value());
    AVDB_RETURN_IF_ERROR(r.ReadBytes(c.data(), size.value()));
    a.chunks.push_back(std::move(c));
  }
  return a;
}

uint8_t MulawCodec::CompandSample(int16_t pcm) {
  // G.711 µ-law with bias 0x84, 8 segments.
  const int kBias = 0x84;
  const int kClip = 32635;
  int sign = (pcm >> 8) & 0x80;
  int sample = sign != 0 ? -pcm : pcm;
  if (sample > kClip) sample = kClip;
  sample += kBias;
  int exponent = 7;
  for (int mask = 0x4000; (sample & mask) == 0 && exponent > 0; mask >>= 1) {
    --exponent;
  }
  const int mantissa = (sample >> (exponent + 3)) & 0x0F;
  return static_cast<uint8_t>(~(sign | (exponent << 4) | mantissa));
}

int16_t MulawCodec::ExpandSample(uint8_t mulaw) {
  const int kBias = 0x84;
  mulaw = static_cast<uint8_t>(~mulaw);
  const int sign = mulaw & 0x80;
  const int exponent = (mulaw >> 4) & 0x07;
  const int mantissa = mulaw & 0x0F;
  int sample = ((mantissa << 3) + kBias) << exponent;
  sample -= kBias;
  return static_cast<int16_t>(sign != 0 ? -sample : sample);
}

Result<EncodedAudio> MulawCodec::Encode(const AudioValue& value) const {
  EncodedAudio out;
  out.raw_type = value.type();
  out.family = family();
  out.chunk_frames = kDefaultChunkFrames;
  out.total_frames = value.SampleCount();
  const int channels = value.channels();
  for (int64_t start = 0; start < value.SampleCount();
       start += kDefaultChunkFrames) {
    const int64_t n =
        std::min<int64_t>(kDefaultChunkFrames, value.SampleCount() - start);
    auto block = value.Samples(start, n);
    if (!block.ok()) return block.status();
    Buffer chunk;
    chunk.Reserve(static_cast<size_t>(n) * channels);
    for (int f = 0; f < n; ++f) {
      for (int c = 0; c < channels; ++c) {
        chunk.AppendU8(CompandSample(block.value().At(f, c)));
      }
    }
    out.chunks.push_back(std::move(chunk));
  }
  return out;
}

Result<AudioBlock> MulawCodec::DecodeChunk(const EncodedAudio& audio,
                                           int64_t index) const {
  AVDB_RETURN_IF_ERROR(ValidateChunkIndex(audio, index));
  const int channels = audio.raw_type.channels();
  const int frames = FramesInChunk(audio, index);
  const Buffer& chunk = audio.chunks[static_cast<size_t>(index)];
  if (chunk.size() != static_cast<size_t>(frames) * channels) {
    return Status::DataLoss("mulaw chunk size mismatch");
  }
  AudioBlock block(channels, frames);
  size_t i = 0;
  for (int f = 0; f < frames; ++f) {
    for (int c = 0; c < channels; ++c) {
      block.Set(f, c, ExpandSample(chunk[i++]));
    }
  }
  return block;
}

Result<EncodedAudio> AdpcmCodec::Encode(const AudioValue& value) const {
  EncodedAudio out;
  out.raw_type = value.type();
  out.family = family();
  out.chunk_frames = kDefaultChunkFrames;
  out.total_frames = value.SampleCount();
  const int channels = value.channels();
  for (int64_t start = 0; start < value.SampleCount();
       start += kDefaultChunkFrames) {
    const int64_t n =
        std::min<int64_t>(kDefaultChunkFrames, value.SampleCount() - start);
    auto block = value.Samples(start, n);
    if (!block.ok()) return block.status();
    Buffer chunk;
    // Header: per channel, initial predictor (i16) + index (u8).
    std::vector<AdpcmState> states(static_cast<size_t>(channels));
    for (int c = 0; c < channels; ++c) {
      AdpcmState& s = states[static_cast<size_t>(c)];
      s.predictor = n > 0 ? block.value().At(0, c) : 0;
      s.index = 0;
      chunk.AppendU16(static_cast<uint16_t>(s.predictor));
      chunk.AppendU8(0);
    }
    // Body: 4-bit codes, two per byte, channel-interleaved.
    uint8_t pending = 0;
    bool have_pending = false;
    for (int f = 0; f < n; ++f) {
      for (int c = 0; c < channels; ++c) {
        const uint8_t code =
            AdpcmEncodeSample(&states[static_cast<size_t>(c)],
                              block.value().At(f, c));
        if (!have_pending) {
          pending = code;
          have_pending = true;
        } else {
          chunk.AppendU8(static_cast<uint8_t>((pending << 4) | code));
          have_pending = false;
        }
      }
    }
    if (have_pending) chunk.AppendU8(static_cast<uint8_t>(pending << 4));
    out.chunks.push_back(std::move(chunk));
  }
  return out;
}

Result<AudioBlock> AdpcmCodec::DecodeChunk(const EncodedAudio& audio,
                                           int64_t index) const {
  AVDB_RETURN_IF_ERROR(ValidateChunkIndex(audio, index));
  const int channels = audio.raw_type.channels();
  const int frames = FramesInChunk(audio, index);
  const Buffer& chunk = audio.chunks[static_cast<size_t>(index)];
  if (channels < 0 || frames < 0) {
    return Status::DataLoss("adpcm chunk shape is negative");
  }
  // Header: per channel, predictor (u16 LE) + step index (u8); then the
  // codes, two per byte, high nibble first. One length check up front (in
  // 64 bits, so a corrupt shape cannot overflow it) covers every read
  // below; trailing bytes are ignored.
  const int64_t samples = static_cast<int64_t>(frames) * channels;
  const int64_t header_bytes = 3 * static_cast<int64_t>(channels);
  if (static_cast<int64_t>(chunk.size()) < header_bytes + (samples + 1) / 2) {
    return Status::DataLoss("adpcm chunk too short");
  }
  const uint8_t* bytes = chunk.data();
  AudioBlock block(channels, frames);
  const uint8_t* codes = bytes + header_bytes;
  int16_t* out = block.samples().data();
  // One channel at a time, its predictor and step index in locals. Sample
  // k of channel c is nibble c + k * channels of the interleaved codes (high
  // nibble first), so samples 2j and 2j + 1 each keep one nibble position
  // within a byte for the whole channel: the loop takes them in pairs.
  for (int c = 0; c < channels; ++c) {
    const uint8_t* h = bytes + 3 * c;
    if (h[2] > 88) return Status::DataLoss("adpcm step index out of range");
    int predictor = static_cast<int16_t>(h[0] | (h[1] << 8));
    int index = h[2];
    const int even_shift = (c & 1) == 0 ? 4 : 0;
    const int odd_shift = ((c + channels) & 1) == 0 ? 4 : 0;
    const uint8_t* even = codes + (c >> 1);
    const uint8_t* odd = codes + ((c + channels) >> 1);
    int16_t* sample = out + c;
    int f = 0;
    for (; f + 1 < frames; f += 2) {
      sample[0] = AdpcmDecodeStep(&predictor, &index,
                                  (*even >> even_shift) & 0x0F);
      sample[channels] = AdpcmDecodeStep(&predictor, &index,
                                         (*odd >> odd_shift) & 0x0F);
      even += channels;
      odd += channels;
      sample += 2 * channels;
    }
    if (f < frames) {
      sample[0] = AdpcmDecodeStep(&predictor, &index,
                                  (*even >> even_shift) & 0x0F);
    }
  }
  return block;
}

}  // namespace avdb
