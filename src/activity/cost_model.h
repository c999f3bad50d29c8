#ifndef AVDB_ACTIVITY_COST_MODEL_H_
#define AVDB_ACTIVITY_COST_MODEL_H_

#include <cstdint>

namespace avdb {

/// Modeled processing costs of media operations, standing in for the
/// special-purpose hardware of §3.3 (DSPs, JPEG chips, graphics pipelines;
/// DESIGN.md §5). Costs scale with the work unit (pixels, samples) so CIF
/// decode lands near its early-90s real-time budget (~12 ms/frame), and a
/// software-only client is modeled by simply scaling these up.
struct CostModel {
  double decode_ns_per_pixel = 120.0;
  double encode_ns_per_pixel = 250.0;
  double mix_ns_per_pixel = 60.0;
  double render_ns_per_pixel = 100.0;
  double convert_ns_per_pixel = 40.0;
  double audio_decode_ns_per_sample = 300.0;
  /// Audio mixing costs the same on every platform profile.
  static constexpr double kAudioMixNsPerSample = 100.0;

  int64_t VideoDecodeNs(int64_t pixels) const {
    return static_cast<int64_t>(decode_ns_per_pixel * pixels);
  }
  int64_t VideoEncodeNs(int64_t pixels) const {
    return static_cast<int64_t>(encode_ns_per_pixel * pixels);
  }
  int64_t MixNs(int64_t pixels) const {
    return static_cast<int64_t>(mix_ns_per_pixel * pixels);
  }
  int64_t RenderNs(int64_t pixels) const {
    return static_cast<int64_t>(render_ns_per_pixel * pixels);
  }
  int64_t ConvertNs(int64_t pixels) const {
    return static_cast<int64_t>(convert_ns_per_pixel * pixels);
  }
  int64_t AudioDecodeNs(int64_t samples) const {
    return static_cast<int64_t>(audio_decode_ns_per_sample * samples);
  }

  /// A hardware-assisted platform (the database site of Fig. 4): several
  /// times faster than the default software path.
  static CostModel Accelerated() {
    CostModel m;
    m.decode_ns_per_pixel = 30.0;
    m.encode_ns_per_pixel = 60.0;
    m.mix_ns_per_pixel = 15.0;
    m.render_ns_per_pixel = 25.0;
    m.convert_ns_per_pixel = 10.0;
    m.audio_decode_ns_per_sample = 80.0;
    return m;
  }

  /// A weak software-only client (the thin client of Fig. 4 bottom).
  static CostModel SlowClient() {
    CostModel m;
    m.decode_ns_per_pixel = 400.0;
    m.encode_ns_per_pixel = 900.0;
    m.mix_ns_per_pixel = 200.0;
    m.render_ns_per_pixel = 350.0;
    m.convert_ns_per_pixel = 120.0;
    m.audio_decode_ns_per_sample = 900.0;
    return m;
  }
};

}  // namespace avdb

#endif  // AVDB_ACTIVITY_COST_MODEL_H_
