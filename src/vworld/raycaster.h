#ifndef AVDB_VWORLD_RAYCASTER_H_
#define AVDB_VWORLD_RAYCASTER_H_

#include "media/frame.h"
#include "vworld/scene.h"

namespace avdb {

/// Software renderer for the virtual-world scenario: grid raycasting (DDA)
/// with distance shading, procedural wall texture, and video projection —
/// video-wall columns sample the current video frame, which is how "video
/// imagery stored in the database is incorporated in the scene" (§4.3).
/// Deterministic, pure function of (scene, pose, video frame).
class Raycaster {
 public:
  struct Options {
    int width = 160;
    int height = 120;
  };
  /// Horizontal field of view, radians.
  static constexpr double kFov = 1.15;
  /// Ray cutoff.
  static constexpr double kMaxDistance = 32.0;

  Raycaster(const Scene* scene, Options options)
      : scene_(scene), options_(options) {}

  const Options& options() const { return options_; }

  /// Renders one 8-bit luma frame from `pose`. `video_frame` (may be null)
  /// textures video walls; its geometry is arbitrary (sampled
  /// proportionally).
  VideoFrame Render(const Pose& pose, const VideoFrame* video_frame) const;

 private:
  struct Hit {
    double distance = 0;
    CellKind kind = CellKind::kEmpty;
    double texture_u = 0;  ///< horizontal texture coordinate in [0,1)
    bool side = false;     ///< true when the ray hit a y-axis face
  };

  Hit CastRay(const Pose& pose, double ray_angle) const;

  const Scene* scene_;
  Options options_;
};

}  // namespace avdb

#endif  // AVDB_VWORLD_RAYCASTER_H_
