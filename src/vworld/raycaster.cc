#include "vworld/raycaster.h"

#include <cmath>

namespace avdb {

Raycaster::Hit Raycaster::CastRay(const Pose& pose, double ray_angle) const {
  // Standard DDA grid traversal.
  const double dx = std::cos(ray_angle);
  const double dy = std::sin(ray_angle);
  int map_x = static_cast<int>(std::floor(pose.x));
  int map_y = static_cast<int>(std::floor(pose.y));
  const double delta_x = dx == 0 ? 1e30 : std::abs(1.0 / dx);
  const double delta_y = dy == 0 ? 1e30 : std::abs(1.0 / dy);
  int step_x;
  int step_y;
  double side_x;
  double side_y;
  if (dx < 0) {
    step_x = -1;
    side_x = (pose.x - map_x) * delta_x;
  } else {
    step_x = 1;
    side_x = (map_x + 1.0 - pose.x) * delta_x;
  }
  if (dy < 0) {
    step_y = -1;
    side_y = (pose.y - map_y) * delta_y;
  } else {
    step_y = 1;
    side_y = (map_y + 1.0 - pose.y) * delta_y;
  }

  Hit hit;
  bool side = false;
  for (int iter = 0; iter < 1024; ++iter) {
    if (side_x < side_y) {
      side_x += delta_x;
      map_x += step_x;
      side = false;
    } else {
      side_y += delta_y;
      map_y += step_y;
      side = true;
    }
    const CellKind kind = scene_->At(map_x, map_y);
    if (kind != CellKind::kEmpty) {
      const double distance =
          side ? side_y - delta_y : side_x - delta_x;
      hit.distance = distance < 1e-6 ? 1e-6 : distance;
      hit.kind = kind;
      hit.side = side;
      const double hit_coord = side ? pose.x + hit.distance * dx
                                    : pose.y + hit.distance * dy;
      hit.texture_u = hit_coord - std::floor(hit_coord);
      return hit;
    }
    if ((side ? side_y : side_x) > kMaxDistance) break;
  }
  hit.distance = kMaxDistance;
  hit.kind = CellKind::kEmpty;
  return hit;
}

VideoFrame Raycaster::Render(const Pose& pose,
                             const VideoFrame* video_frame) const {
  VideoFrame frame(options_.width, options_.height, 8);
  const int w = options_.width;
  const int h = options_.height;
  for (int col = 0; col < w; ++col) {
    const double ray_angle =
        pose.angle + kFov * (static_cast<double>(col) / w - 0.5);
    const Hit hit = CastRay(pose, ray_angle);
    // Correct fish-eye: project distance onto the view axis.
    const double corrected =
        hit.distance * std::cos(ray_angle - pose.angle);
    const int wall_height =
        hit.kind == CellKind::kEmpty
            ? 0
            : static_cast<int>(h / (corrected < 0.1 ? 0.1 : corrected));
    const int top = std::max(0, (h - wall_height) / 2);
    const int bottom = std::min(h, (h + wall_height) / 2);

    for (int y = 0; y < h; ++y) {
      uint8_t shade;
      if (y < top) {
        shade = 40;  // ceiling
      } else if (y >= bottom) {
        shade = 70;  // floor
      } else {
        const double v =
            wall_height == 0
                ? 0
                : static_cast<double>(y - (h - wall_height) / 2) / wall_height;
        if (hit.kind == CellKind::kVideoWall && video_frame != nullptr &&
            video_frame->width() > 0) {
          // Project the current video frame onto the wall face.
          int sx = static_cast<int>(hit.texture_u * video_frame->width());
          int sy = static_cast<int>(v * video_frame->height());
          if (sx >= video_frame->width()) sx = video_frame->width() - 1;
          if (sy >= video_frame->height()) sy = video_frame->height() - 1;
          if (sx < 0) sx = 0;
          if (sy < 0) sy = 0;
          shade = video_frame->At(sx, sy, 0);
        } else {
          // Procedural brick-ish texture.
          const int tex =
              (static_cast<int>(hit.texture_u * 16) % 2 == 0) ? 180 : 140;
          shade = static_cast<uint8_t>(tex - (static_cast<int>(v * 8) % 2) * 20);
        }
        // Distance shading; y-faces slightly darker for depth cue.
        double attenuation = 1.0 / (1.0 + corrected * 0.15);
        if (hit.side) attenuation *= 0.8;
        shade = static_cast<uint8_t>(shade * attenuation);
      }
      frame.Set(col, y, shade);
    }
  }
  return frame;
}

}  // namespace avdb
