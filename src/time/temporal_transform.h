#ifndef AVDB_TIME_TEMPORAL_TRANSFORM_H_
#define AVDB_TIME_TEMPORAL_TRANSFORM_H_

#include <ostream>
#include <string>

#include "base/rational.h"
#include "time/world_time.h"

namespace avdb {

/// Affine mapping between world time and a media value's local time axis,
/// implementing the `Scale`/`Translate` methods of the paper's `MediaValue`
/// (§4.1). A value placed on the world axis at `translate` and played at
/// `scale`× its natural speed maps world instant w to local time
/// (w - translate) · scale.
///
/// Composition: `Then` chains transforms; `Inverted` reverses the mapping.
class TemporalTransform {
 public:
  /// Identity transform (scale 1, translate 0).
  TemporalTransform() : scale_(1) {}
  TemporalTransform(Rational scale, WorldTime translate)
      : scale_(scale), translate_(translate) {}

  static TemporalTransform Scaling(Rational scale) {
    return TemporalTransform(scale, WorldTime());
  }
  static TemporalTransform Translation(WorldTime offset) {
    return TemporalTransform(Rational(1), offset);
  }

  Rational scale() const { return scale_; }
  WorldTime translate() const { return translate_; }

  /// Applies a further scaling (about the local origin).
  TemporalTransform Scaled(Rational factor) const {
    return TemporalTransform(scale_ * factor, translate_);
  }
  /// Applies a further translation on the world axis.
  TemporalTransform Translated(WorldTime offset) const {
    return TemporalTransform(scale_, translate_ + offset);
  }

  /// World instant -> local time within the value.
  WorldTime ToLocal(WorldTime world) const {
    return (world - translate_) * scale_;
  }
  /// Local time within the value -> world instant. Requires nonzero scale.
  WorldTime ToWorld(WorldTime local) const {
    return local / scale_ + translate_;
  }

  /// Local element index at `world`, given the value's natural element rate.
  /// This is the paper's `WorldToObject`.
  ObjectTime WorldToObject(WorldTime world, Rational element_rate) const {
    const Rational local_seconds = ToLocal(world).seconds();
    return ObjectTime((local_seconds * element_rate).Floor());
  }
  /// World instant at which element `object` begins. The paper's
  /// `ObjectToWorld`.
  WorldTime ObjectToWorld(ObjectTime object, Rational element_rate) const {
    return ToWorld(WorldTime(Rational(object.ticks()) / element_rate));
  }

  /// Transform equivalent to applying `this`, then `next`, on local axes:
  /// result.ToLocal(w) == next.ToLocal-composed view of this.ToLocal(w).
  TemporalTransform Then(const TemporalTransform& next) const;

  /// Inverse mapping; requires nonzero scale (checked).
  TemporalTransform Inverted() const;

  friend bool operator==(const TemporalTransform& a,
                         const TemporalTransform& b) {
    return a.scale_ == b.scale_ && a.translate_ == b.translate_;
  }

  std::string ToString() const;

 private:
  Rational scale_;       // local seconds per world second
  WorldTime translate_;  // world instant of local zero
};

std::ostream& operator<<(std::ostream& os, const TemporalTransform& t);

}  // namespace avdb

#endif  // AVDB_TIME_TEMPORAL_TRANSFORM_H_
