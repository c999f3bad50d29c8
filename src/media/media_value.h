#ifndef AVDB_MEDIA_MEDIA_VALUE_H_
#define AVDB_MEDIA_MEDIA_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "base/rational.h"
#include "base/result.h"
#include "media/media_type.h"
#include "time/interval.h"
#include "time/temporal_transform.h"
#include "time/world_time.h"

namespace avdb {

/// Abstract root of the AV data model (§4.1 of the paper):
///
///   class MediaValue {
///     WorldTime duration; WorldTime start;
///     ObjectTime WorldToObject(WorldTime); WorldTime ObjectToWorld(ObjectTime);
///     Scale(float); Translate(WorldTime); MediaValue Element(WorldTime);
///   }
///
/// A media value is a finite sequence of elements (frames, samples, text
/// records) with a natural element rate, placed on the world-time axis by a
/// temporal transform. `Scale` and `Translate` adjust that placement;
/// `WorldToObject`/`ObjectToWorld` convert between the shared presentation
/// axis and the value's own element numbering.
///
/// Subclasses fix the medium (video/audio/text/image) and the storage
/// representation; applications work against this interface and are
/// "screened from underlying differences in representation" (§4.1).
class MediaValue {
 public:
  virtual ~MediaValue() = default;

  MediaValue(const MediaValue&) = delete;
  MediaValue& operator=(const MediaValue&) = delete;

  /// Media data type governing encoding and interpretation (definition 2).
  const MediaDataType& type() const { return type_; }
  MediaKind kind() const { return type_.kind(); }

  /// Number of elements in the sequence (definition 1's finite |v|).
  virtual int64_t ElementCount() const = 0;

  /// Elements per second on the value's own axis.
  Rational ElementRate() const { return type_.element_rate(); }

  /// World instant of the first element.
  WorldTime start() const {
    return transform_.ToWorld(WorldTime());
  }

  /// Presented duration on the world axis (natural duration / |scale|).
  WorldTime duration() const;

  /// [start, start+duration) on the world axis.
  Interval Extent() const { return Interval(start(), duration()); }

  /// Natural (unscaled) duration: ElementCount / ElementRate.
  WorldTime NaturalDuration() const {
    return WorldTime::FromElements(ElementCount(), ElementRate());
  }

  /// Plays the value at `factor`× natural speed (paper's `Scale`).
  /// A factor of 2 halves the presented duration. Must be nonzero (checked).
  void Scale(Rational factor);

  /// Moves the value `offset` later on the world axis (paper's `Translate`).
  void Translate(WorldTime offset);

  /// Element index presented at world instant `t` (paper's `WorldToObject`).
  /// Clamped to [0, ElementCount-1]; InvalidArgument for empty values or
  /// instants outside the extent.
  Result<ObjectTime> WorldToObject(WorldTime t) const;

  /// World instant at which element `o` begins (paper's `ObjectToWorld`).
  /// InvalidArgument if `o` is outside [0, ElementCount).
  Result<WorldTime> ObjectToWorld(ObjectTime o) const;

  /// Human-readable summary, e.g. "video/raw 352x288x24@30.00, 90 frames".
  virtual std::string Describe() const;

 protected:
  explicit MediaValue(MediaDataType type) : type_(std::move(type)) {}

 private:
  MediaDataType type_;
  TemporalTransform transform_;
};

using MediaValuePtr = std::shared_ptr<MediaValue>;

}  // namespace avdb

#endif  // AVDB_MEDIA_MEDIA_VALUE_H_
