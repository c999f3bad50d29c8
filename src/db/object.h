#ifndef AVDB_DB_OBJECT_H_
#define AVDB_DB_OBJECT_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "base/result.h"
#include "db/schema.h"
#include "media/media_value.h"
#include "time/timeline.h"

namespace avdb {

/// Object identifier. §3.1: "certain requests, such as queries, may return
/// references (i.e., names or identifiers) to AV values rather than the
/// values themselves." Oids are those references.
class Oid {
 public:
  Oid() = default;
  explicit Oid(uint64_t value) : value_(value) {}

  uint64_t value() const { return value_; }

  friend bool operator==(Oid a, Oid b) { return a.value_ == b.value_; }
  friend bool operator!=(Oid a, Oid b) { return !(a == b); }
  friend bool operator<(Oid a, Oid b) { return a.value_ < b.value_; }

 private:
  uint64_t value_ = 0;
};

std::ostream& operator<<(std::ostream& os, Oid oid);

/// Value of a scalar attribute.
using ScalarValue = std::variant<std::string, int64_t>;

std::string ScalarToString(const ScalarValue& v);

/// One stored version of a media attribute: where the serialized value
/// lives (blob name + device are tracked by the database) and its media
/// data type for quality matching.
struct MediaVersion {
  int version = 1;
  std::string blob_name;
  std::string device;
  MediaDataType stored_type;
  int64_t stored_bytes = 0;
};

/// State of one media attribute: full version history, newest last —
/// the version control the multimedia-database survey (§2) calls for.
struct MediaAttrState {
  std::vector<MediaVersion> versions;

  bool HasValue() const { return !versions.empty(); }
  const MediaVersion& Current() const { return versions.back(); }
};

/// Per-instance state of a temporal composite: the per-track media
/// attributes plus the Fig. 1 timeline giving each track's placement.
struct TcompInstance {
  Timeline timeline;
  std::map<std::string, MediaAttrState> tracks;
};

/// A stored database object: an instance of a ClassDef. Holds scalar
/// values, media attribute references, and tcomp instances. The object
/// never embeds AV bytes — media lives in device blobs, exactly the
/// separation the paper's client interface assumes.
class DbObject {
 public:
  DbObject(Oid oid, std::string class_name)
      : oid_(oid), class_name_(std::move(class_name)) {}

  Oid oid() const { return oid_; }
  const std::string& class_name() const { return class_name_; }

  // Scalars -----------------------------------------------------------------
  Status SetScalar(const std::string& attr, ScalarValue value);
  Result<ScalarValue> GetScalar(const std::string& attr) const;
  const std::map<std::string, ScalarValue>& scalars() const {
    return scalars_;
  }

  // Media attributes ----------------------------------------------------------
  MediaAttrState& MediaAttr(const std::string& attr) {
    return media_[attr];
  }
  Result<const MediaAttrState*> FindMediaAttr(const std::string& attr) const;
  const std::map<std::string, MediaAttrState>& media() const { return media_; }

  // Temporal composites -------------------------------------------------------
  TcompInstance& Tcomp(const std::string& name) { return tcomps_[name]; }
  Result<const TcompInstance*> FindTcomp(const std::string& name) const;
  const std::map<std::string, TcompInstance>& tcomps() const {
    return tcomps_;
  }

 private:
  Oid oid_;
  std::string class_name_;
  std::map<std::string, ScalarValue> scalars_;
  std::map<std::string, MediaAttrState> media_;
  std::map<std::string, TcompInstance> tcomps_;
};

}  // namespace avdb

#endif  // AVDB_DB_OBJECT_H_
