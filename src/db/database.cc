#include "db/database.h"

#include <algorithm>

#include "base/logging.h"
#include "codec/scalable_codec.h"
#include "storage/value_serializer.h"

namespace avdb {

namespace {

/// Buffer memory each admitted stream demands from the "db.buffers" pool.
constexpr int64_t kBufferBytesPerStream = 512 * 1024;

/// Bytes/second a stored representation demands from its device when
/// streamed at its natural rate. Bound video/audio values know their own
/// stored footprint (e.g. a scalable layer view reads fewer bytes than the
/// blob holds); other kinds fall back to the version record.
double StoredRate(const MediaVersion& version, const MediaValue& value) {
  const double seconds = value.NaturalDuration().ToSecondsF();
  if (seconds <= 0) return 0;
  int64_t bytes = version.stored_bytes;
  if (const auto* video = dynamic_cast<const VideoValue*>(&value)) {
    bytes = video->StoredBytes();
  } else if (const auto* audio = dynamic_cast<const AudioValue*>(&value)) {
    bytes = audio->StoredBytes();
  }
  return static_cast<double>(bytes) / seconds;
}

Status CheckMediaType(AttrType declared, const MediaValue& value) {
  switch (declared) {
    case AttrType::kVideo:
      if (value.kind() != MediaKind::kVideo) {
        return Status::InvalidArgument("attribute expects video");
      }
      return Status::OK();
    case AttrType::kAudio:
      if (value.kind() != MediaKind::kAudio) {
        return Status::InvalidArgument("attribute expects audio");
      }
      return Status::OK();
    case AttrType::kText:
      if (value.kind() != MediaKind::kText) {
        return Status::InvalidArgument("attribute expects a text stream");
      }
      return Status::OK();
    default:
      return Status::InvalidArgument("attribute is not media-typed");
  }
}

Status CheckQuality(const std::optional<VideoQuality>& vq,
                    const std::optional<AudioQuality>& aq,
                    const MediaValue& value) {
  if (vq.has_value() && !vq->SatisfiableBy(value.type())) {
    return Status::InvalidArgument(
        "stored value " + value.type().ToString() +
        " cannot satisfy declared quality " + vq->ToString());
  }
  if (aq.has_value() && !AudioQualitySatisfiableBy(*aq, value.type())) {
    return Status::InvalidArgument(
        "stored value " + value.type().ToString() +
        " cannot satisfy declared quality " +
        std::string(AudioQualityName(*aq)));
  }
  return Status::OK();
}

}  // namespace

AvDatabase::AvDatabase(AvDatabaseConfig config)
    : config_(config),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      tracer_(std::make_unique<obs::Tracer>()),
      graph_(ActivityEnv{&engine_, nullptr}),
      devices_(config.cache_bytes) {
  tracer_->SetClock([engine = &engine_] { return engine->now_ns(); });
  admission_.BindObservability(metrics_.get(), tracer_.get());
  engine_.BindObservability(metrics_.get());
  if (config_.jitter_seed != 0) {
    jitter_ = std::make_unique<JitterModel>(
        JitterModel::Workstation(config_.jitter_seed));
    jitter_->BindTo(metrics_.get());
  }
  graph_ = ActivityGraph(env());
  AVDB_CHECK(admission_
                 .RegisterPool("db.decoders",
                               static_cast<double>(config_.decoder_units))
                 .ok());
  AVDB_CHECK(admission_
                 .RegisterPool("db.buffers",
                               static_cast<double>(config_.buffer_pool_bytes))
                 .ok());
}

// --- platform ----------------------------------------------------------------

Result<BlockDevice*> AvDatabase::AddDevice(const std::string& name,
                                           DeviceProfile profile) {
  const bool exclusive = profile.exclusive;
  const int64_t bandwidth = profile.transfer_bytes_per_sec;
  auto device = devices_.CreateDevice(name, std::move(profile));
  if (!device.ok()) return device.status();
  auto store = devices_.GetStore(name);
  if (store.ok()) {
    store.value()->BindObservability(metrics_.get(), tracer_.get());
  }
  AVDB_RETURN_IF_ERROR(admission_.RegisterPool(
      name + ".bandwidth", static_cast<double>(bandwidth)));
  if (exclusive) {
    AVDB_RETURN_IF_ERROR(admission_.RegisterPool(name + ".arm", 1));
  }
  device_queues_[name] = std::make_unique<ServiceQueue>(name + ".queue");
  return device;
}

Result<ChannelPtr> AvDatabase::AddChannel(const std::string& name,
                                          Channel::Profile profile) {
  if (channels_.count(name) > 0) {
    return Status::AlreadyExists("channel exists: " + name);
  }
  // Channels keep their own reservation ledger (Channel::ReserveBandwidth);
  // no admission pool is duplicated for them.
  auto channel = std::make_shared<Channel>(name, profile);
  channel->BindObservability(metrics_.get(), tracer_.get());
  channels_[name] = channel;
  return channel;
}

Result<ChannelPtr> AvDatabase::GetChannel(const std::string& name) {
  auto it = channels_.find(name);
  if (it == channels_.end()) return Status::NotFound("channel: " + name);
  return it->second;
}

Result<ServiceQueue*> AvDatabase::DeviceQueue(const std::string& device_name) {
  auto it = device_queues_.find(device_name);
  if (it == device_queues_.end()) {
    return Status::NotFound("device queue: " + device_name);
  }
  return it->second.get();
}

// --- schema --------------------------------------------------------------------

Status AvDatabase::DefineClass(ClassDef class_def) {
  if (class_def.name().empty()) {
    return Status::InvalidArgument("class needs a name");
  }
  if (classes_.count(class_def.name()) > 0) {
    return Status::AlreadyExists("class exists: " + class_def.name());
  }
  const std::string name = class_def.name();
  classes_.emplace(name, std::move(class_def));
  extents_[name];
  return Status::OK();
}

Result<const ClassDef*> AvDatabase::GetClass(const std::string& name) const {
  auto it = classes_.find(name);
  if (it == classes_.end()) return Status::NotFound("class: " + name);
  return &it->second;
}

// --- objects --------------------------------------------------------------------

Result<Oid> AvDatabase::NewObject(const std::string& class_name) {
  AVDB_RETURN_IF_ERROR(GetClass(class_name).status());
  const Oid oid(next_oid_++);
  objects_[oid] = std::make_unique<DbObject>(oid, class_name);
  extents_[class_name].push_back(oid);
  return oid;
}

Result<DbObject*> AvDatabase::GetObject(Oid oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(oid.value()));
  }
  return it->second.get();
}

Result<const DbObject*> AvDatabase::GetObject(Oid oid) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(oid.value()));
  }
  return it->second.get();
}

void AvDatabase::UpdateIndex(const std::string& class_name,
                             const std::string& attr,
                             const DbObject& object) {
  const std::string key = class_name + "." + attr;
  auto& idx = index_[key];
  // Remove stale entries for this oid, then insert the new value.
  for (auto it = idx.begin(); it != idx.end();) {
    if (it->second == object.oid()) {
      it = idx.erase(it);
    } else {
      ++it;
    }
  }
  auto value = object.GetScalar(attr);
  if (value.ok()) {
    idx.emplace(ScalarToString(value.value()), object.oid());
  }
}

Status AvDatabase::SetScalar(Oid oid, const std::string& attr,
                             ScalarValue value) {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto class_def = GetClass(object.value()->class_name());
  if (!class_def.ok()) return class_def.status();
  const AttributeDef* attr_def = class_def.value()->FindAttribute(attr);
  if (attr_def == nullptr) {
    return Status::NotFound("attribute " + object.value()->class_name() +
                            "." + attr);
  }
  if (IsMediaAttrType(attr_def->type)) {
    return Status::InvalidArgument("attribute " + attr +
                                   " is media-typed; use SetMediaAttribute");
  }
  if (attr_def->type == AttrType::kInt &&
      !std::holds_alternative<int64_t>(value)) {
    return Status::InvalidArgument("attribute " + attr + " expects an Int");
  }
  if (attr_def->type != AttrType::kInt &&
      !std::holds_alternative<std::string>(value)) {
    return Status::InvalidArgument("attribute " + attr + " expects a string");
  }
  AVDB_RETURN_IF_ERROR(object.value()->SetScalar(attr, std::move(value)));
  UpdateIndex(object.value()->class_name(), attr, *object.value());
  return Status::OK();
}

Result<ScalarValue> AvDatabase::GetScalar(Oid oid,
                                          const std::string& attr) const {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  return object.value()->GetScalar(attr);
}

// --- media -----------------------------------------------------------------------

std::string AvDatabase::BlobName(Oid oid, const std::string& attr_path,
                                 int version) {
  return "o" + std::to_string(oid.value()) + "." + attr_path + ".v" +
         std::to_string(version);
}

Status AvDatabase::StoreVersion(Oid oid, const std::string& attr_path,
                                const MediaValue& value,
                                const std::string& device_name,
                                MediaAttrState* state) {
  auto blob = value_serializer::Serialize(value);
  if (!blob.ok()) return blob.status();
  const int version =
      state->versions.empty() ? 1 : state->Current().version + 1;
  const std::string blob_name = BlobName(oid, attr_path, version);
  auto stored = devices_.Store(blob_name, blob.value(), device_name);
  if (!stored.ok()) return stored.status();
  MediaVersion v;
  v.version = version;
  v.blob_name = blob_name;
  v.device = device_name;
  v.stored_type = value.type();
  v.stored_bytes = static_cast<int64_t>(blob.value().size());
  state->versions.push_back(std::move(v));
  return Status::OK();
}

Status AvDatabase::SetMediaAttribute(Oid oid, const std::string& attr,
                                     const MediaValue& value,
                                     const std::string& device_name) {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto class_def = GetClass(object.value()->class_name());
  if (!class_def.ok()) return class_def.status();
  const AttributeDef* attr_def = class_def.value()->FindAttribute(attr);
  if (attr_def == nullptr) {
    return Status::NotFound("attribute " + object.value()->class_name() +
                            "." + attr);
  }
  if (!IsMediaAttrType(attr_def->type)) {
    return Status::InvalidArgument("attribute " + attr + " is scalar");
  }
  AVDB_RETURN_IF_ERROR(CheckMediaType(attr_def->type, value));
  AVDB_RETURN_IF_ERROR(
      CheckQuality(attr_def->video_quality, attr_def->audio_quality, value));
  return StoreVersion(oid, attr, value, device_name,
                      &object.value()->MediaAttr(attr));
}

Result<MediaValuePtr> AvDatabase::LoadMediaAttribute(Oid oid,
                                                     const std::string& attr,
                                                     int version) {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto resolved = ResolveMediaPath(*object.value(), attr);
  if (!resolved.ok()) return resolved.status();
  const MediaAttrState& state = *resolved.value().state;
  const MediaVersion* chosen = nullptr;
  if (version < 0) {
    chosen = &state.Current();
  } else {
    for (const auto& v : state.versions) {
      if (v.version == version) chosen = &v;
    }
  }
  if (chosen == nullptr) {
    return Status::NotFound("version " + std::to_string(version) + " of " +
                            attr);
  }
  auto fetched = devices_.Fetch(chosen->blob_name);
  if (!fetched.ok()) return fetched.status();
  return value_serializer::Deserialize(fetched.value().data);
}

Result<std::vector<MediaVersion>> AvDatabase::MediaHistory(
    Oid oid, const std::string& attr) const {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto resolved = ResolveMediaPath(*object.value(), attr);
  if (!resolved.ok()) return resolved.status();
  return resolved.value().state->versions;
}

Result<AvDatabase::ResolvedAttr> AvDatabase::ResolveMediaPath(
    const DbObject& object, const std::string& attr_path) const {
  auto class_def = GetClass(object.class_name());
  if (!class_def.ok()) return class_def.status();

  const size_t dot = attr_path.find('.');
  if (dot == std::string::npos) {
    const AttributeDef* attr_def = class_def.value()->FindAttribute(attr_path);
    if (attr_def == nullptr || !IsMediaAttrType(attr_def->type)) {
      return Status::NotFound("media attribute " + object.class_name() + "." +
                              attr_path);
    }
    auto state = object.FindMediaAttr(attr_path);
    if (!state.ok()) return state.status();
    return ResolvedAttr{state.value(), attr_def->type, WorldTime()};
  }

  const std::string tcomp_name = attr_path.substr(0, dot);
  const std::string track_name = attr_path.substr(dot + 1);
  const TcompDef* tcomp_def = class_def.value()->FindTcomp(tcomp_name);
  if (tcomp_def == nullptr) {
    return Status::NotFound("tcomp " + object.class_name() + "." + tcomp_name);
  }
  const TrackDef* track_def = tcomp_def->FindTrack(track_name);
  if (track_def == nullptr) {
    return Status::NotFound("track " + attr_path);
  }
  auto instance = object.FindTcomp(tcomp_name);
  if (!instance.ok()) return instance.status();
  auto track_it = instance.value()->tracks.find(track_name);
  if (track_it == instance.value()->tracks.end() ||
      !track_it->second.HasValue()) {
    return Status::NotFound("track " + attr_path + " unset on object");
  }
  WorldTime offset;
  auto interval = instance.value()->timeline.TrackInterval(track_name);
  if (interval.ok()) {
    const WorldTime span_start = instance.value()->timeline.Span().start();
    offset = interval.value().start() - span_start;
  }
  return ResolvedAttr{&track_it->second, track_def->type, offset};
}

Result<std::string> AvDatabase::WhereIsAttribute(
    Oid oid, const std::string& attr_path) const {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto resolved = ResolveMediaPath(*object.value(), attr_path);
  if (!resolved.ok()) return resolved.status();
  return resolved.value().state->Current().device;
}

Result<WorldTime> AvDatabase::MoveAttribute(Oid oid,
                                            const std::string& attr_path,
                                            const std::string& to_device) {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto resolved = ResolveMediaPath(*object.value(), attr_path);
  if (!resolved.ok()) return resolved.status();
  // A stream holding a shared lock does not block the move in this model;
  // real systems would require an exclusive latch on the blob.
  const MediaVersion current = resolved.value().state->Current();
  const std::string temp_name = current.blob_name + ".moving";
  auto copied = devices_.Copy(current.blob_name, to_device, temp_name);
  if (!copied.ok()) return copied.status();
  AVDB_RETURN_IF_ERROR(devices_.Delete(current.blob_name));
  // Re-store under the canonical name on the target device.
  auto fetched = devices_.Fetch(temp_name);
  if (!fetched.ok()) return fetched.status();
  auto stored =
      devices_.Store(current.blob_name, fetched.value().data, to_device);
  if (!stored.ok()) return stored.status();
  AVDB_RETURN_IF_ERROR(devices_.Delete(temp_name));
  // Update the version record in place.
  auto* mutable_state = const_cast<MediaAttrState*>(resolved.value().state);
  mutable_state->versions.back().device = to_device;
  return copied.value() + stored.value();
}

// --- tcomp ------------------------------------------------------------------------

Status AvDatabase::SetTcompTrack(Oid oid, const std::string& tcomp,
                                 const std::string& track,
                                 const MediaValue& value,
                                 const std::string& device_name,
                                 WorldTime start, WorldTime duration) {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto class_def = GetClass(object.value()->class_name());
  if (!class_def.ok()) return class_def.status();
  const TcompDef* tcomp_def = class_def.value()->FindTcomp(tcomp);
  if (tcomp_def == nullptr) {
    return Status::NotFound("tcomp " + object.value()->class_name() + "." +
                            tcomp);
  }
  const TrackDef* track_def = tcomp_def->FindTrack(track);
  if (track_def == nullptr) {
    return Status::NotFound("track " + tcomp + "." + track);
  }
  AVDB_RETURN_IF_ERROR(CheckMediaType(track_def->type, value));
  AVDB_RETURN_IF_ERROR(CheckQuality(track_def->video_quality,
                                    track_def->audio_quality, value));
  TcompInstance& instance = object.value()->Tcomp(tcomp);
  AVDB_RETURN_IF_ERROR(StoreVersion(oid, tcomp + "." + track, value,
                                    device_name, &instance.tracks[track]));
  if (instance.timeline.HasTrack(track)) {
    AVDB_RETURN_IF_ERROR(instance.timeline.MoveTrack(track, start, duration));
  } else {
    AVDB_RETURN_IF_ERROR(instance.timeline.AddTrack(track, start, duration));
  }
  return Status::OK();
}

Result<const TcompInstance*> AvDatabase::GetTcomp(
    Oid oid, const std::string& tcomp) const {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  return object.value()->FindTcomp(tcomp);
}

// --- query -------------------------------------------------------------------------

Result<std::vector<Oid>> AvDatabase::Select(const std::string& class_name,
                                            const std::string& where) const {
  auto predicate = ParsePredicate(where);
  if (!predicate.ok()) return predicate.status();
  return Select(class_name, predicate.value());
}

Result<std::vector<Oid>> AvDatabase::Select(
    const std::string& class_name, const PredicatePtr& predicate) const {
  AVDB_RETURN_IF_ERROR(GetClass(class_name).status());
  auto extent_it = extents_.find(class_name);
  std::vector<Oid> results;
  if (extent_it == extents_.end()) return results;

  // Equality-pinned predicates prefilter through the index.
  std::string pin_attr;
  ScalarValue pin_value;
  if (predicate->EqualityPin(&pin_attr, &pin_value)) {
    auto idx_it = index_.find(class_name + "." + pin_attr);
    if (idx_it != index_.end()) {
      auto [begin, end] = idx_it->second.equal_range(
          ScalarToString(pin_value));
      for (auto it = begin; it != end; ++it) {
        const auto object = GetObject(it->second);
        if (object.ok() && predicate->Matches(*object.value())) {
          results.push_back(it->second);
        }
      }
      std::sort(results.begin(), results.end());
      return results;
    }
  }

  for (Oid oid : extent_it->second) {
    const auto object = GetObject(oid);
    if (object.ok() && predicate->Matches(*object.value())) {
      results.push_back(oid);
    }
  }
  return results;
}

// --- activity mediation ---------------------------------------------------------------

Result<MediaActivityPtr> AvDatabase::MakeSource(
    const std::string& name, Oid oid, const std::string& attr_path,
    const ResolvedAttr& resolved, std::vector<PooledDemand>* demands,
    const VideoQuality* quality) {
  const MediaVersion& current = resolved.state->Current();
  auto store = devices_.GetStore(current.device);
  if (!store.ok()) return store.status();
  auto queue = DeviceQueue(current.device);
  if (!queue.ok()) return queue.status();
  auto value = LoadMediaAttribute(oid, attr_path);
  if (!value.ok()) return value.status();

  // §4.1 quality negotiation: the database maps a quality factor to a
  // representation — here, a layer subset of a scalable stream.
  if (quality != nullptr) {
    if (!quality->SatisfiableBy(current.stored_type)) {
      return Status::InvalidArgument(
          "stored " + current.stored_type.ToString() +
          " cannot satisfy requested quality " + quality->ToString());
    }
    auto encoded_value =
        std::dynamic_pointer_cast<EncodedVideoValue>(value.value());
    if (encoded_value != nullptr &&
        encoded_value->encoded().family == EncodingFamily::kScalable) {
      const int layers = ScalableCodec::LayersForResolution(
          current.stored_type, quality->width(), quality->height());
      auto view = ScalableVideoView::Create(encoded_value, layers);
      if (!view.ok()) return view.status();
      value = MediaValuePtr(view.value());
    }
  }

  SourceOptions options;
  options.start_offset = resolved.start_offset;
  options.fetcher = FetchFrom(store.value());
  options.blob_name = current.blob_name;
  options.device_queue = queue.value();
  options.costs = config_.costs;

  // Admission demands: device bandwidth, one buffer share, a decoder unit
  // for compressed representations, the arm of exclusive devices.
  //
  // Device bandwidth is charged conservatively: the stored data rate plus
  // a seek surcharge — concurrent streams interleave on the arm, so every
  // page-granular fetch repositions. The surcharge converts that seek time
  // into the bandwidth it forgoes, keeping the admission test consistent
  // with what the device model actually serves.
  const double stored_rate = StoredRate(current, *value.value());
  double seek_surcharge = 0;
  {
    auto holder = devices_.GetDevice(current.device);
    if (holder.ok()) {
      const DeviceProfile& profile = holder.value()->profile();
      const double seek_s = profile.seek_time.ToSecondsF() +
                            profile.rotational_latency.ToSecondsF();
      const double fetches_per_s =
          stored_rate / static_cast<double>(MediaStore::kCachePageBytes);
      seek_surcharge = fetches_per_s * seek_s *
                       static_cast<double>(profile.transfer_bytes_per_sec);
    }
  }
  demands->push_back({admission_.FindPool(current.device + ".bandwidth"),
                      stored_rate + seek_surcharge});
  demands->push_back({admission_.FindPool("db.buffers"),
                      static_cast<double>(kBufferBytesPerStream)});
  if (current.stored_type.IsCompressed()) {
    demands->push_back({admission_.FindPool("db.decoders"), 1});
  }
  auto device = devices_.GetDevice(current.device);
  if (device.ok() && device.value()->profile().exclusive) {
    demands->push_back({admission_.FindPool(current.device + ".arm"), 1});
  }

  MediaActivityPtr source;
  switch (resolved.type) {
    case AttrType::kVideo: {
      auto activity = VideoSource::Create(name, ActivityLocation::kDatabase,
                                          env(), options);
      AVDB_RETURN_IF_ERROR(
          activity->Bind(value.value(), VideoSource::kPortOut));
      source = activity;
      break;
    }
    case AttrType::kAudio: {
      auto activity = AudioSource::Create(name, ActivityLocation::kDatabase,
                                          env(), options);
      AVDB_RETURN_IF_ERROR(
          activity->Bind(value.value(), AudioSource::kPortOut));
      source = activity;
      break;
    }
    case AttrType::kText: {
      auto activity = TextSource::Create(name, ActivityLocation::kDatabase,
                                         env(), options);
      AVDB_RETURN_IF_ERROR(
          activity->Bind(value.value(), TextSource::kPortOut));
      source = activity;
      break;
    }
    default:
      return Status::InvalidArgument("unsupported media type for source");
  }
  return source;
}

Result<StreamHandle> AvDatabase::FinishStream(
    const std::string& session, Oid oid, MediaActivityPtr source,
    std::vector<PooledDemand> demands) {
  auto ticket = admission_.Admit(demands);
  if (!ticket.ok()) return ticket.status();
  Status lock_status = locks_.Acquire(oid, LockMode::kShared, session);
  if (!lock_status.ok()) {
    admission_.Release(&ticket.value());
    return lock_status;
  }
  AVDB_RETURN_IF_ERROR(graph_.Add(source));

  StreamState state;
  state.session = session;
  state.oid = oid;
  state.source = source;
  state.ticket = std::move(ticket).value();
  const int64_t id = next_stream_id_++;
  streams_[id] = std::move(state);

  StreamHandle handle;
  handle.id = id;
  handle.source = source.get();
  return handle;
}

Result<StreamHandle> AvDatabase::NewSourceFor(const std::string& session,
                                              Oid oid,
                                              const std::string& attr_path) {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto resolved = ResolveMediaPath(*object.value(), attr_path);
  if (!resolved.ok()) return resolved.status();

  const std::string name = "dbSource" + std::to_string(next_activity_serial_++);
  std::vector<PooledDemand> demands;
  auto source = MakeSource(name, oid, attr_path, resolved.value(), &demands);
  if (!source.ok()) return source.status();
  return FinishStream(session, oid, std::move(source).value(),
                      std::move(demands));
}

Result<StreamHandle> AvDatabase::NewSourceFor(const std::string& session,
                                              Oid oid,
                                              const std::string& attr_path,
                                              const VideoQuality& quality) {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto resolved = ResolveMediaPath(*object.value(), attr_path);
  if (!resolved.ok()) return resolved.status();
  if (resolved.value().type != AttrType::kVideo) {
    return Status::InvalidArgument(
        "video quality factor on a non-video attribute: " + attr_path);
  }
  const std::string name = "dbSource" + std::to_string(next_activity_serial_++);
  std::vector<PooledDemand> demands;
  auto source =
      MakeSource(name, oid, attr_path, resolved.value(), &demands, &quality);
  if (!source.ok()) return source.status();
  return FinishStream(session, oid, std::move(source).value(),
                      std::move(demands));
}

Result<std::shared_ptr<VideoWriter>> AvDatabase::NewRecorderFor(
    const std::string& session, Oid oid, const std::string& attr,
    const std::string& device, MediaDataType video_type) {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto class_def = GetClass(object.value()->class_name());
  if (!class_def.ok()) return class_def.status();
  const AttributeDef* attr_def = class_def.value()->FindAttribute(attr);
  if (attr_def == nullptr || attr_def->type != AttrType::kVideo) {
    return Status::InvalidArgument("recorder needs a video attribute: " +
                                   attr);
  }
  AVDB_RETURN_IF_ERROR(devices_.GetDevice(device).status());
  // Recording mutates the object: exclusive lock for the session.
  AVDB_RETURN_IF_ERROR(locks_.Acquire(oid, LockMode::kExclusive, session));

  auto writer = VideoWriter::Create(
      "dbRecorder" + std::to_string(next_activity_serial_++),
      ActivityLocation::kDatabase, env(), std::move(video_type));
  // On end of stream the captured frames become the next version.
  const Status caught = writer->Catch(
      VideoWriter::kDone, [this, oid, attr, device,
                           writer_raw = writer.get()](const ActivityEvent&) {
        const Status stored = SetMediaAttribute(
            oid, attr, *writer_raw->captured(), device);
        if (!stored.ok()) {
          AVDB_LOG(Error) << "recorder commit failed: " << stored;
        }
      });
  AVDB_RETURN_IF_ERROR(caught);
  AVDB_RETURN_IF_ERROR(graph_.Add(writer));
  return writer;
}

Result<StreamHandle> AvDatabase::NewMultiSourceFor(const std::string& session,
                                                   Oid oid,
                                                   const std::string& tcomp,
                                                   SyncController* sink_sync) {
  auto object = GetObject(oid);
  if (!object.ok()) return object.status();
  auto instance = object.value()->FindTcomp(tcomp);
  if (!instance.ok()) return instance.status();

  auto composite = MultiSource::Create(
      "dbMultiSource" + std::to_string(next_activity_serial_++),
      ActivityLocation::kDatabase, env());

  std::vector<PooledDemand> demands;
  bool first = true;
  for (const auto& [track, state] : instance.value()->tracks) {
    if (!state.HasValue()) continue;
    const std::string path = tcomp + "." + track;
    auto resolved = ResolveMediaPath(*object.value(), path);
    if (!resolved.ok()) return resolved.status();
    auto child = MakeSource(composite->name() + "." + track, oid, path,
                            resolved.value(), &demands);
    if (!child.ok()) return child.status();
    // Audio is the conventional master; otherwise the first track.
    const bool master =
        resolved.value().type == AttrType::kAudio && first;
    AVDB_RETURN_IF_ERROR(
        composite->InstallSynced(std::move(child).value(), track, master));
    first = false;
  }
  if (composite->children().empty()) {
    return Status::FailedPrecondition("tcomp has no stored tracks: " + tcomp);
  }
  if (sink_sync != nullptr) {
    AVDB_RETURN_IF_ERROR(composite->UseSyncDomain(sink_sync));
  }
  return FinishStream(session, oid, composite, std::move(demands));
}

Result<Connection*> AvDatabase::NewConnection(MediaActivity* from,
                                              const std::string& out_port,
                                              MediaActivity* to,
                                              const std::string& in_port,
                                              const std::string& channel_name) {
  ChannelPtr channel;
  int64_t reserved = 0;
  if (!channel_name.empty()) {
    auto found = GetChannel(channel_name);
    if (!found.ok()) return found.status();
    channel = found.value();
    auto port = from->FindPort(out_port);
    if (!port.ok()) return port.status();
    const double rate = port.value()->data_type().NominalBytesPerSecond();
    auto reservation =
        channel->ReserveBandwidth(static_cast<int64_t>(rate) + 1);
    if (!reservation.ok()) return reservation.status();
    reserved = reservation.value();
  }
  auto connection = graph_.Connect(from, out_port, to, in_port, channel);
  if (!connection.ok()) {
    if (channel != nullptr) channel->ReleaseBandwidth(reserved);
    return connection.status();
  }
  // Attach the reservation to the source's stream (if any) for release.
  for (auto& [id, state] : streams_) {
    if (state.source.get() == from) {
      state.reservations.emplace_back(channel, reserved);
      break;
    }
  }
  return connection;
}

Status AvDatabase::StartStream(const StreamHandle& handle) {
  auto it = streams_.find(handle.id);
  if (it == streams_.end()) {
    return Status::NotFound("stream " + std::to_string(handle.id));
  }
  // `start videostream` (§4.3) starts the whole stream. Consumers first:
  // every idle sink/transformer in the graph is brought up (idle *sources*
  // stay idle — they belong to other, unstarted streams), then the stream's
  // own source begins producing.
  for (const auto& activity : graph_.activities()) {
    if (activity->state() == MediaActivity::State::kIdle &&
        activity->Kind() != ActivityKind::kSource) {
      AVDB_RETURN_IF_ERROR(activity->Start());
    }
  }
  return it->second.source->Start();
}

Status AvDatabase::PauseStream(const StreamHandle& handle) {
  auto it = streams_.find(handle.id);
  if (it == streams_.end()) {
    return Status::NotFound("stream " + std::to_string(handle.id));
  }
  // Stop production only; resources and locks stay held (§3.3: streams tie
  // up resources for as long as the client keeps them).
  return it->second.source->Stop();
}

Status AvDatabase::ResumeStream(const StreamHandle& handle) {
  auto it = streams_.find(handle.id);
  if (it == streams_.end()) {
    return Status::NotFound("stream " + std::to_string(handle.id));
  }
  // Sources retain their position across Stop; Start re-schedules the
  // remaining elements from one preroll after "now".
  return it->second.source->Start();
}

Status AvDatabase::StopStream(const StreamHandle& handle) {
  auto it = streams_.find(handle.id);
  if (it == streams_.end()) {
    return Status::NotFound("stream " + std::to_string(handle.id));
  }
  StreamState& state = it->second;
  AVDB_RETURN_IF_ERROR(state.source->Stop());
  admission_.Release(&state.ticket);
  for (auto& [channel, bytes] : state.reservations) {
    if (channel != nullptr) channel->ReleaseBandwidth(bytes);
  }
  locks_.Release(state.oid, state.session);
  streams_.erase(it);
  return Status::OK();
}

Status AvDatabase::CloseSession(const std::string& session) {
  std::vector<int64_t> to_stop;
  for (const auto& [id, state] : streams_) {
    if (state.session == session) to_stop.push_back(id);
  }
  for (int64_t id : to_stop) {
    StreamHandle handle;
    handle.id = id;
    AVDB_RETURN_IF_ERROR(StopStream(handle));
  }
  locks_.ReleaseAll(session);
  return Status::OK();
}

}  // namespace avdb
