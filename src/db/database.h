#ifndef AVDB_DB_DATABASE_H_
#define AVDB_DB_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "activity/composite.h"
#include "activity/cost_model.h"
#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "db/lock_manager.h"
#include "db/object.h"
#include "db/query.h"
#include "db/schema.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/admission.h"
#include "sched/event_engine.h"
#include "sched/jitter.h"
#include "sched/service_queue.h"
#include "storage/device_manager.h"

namespace avdb {

/// Construction knobs of an AV database system.
struct AvDatabaseConfig {
  /// Shared read-cache budget across devices (0 disables).
  int64_t cache_bytes = 8 * 1024 * 1024;
  /// Hardware decode/processing units at the database site (admission pool
  /// "db.decoders") — the shared special-purpose hardware of §3.3.
  int decoder_units = 4;
  /// Stream buffer memory at the database (admission pool "db.buffers").
  int64_t buffer_pool_bytes = 16 * 1024 * 1024;
  /// Jitter model seed; 0 runs without injected jitter.
  uint64_t jitter_seed = 0;
  /// Processing-cost model of the database platform.
  CostModel costs = CostModel::Accelerated();
};

/// A started stream: the admission ticket and reservations it holds, so
/// stopping it returns every resource. Returned by StartStream.
struct StreamHandle {
  int64_t id = 0;
  MediaActivity* source = nullptr;
};

/// §3.1 definition 4 made concrete: "an AV database system is a software/
/// hardware entity managing a collection of AV values and AV activities."
///
/// This facade assembles the whole platform of Fig. 3 — devices with
/// modeled timing, admission control over their bandwidths and units,
/// network channels to clients, the shared event engine, schema/objects/
/// queries/locks/versions, and mediation of activity creation (§4.2:
/// "requests by applications to create and connect activities are mediated
/// by the database system which maintains responsibility for controlling
/// access to shared resources").
///
/// The §4.3 pseudo-code maps onto it almost line by line; see
/// examples/quickstart.cpp.
class AvDatabase {
 public:
  explicit AvDatabase(AvDatabaseConfig config = {});

  AvDatabase(const AvDatabase&) = delete;
  AvDatabase& operator=(const AvDatabase&) = delete;

  // --- platform ------------------------------------------------------------

  EventEngine& engine() { return engine_; }
  ActivityGraph& graph() { return graph_; }
  DeviceManager& devices() { return devices_; }
  AdmissionController& admission() { return admission_; }
  LockManager& locks() { return locks_; }

  /// Environment for activities located at the database.
  ActivityEnv env() {
    return ActivityEnv{&engine_, jitter_.get(), metrics_.get(), tracer_.get()};
  }

  /// Shared instruments. The database owns a MetricsRegistry and a
  /// virtual-time Tracer, and binds every layer it assembles — admission,
  /// jitter, stores, channels, activities — to them.
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  obs::Tracer* tracer() { return tracer_.get(); }

  /// Registers a storage device; creates its admission pools
  /// ("<name>.bandwidth" in bytes/s and, for exclusive devices,
  /// "<name>.arm" with capacity 1) and its service queue.
  Result<BlockDevice*> AddDevice(const std::string& name,
                                 DeviceProfile profile);

  /// Registers a network channel to a client site. The channel carries its
  /// own bandwidth-reservation ledger, drawn on by NewConnection.
  Result<ChannelPtr> AddChannel(const std::string& name,
                                Channel::Profile profile);

  Result<ChannelPtr> GetChannel(const std::string& name);
  Result<ServiceQueue*> DeviceQueue(const std::string& device_name);

  // --- schema ----------------------------------------------------------------

  Status DefineClass(ClassDef class_def);
  Result<const ClassDef*> GetClass(const std::string& name) const;

  // --- objects ---------------------------------------------------------------

  /// Creates an instance of a defined class and returns its reference.
  Result<Oid> NewObject(const std::string& class_name);
  Result<DbObject*> GetObject(Oid oid);
  Result<const DbObject*> GetObject(Oid oid) const;

  /// Sets a scalar attribute (schema-checked; equality index maintained).
  Status SetScalar(Oid oid, const std::string& attr, ScalarValue value);
  Result<ScalarValue> GetScalar(Oid oid, const std::string& attr) const;

  // --- media attributes --------------------------------------------------------

  /// Stores `value` as the new current version of `oid.attr` on
  /// `device_name` (placement is the caller's, §3.3). Checks the schema's
  /// media type and quality factor (a stored value must be able to satisfy
  /// the declared quality). Earlier versions remain readable.
  Status SetMediaAttribute(Oid oid, const std::string& attr,
                           const MediaValue& value,
                           const std::string& device_name);

  /// Loads a stored version (-1 = current) back into memory.
  Result<MediaValuePtr> LoadMediaAttribute(Oid oid, const std::string& attr,
                                           int version = -1);

  /// Version history of a media attribute (oldest first).
  Result<std::vector<MediaVersion>> MediaHistory(Oid oid,
                                                 const std::string& attr) const;

  /// Device currently holding the current version — client-visible
  /// placement (§3.3).
  Result<std::string> WhereIsAttribute(Oid oid,
                                       const std::string& attr_path) const;

  /// Moves the current version to another device, paying the modeled copy
  /// time the paper warns about. Returns that duration.
  Result<WorldTime> MoveAttribute(Oid oid, const std::string& attr_path,
                                  const std::string& to_device);

  // --- temporal composites -----------------------------------------------------

  /// Stores `value` as track `track` of tcomp `tcomp` with the given
  /// timeline placement (Fig. 1's per-instance timing).
  Status SetTcompTrack(Oid oid, const std::string& tcomp,
                       const std::string& track, const MediaValue& value,
                       const std::string& device_name, WorldTime start,
                       WorldTime duration);

  Result<const TcompInstance*> GetTcomp(Oid oid,
                                        const std::string& tcomp) const;

  // --- query -------------------------------------------------------------------

  /// `select <class> where <predicate>` — returns *references* only
  /// (§3.1). Uses the equality index when the predicate pins an attribute.
  Result<std::vector<Oid>> Select(const std::string& class_name,
                                  const std::string& where) const;

  /// Pre-parsed variant.
  Result<std::vector<Oid>> Select(const std::string& class_name,
                                  const PredicatePtr& predicate) const;

  // --- activity mediation (§4.3 interface) ---------------------------------------

  /// `new activity VideoSource for <Class>.<attr>` + `bind`: creates a
  /// database-located source for the media attribute at `attr_path`
  /// (either "attr" or "tcomp.track"), wires its store/device queue, loads
  /// and binds the stored value, and admits its resource demands
  /// (device bandwidth, buffer, decoder, exclusive arm). Fails with
  /// ResourceExhausted when the platform cannot carry another stream —
  /// exactly the failure §4.3 assigns to statement 1.
  ///
  /// The stream also takes a shared lock on the object for its lifetime
  /// (owner = `session`).
  Result<StreamHandle> NewSourceFor(const std::string& session, Oid oid,
                                    const std::string& attr_path);

  /// Quality-negotiated variant (§4.1): the client names a quality factor,
  /// never a representation. When the stored representation is scalable and
  /// a layer subset satisfies `quality`, the source binds a restricted view
  /// that reads (and is admitted for) only those layers' bytes; otherwise
  /// the full value is used, provided it can satisfy the quality at all
  /// (InvalidArgument when it cannot).
  Result<StreamHandle> NewSourceFor(const std::string& session, Oid oid,
                                    const std::string& attr_path,
                                    const VideoQuality& quality);

  /// Recording (§4.2's active-state *recording* operation): creates a
  /// database-located VideoWriter whose captured frames become, at end of
  /// stream, the next version of `oid.attr` on `device`. The session holds
  /// an exclusive lock on the object while the recorder exists.
  Result<std::shared_ptr<VideoWriter>> NewRecorderFor(
      const std::string& session, Oid oid, const std::string& attr,
      const std::string& device, MediaDataType video_type);

  /// Composite variant for a whole tcomp: `new activity MultiSource` with
  /// one child per stored track, each offset per the instance timeline and
  /// joined to one sync domain. `sink_sync` (from the client's MultiSink)
  /// may be null for an unsynchronized run.
  Result<StreamHandle> NewMultiSourceFor(const std::string& session, Oid oid,
                                         const std::string& tcomp,
                                         SyncController* sink_sync);

  /// `new connection from <source>.<port> to <sink>.<port>` over an
  /// optional channel; reserves channel bandwidth for the port's nominal
  /// rate and fails when the link is oversubscribed (§4.3 statement 3).
  Result<Connection*> NewConnection(MediaActivity* from,
                                    const std::string& out_port,
                                    MediaActivity* to,
                                    const std::string& in_port,
                                    const std::string& channel_name = "");

  /// Starts a stream's source activity (`start videostream`).
  Status StartStream(const StreamHandle& handle);

  /// Pauses a running stream: production stops but the source keeps its
  /// position, its admission ticket and its locks (the "VCR pause" every
  /// §3.2 editing station needs).
  Status PauseStream(const StreamHandle& handle);

  /// Resumes a paused stream from where it stopped: remaining elements get
  /// a fresh presentation schedule starting one preroll from now.
  Status ResumeStream(const StreamHandle& handle);

  /// Stops the stream and returns every resource it held (admission
  /// ticket, channel reservations, locks).
  Status StopStream(const StreamHandle& handle);

  /// Ends a session: stops its streams and releases its locks.
  Status CloseSession(const std::string& session);

  /// Runs the platform's virtual time forward.
  int64_t RunUntilIdle() { return engine_.RunUntilIdle(); }
  int64_t RunUntil(WorldTime t) { return engine_.RunUntil(t); }

  /// Human-readable inventory of devices, channels, pools and streams.
  std::string DescribePlatform() const;

  // --- backup & recovery (§2's requirement list) -----------------------------

  /// Serializes the entire database — schema, objects, timelines, version
  /// records and every stored blob's bytes — into one self-contained
  /// backup image.
  Result<Buffer> SaveBackup() const;

  /// Restores a backup image into this (empty) database. Devices must be
  /// registered first under the same names; fails with FailedPrecondition
  /// if the database already holds classes or objects.
  Status RestoreBackup(const Buffer& image);

 private:
  struct StreamState {
    std::string session;
    Oid oid;
    MediaActivityPtr source;
    AdmissionTicket ticket;
    /// Channel reservations to undo: (channel, bytes/s).
    std::vector<std::pair<ChannelPtr, int64_t>> reservations;
  };

  /// Resolves "attr" or "tcomp.track" to the attribute state + defs.
  struct ResolvedAttr {
    const MediaAttrState* state;
    AttrType type;
    /// Track placement when the path names a tcomp track.
    WorldTime start_offset;
  };
  Result<ResolvedAttr> ResolveMediaPath(const DbObject& object,
                                        const std::string& attr_path) const;

  /// Blob naming: "o<id>.<attr path>.v<version>".
  static std::string BlobName(Oid oid, const std::string& attr_path,
                              int version);

  /// Stores one media value as the next version of `state`.
  Status StoreVersion(Oid oid, const std::string& attr_path,
                      const MediaValue& value, const std::string& device_name,
                      MediaAttrState* state);

  /// Creates (unstarted) a typed source for a resolved attribute and
  /// collects its admission demands, already interned to pool ids so
  /// FinishStream admits on the id fast path. `quality` (optional)
  /// restricts scalable representations to a satisfying layer subset.
  Result<MediaActivityPtr> MakeSource(const std::string& name, Oid oid,
                                      const std::string& attr_path,
                                      const ResolvedAttr& resolved,
                                      std::vector<PooledDemand>* demands,
                                      const VideoQuality* quality = nullptr);

  /// Registers a stream and takes its lock.
  Result<StreamHandle> FinishStream(const std::string& session, Oid oid,
                                    MediaActivityPtr source,
                                    std::vector<PooledDemand> demands);

  void UpdateIndex(const std::string& class_name, const std::string& attr,
                   const DbObject& object);

  AvDatabaseConfig config_;
  EventEngine engine_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<JitterModel> jitter_;
  ActivityGraph graph_;
  DeviceManager devices_;
  AdmissionController admission_;
  LockManager locks_;

  std::map<std::string, ClassDef> classes_;
  std::map<Oid, std::unique_ptr<DbObject>> objects_;
  std::map<std::string, std::vector<Oid>> extents_;  // class -> oids
  /// Equality index: class.attr -> rendered value -> oids.
  std::map<std::string, std::multimap<std::string, Oid>> index_;

  std::map<std::string, std::unique_ptr<ServiceQueue>> device_queues_;
  std::map<std::string, ChannelPtr> channels_;

  uint64_t next_oid_ = 1;
  int64_t next_stream_id_ = 1;
  std::map<int64_t, StreamState> streams_;
  int64_t next_activity_serial_ = 1;
};

}  // namespace avdb

#endif  // AVDB_DB_DATABASE_H_
