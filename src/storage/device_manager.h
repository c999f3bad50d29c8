#ifndef AVDB_STORAGE_DEVICE_MANAGER_H_
#define AVDB_STORAGE_DEVICE_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "storage/block_device.h"
#include "storage/media_store.h"

namespace avdb {

/// The database platform's device pool (§3.3 "database platform" and "data
/// placement"). Owns every storage device and its MediaStore, and exposes
/// placement as a first-class, *client-visible* notion: callers store a
/// blob on a named device, ask where a blob lives, and copy blobs between
/// devices (paying the modeled transfer time — the cost the paper says
/// "could be so time-consuming as to destroy any sense of interactivity").
class DeviceManager {
 public:
  /// `cache_bytes` is the shared read-cache budget (0 disables caching).
  explicit DeviceManager(int64_t cache_bytes = 8 * 1024 * 1024);

  /// Registers a device under its own name (AlreadyExists on collision).
  Status AddDevice(BlockDevicePtr device);

  /// Convenience: create-and-add from a profile.
  Result<BlockDevice*> CreateDevice(const std::string& name,
                                    DeviceProfile profile);

  Result<BlockDevice*> GetDevice(const std::string& name);
  Result<MediaStore*> GetStore(const std::string& device_name);
  std::vector<std::string> DeviceNames() const;

  /// Stores `data` under `blob_name` on `device_name`. Returns modeled time.
  Result<WorldTime> Store(const std::string& blob_name, const Buffer& data,
                          const std::string& device_name);

  /// Device currently holding `blob_name` (NotFound when absent anywhere).
  Result<std::string> WhereIs(const std::string& blob_name) const;

  /// Reads the whole blob wherever it lives.
  Result<MediaStore::ReadResult> Fetch(const std::string& blob_name);

  /// Copies a blob to another device under `new_name` (may equal the old
  /// name since namespaces are per-device). Returns the modeled read+write
  /// duration — the §3.3 placement-copy cost.
  Result<WorldTime> Copy(const std::string& blob_name,
                         const std::string& to_device,
                         const std::string& new_name);

  /// Deletes a blob from whichever device holds it.
  Status Delete(const std::string& blob_name);

  BufferCache* cache() { return cache_.get(); }

 private:
  struct Managed {
    BlockDevicePtr device;
    std::unique_ptr<MediaStore> store;
  };

  Result<Managed*> FindHolder(const std::string& blob_name);
  Result<const Managed*> FindHolder(const std::string& blob_name) const;

  std::shared_ptr<BufferCache> cache_;
  std::map<std::string, Managed> devices_;
};

}  // namespace avdb

#endif  // AVDB_STORAGE_DEVICE_MANAGER_H_
