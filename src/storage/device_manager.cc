#include "storage/device_manager.h"

namespace avdb {

DeviceManager::DeviceManager(int64_t cache_bytes) {
  if (cache_bytes > 0) cache_ = std::make_shared<BufferCache>(cache_bytes);
}

Status DeviceManager::AddDevice(BlockDevicePtr device) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  const std::string name = device->name();
  if (devices_.count(name) > 0) {
    return Status::AlreadyExists("device exists: " + name);
  }
  Managed m;
  m.device = device;
  m.store = std::make_unique<MediaStore>(device, cache_);
  devices_.emplace(name, std::move(m));
  return Status::OK();
}

Result<BlockDevice*> DeviceManager::CreateDevice(const std::string& name,
                                                 DeviceProfile profile) {
  auto device = std::make_shared<BlockDevice>(name, std::move(profile));
  AVDB_RETURN_IF_ERROR(AddDevice(device));
  return device.get();
}

Result<BlockDevice*> DeviceManager::GetDevice(const std::string& name) {
  auto it = devices_.find(name);
  if (it == devices_.end()) return Status::NotFound("device: " + name);
  return it->second.device.get();
}

Result<MediaStore*> DeviceManager::GetStore(const std::string& device_name) {
  auto it = devices_.find(device_name);
  if (it == devices_.end()) {
    return Status::NotFound("device: " + device_name);
  }
  return it->second.store.get();
}

std::vector<std::string> DeviceManager::DeviceNames() const {
  std::vector<std::string> names;
  names.reserve(devices_.size());
  for (const auto& [name, m] : devices_) names.push_back(name);
  return names;
}

Result<WorldTime> DeviceManager::Store(const std::string& blob_name,
                                       const Buffer& data,
                                       const std::string& device_name) {
  // A blob name is global: reject if any device already holds it.
  if (FindHolder(blob_name).ok()) {
    return Status::AlreadyExists("blob exists somewhere: " + blob_name);
  }
  auto it = devices_.find(device_name);
  if (it == devices_.end()) {
    return Status::NotFound("device: " + device_name);
  }
  return it->second.store->Put(blob_name, data);
}

Result<DeviceManager::Managed*> DeviceManager::FindHolder(
    const std::string& blob_name) {
  for (auto& [name, m] : devices_) {
    if (m.store->Contains(blob_name)) return &m;
  }
  return Status::NotFound("blob: " + blob_name);
}

Result<const DeviceManager::Managed*> DeviceManager::FindHolder(
    const std::string& blob_name) const {
  for (const auto& [name, m] : devices_) {
    if (m.store->Contains(blob_name)) return &m;
  }
  return Status::NotFound("blob: " + blob_name);
}

Result<std::string> DeviceManager::WhereIs(
    const std::string& blob_name) const {
  auto holder = FindHolder(blob_name);
  if (!holder.ok()) return holder.status();
  return holder.value()->device->name();
}

Result<MediaStore::ReadResult> DeviceManager::Fetch(
    const std::string& blob_name) {
  auto holder = FindHolder(blob_name);
  if (!holder.ok()) return holder.status();
  return holder.value()->store->Get(blob_name);
}

Result<WorldTime> DeviceManager::Copy(const std::string& blob_name,
                                      const std::string& to_device,
                                      const std::string& new_name) {
  auto holder = FindHolder(blob_name);
  if (!holder.ok()) return holder.status();
  auto dest = devices_.find(to_device);
  if (dest == devices_.end()) {
    return Status::NotFound("device: " + to_device);
  }
  if (dest->second.store->Contains(new_name)) {
    return Status::AlreadyExists("blob exists on target: " + new_name);
  }
  auto read = holder.value()->store->Get(blob_name);
  if (!read.ok()) return read.status();
  auto write = dest->second.store->Put(new_name, read.value().data);
  if (!write.ok()) return write.status();
  return read.value().duration + write.value();
}

Status DeviceManager::Delete(const std::string& blob_name) {
  auto holder = FindHolder(blob_name);
  if (!holder.ok()) return holder.status();
  return holder.value()->store->Delete(blob_name);
}

}  // namespace avdb
