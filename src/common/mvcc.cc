#include "common/mvcc.h"

#include <algorithm>

namespace hana::mvcc {

void SnapshotHandle::Release() {
  if (vm_ == nullptr) return;
  vm_->ReleaseSnapshot(ts_);
  vm_ = nullptr;
}

Timestamp VersionManager::AllocateCommit() {
  MutexLock lock(mu_);
  Timestamp ts = next_++;
  inflight_.insert(ts);
  return ts;
}

void VersionManager::FinishCommit(Timestamp ts) {
  MutexLock lock(mu_);
  inflight_.erase(ts);
  last_visible_ = inflight_.empty() ? next_ - 1 : *inflight_.begin() - 1;
}

Timestamp VersionManager::LastVisible() const {
  MutexLock lock(mu_);
  return last_visible_;
}

uint64_t VersionManager::NewWriterId() {
  MutexLock lock(mu_);
  return next_writer_++;
}

SnapshotHandle VersionManager::AcquireSnapshot() {
  MutexLock lock(mu_);
  snapshots_.insert(last_visible_);
  return SnapshotHandle(this, last_visible_);
}

Timestamp VersionManager::Watermark() const {
  MutexLock lock(mu_);
  if (snapshots_.empty()) return last_visible_;
  return std::min(*snapshots_.begin(), last_visible_);
}

size_t VersionManager::ActiveSnapshots() const {
  MutexLock lock(mu_);
  return snapshots_.size();
}

void VersionManager::ReleaseSnapshot(Timestamp ts) {
  MutexLock lock(mu_);
  auto it = snapshots_.find(ts);
  if (it != snapshots_.end()) snapshots_.erase(it);
}

VersionManager& VersionManager::Global() {
  static VersionManager* instance = new VersionManager();
  return *instance;
}

}  // namespace hana::mvcc
