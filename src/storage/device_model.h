// Storage device model: reproduces the SATA-SSD vs NVMe-SSD axis of the
// paper's evaluation (§4, "Experiment Setup") by throttling file I/O to a
// profile's sequential bandwidth. Since the reproduced datasets are scaled
// down ~10^3x from the paper's, bandwidths are divided by a fixed slowdown of
// 32 so the IO-bound-vs-CPU-bound crossovers stay visible.
#ifndef TC_STORAGE_DEVICE_MODEL_H_
#define TC_STORAGE_DEVICE_MODEL_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace tc {

struct DeviceProfile {
  std::string name;
  double read_mbps = 0;    // 0 == unthrottled
  double write_mbps = 0;
  double latency_us = 0;   // per-operation seek/command latency

  static DeviceProfile Unthrottled() { return {"unthrottled", 0, 0, 0}; }
  /// SATA SSD from the paper: 550 MB/s read, 520 MB/s write.
  static DeviceProfile SataSsd();
  /// NVMe SSD from the paper: 3400 MB/s read, 2500 MB/s write.
  static DeviceProfile NvmeSsd();
};

/// Tracks I/O volume and injects delays matching the profile. Thread-safe.
class DeviceModel {
 public:
  explicit DeviceModel(DeviceProfile profile) : profile_(std::move(profile)) {}

  void OnRead(size_t bytes);
  void OnWrite(size_t bytes);

  uint64_t bytes_read() const { return bytes_read_.load(std::memory_order_relaxed); }
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  const DeviceProfile& profile() const { return profile_; }

  void ResetCounters() {
    bytes_read_ = 0;
    bytes_written_ = 0;
  }

 private:
  void Throttle(size_t bytes, double mbps);

  DeviceProfile profile_;
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace tc

#endif  // TC_STORAGE_DEVICE_MODEL_H_
