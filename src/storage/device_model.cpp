#include "storage/device_model.h"

#include <chrono>
#include <thread>

namespace tc {
namespace {

/// Bandwidth divisor matching the ~10^3x data scale-down (header comment).
constexpr double kSlowdown = 32;

}  // namespace

DeviceProfile DeviceProfile::SataSsd() {
  return {"sata-ssd", 550.0 / kSlowdown, 520.0 / kSlowdown, 60.0};
}

DeviceProfile DeviceProfile::NvmeSsd() {
  return {"nvme-ssd", 3400.0 / kSlowdown, 2500.0 / kSlowdown, 15.0};
}

void DeviceModel::OnRead(size_t bytes) {
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  Throttle(bytes, profile_.read_mbps);
}

void DeviceModel::OnWrite(size_t bytes) {
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  Throttle(bytes, profile_.write_mbps);
}

void DeviceModel::Throttle(size_t bytes, double mbps) {
  if (mbps <= 0) return;
  double micros = profile_.latency_us + static_cast<double>(bytes) / mbps;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(micros)));
}

}  // namespace tc
