// Per-operator batch/row/byte counters for the vectorized engine. Each
// partition pipeline owns one VecCounterSet (no synchronization inside); the
// executor merges them by operator name into QueryStats::operators after the
// partition threads join.
#ifndef TC_QUERY_VEC_VEC_COUNTERS_H_
#define TC_QUERY_VEC_VEC_COUNTERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace tc {

struct VecOpCounters {
  uint64_t batches = 0;
  uint64_t rows = 0;   // live rows produced (selection applied)
  uint64_t bytes = 0;  // bytes of the batches produced
  /// Scans: rows extracted by the generic RecordAccessor::GetValues walk
  /// instead of the columnar fast path (ineligible format, or a record whose
  /// path ends in a nested value).
  uint64_t fallback_rows = 0;
};

class VecCounterSet {
 public:
  /// Returns the counter cell for `name`, creating it on first use. The
  /// pointer stays valid for the set's lifetime.
  VecOpCounters* For(const std::string& name) {
    for (auto& e : entries_) {
      if (e->first == name) return &e->second;
    }
    entries_.push_back(std::make_unique<std::pair<std::string, VecOpCounters>>(
        name, VecOpCounters{}));
    return &entries_.back()->second;
  }

  const std::vector<std::unique_ptr<std::pair<std::string, VecOpCounters>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::unique_ptr<std::pair<std::string, VecOpCounters>>> entries_;
};

}  // namespace tc

#endif  // TC_QUERY_VEC_VEC_COUNTERS_H_
