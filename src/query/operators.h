// Plan primitives the batch runtime (query/vec/vec_operator.h, executor.h)
// shares: what a scan extracts (ScanSpec), what it read (ScanCounters), and
// the aggregation cells per-partition sinks fill and the coordinator merges
// (the local-aggregate / exchange / global-merge shape of the paper's
// Figure 5 plans, §2.3). Field access happens at the scan through a
// RecordAccessor (consolidated getValues by default, §3.4.2).
#ifndef TC_QUERY_OPERATORS_H_
#define TC_QUERY_OPERATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "query/field_access.h"

namespace tc {

struct ScanPredicate;  // query/scan_predicate.h

struct ScanSpec {
  std::vector<FieldPath> paths;  // columns to extract (may be empty)
  bool attach_record = false;    // carry raw bytes (SELECT *)
  /// Pre-assembly predicate slot (§3.4.2-deep): when set, the scan evaluates
  /// the conjunction on each record's packed vectors and skips column
  /// extraction / record attachment for non-matching positions. Skipped rows
  /// still count as scanned (they were read) plus filtered_pre_assembly.
  std::shared_ptr<const ScanPredicate> predicate;
};

struct ScanCounters {
  uint64_t rows = 0;   // rows read, INCLUDING pre-assembly-filtered ones
  uint64_t bytes = 0;  // payload bytes read, including filtered rows
  uint64_t filtered_pre_assembly = 0;  // rows rejected before assembly
};

// ---------------------------------------------------------------------------
// Aggregation building blocks (consumed by the executor's per-partition sinks
// and merged at the coordinator — local-aggregate + exchange + global-merge,
// as in the paper's Figure 5 plans).
// ---------------------------------------------------------------------------

struct AggCell {
  int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  void Add(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
    sum += v;
  }
  void AddCount() { ++count; }
  void Merge(const AggCell& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  double avg() const { return count == 0 ? 0 : sum / static_cast<double>(count); }
};

/// String-keyed hash aggregation.
class GroupMap {
 public:
  AggCell& Cell(const std::string& key) { return groups_[key]; }
  void Merge(const GroupMap& o) {
    for (const auto& [k, v] : o.groups_) groups_[k].Merge(v);
  }
  const std::unordered_map<std::string, AggCell>& groups() const { return groups_; }
  /// Top-k groups by `score`, descending.
  std::vector<std::pair<std::string, AggCell>> TopK(
      size_t k, const std::function<double(const AggCell&)>& score) const;

 private:
  std::unordered_map<std::string, AggCell> groups_;
};

/// Group key rendering for AdmValue columns.
std::string GroupKeyOf(const AdmValue& v);

}  // namespace tc

#endif  // TC_QUERY_OPERATORS_H_
