// Pull-based query operators (the Hyracks-like runtime of paper §2.3).
// Pipelines are assembled per partition and run in parallel by the executor;
// rows flow bottom-up through Next(). Field access is performed at the scan
// via a RecordAccessor (consolidated getValues by default, §3.4.2); the scan
// itself is batch-at-a-time (query/vec/vec_operator.h, bridged into rows by
// VecToRowBridge), and LookupOperator is the one row-producing source.
#ifndef TC_QUERY_OPERATORS_H_
#define TC_QUERY_OPERATORS_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "query/field_access.h"

namespace tc {

/// A row flowing between operators: extracted columns plus (optionally) the
/// raw record bytes and their source partition, which lets downstream
/// consumers on other partitions decode the record against the right schema
/// (§3.4.1).
struct Row {
  int32_t partition = -1;
  std::shared_ptr<Buffer> record;  // attached only when the plan needs it
  std::vector<AdmValue> cols;
};

class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  /// Produces the next row; returns false when exhausted.
  virtual Result<bool> Next(Row* row) = 0;
};

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

class ScanPredicateMatcher;  // query/scan_predicate.h

/// Point-lookup source: emits the records of the given primary keys (the
/// secondary-index query path of §4.4.5). Lookups resolve against the
/// query's pinned per-partition view, or a private snapshot pinned at Open
/// when `view` is null: the same discipline as VecScanOperator.
class LookupOperator final : public Operator {
 public:
  LookupOperator(DatasetPartition* partition, const RecordAccessor* accessor,
                 std::vector<int64_t> pks, ScanSpec spec, ScanCounters* counters,
                 const PartitionReadView* view = nullptr);
  ~LookupOperator() override;

  Status Open() override;
  Result<bool> Next(Row* row) override;

 private:
  DatasetPartition* partition_;
  const RecordAccessor* accessor_;
  std::vector<int64_t> pks_;
  ScanSpec spec_;
  ScanCounters* counters_;
  const PartitionReadView* shared_view_;  // not owned; may be null
  LsmTree::ReadViewRef view_;             // pinned snapshot for the lookups
  std::unique_ptr<ScanPredicateMatcher> matcher_;
  size_t pos_ = 0;
  std::vector<FieldPath> pred_paths_;  // pred->Paths(), precomputed at Open
};

class FilterOperator final : public Operator {
 public:
  using Predicate = std::function<bool(const Row&)>;
  FilterOperator(std::unique_ptr<Operator> child, Predicate pred)
      : child_(std::move(child)), pred_(std::move(pred)) {}

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row) override {
    while (true) {
      TC_ASSIGN_OR_RETURN(bool ok, child_->Next(row));
      if (!ok) return false;
      if (pred_(*row)) return true;
    }
  }

 private:
  std::unique_ptr<Operator> child_;
  Predicate pred_;
};

/// Applies a function to each row (compute/replace columns).
class MapOperator final : public Operator {
 public:
  using Fn = std::function<Status(Row*)>;
  MapOperator(std::unique_ptr<Operator> child, Fn fn)
      : child_(std::move(child)), fn_(std::move(fn)) {}

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row) override {
    TC_ASSIGN_OR_RETURN(bool ok, child_->Next(row));
    if (!ok) return false;
    TC_RETURN_IF_ERROR(fn_(row));
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  Fn fn_;
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
