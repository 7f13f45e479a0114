// Batch-at-a-time operators: the query engine's only scan tier. Operators
// exchange TC_VEC_BATCH_ROWS rows at a time instead of paying a virtual
// Next() and a fresh Row{}/AdmValue materialization per tuple: the scan fills
// typed column vectors straight from the packed record payloads (no per-row
// heap traffic on the fast path), and filters mark a selection vector instead
// of copying. Pipelines end in batch sinks (RunPartitionedBatches in
// executor.h), which read the typed columns in place. VecToRowBridge adapts a
// pipeline into a row Operator only for the plans that stay row-shaped: the
// planner's RunPlannedScan (whose index-probe arm is the row-producing
// LookupOperator) and the un-consolidated Sensors Q4 plan's filter + map.
// MakeVecScan is the one builder every scan goes through.
#ifndef TC_QUERY_VEC_VEC_OPERATOR_H_
#define TC_QUERY_VEC_VEC_OPERATOR_H_

#include <memory>
#include <vector>

#include "query/executor.h"
#include "query/operators.h"
#include "query/vec/column_batch.h"
#include "query/vec/vec_counters.h"

namespace tc {

class ScanPredicateMatcher;  // query/scan_predicate.h
class VecPathExtractor;      // vec_operator.cpp: columnar fast-path extraction

class VecOperator {
 public:
  virtual ~VecOperator() = default;
  virtual Status Open() = 0;
  /// Fills `batch` with the next rows; returns false when exhausted (the
  /// batch contents are unspecified then). A returned batch always has at
  /// least one live row.
  virtual Result<bool> Next(ColumnBatch* batch) = 0;
};

/// Batch-producing full scan of one partition's primary LSM index. Scans run
/// against a ReadView snapshot: pass the query's coherent per-partition view
/// triple (the executor's PartitionContext provides one) so every operator of
/// the pipeline reads ONE LSM state; with a null view the operator pins its
/// own snapshot at Open. A lowered predicate runs as the merged cursor's
/// payload filter, which owns the counters and a reusable matcher, so
/// non-matching records are never assembled. Surviving records are extracted
/// into column vectors — via a direct walk over the packed vectors when the
/// format allows (vector-based records, consolidated access): exact paths
/// into typed columns, [*] paths into list columns of typed items. A record
/// whose path ends in a nested value, and every record of an ineligible
/// format, goes through RecordAccessor::GetValues instead and counts in
/// VecOpCounters::fallback_rows.
class VecScanOperator final : public VecOperator {
 public:
  VecScanOperator(DatasetPartition* partition, const RecordAccessor* accessor,
                  ScanSpec spec, size_t batch_rows, ScanCounters* counters,
                  const PartitionReadView* view = nullptr,
                  VecOpCounters* op_counters = nullptr);
  ~VecScanOperator() override;

  Status Open() override;
  Result<bool> Next(ColumnBatch* batch) override;

 private:
  DatasetPartition* partition_;
  const RecordAccessor* accessor_;
  ScanSpec spec_;
  size_t batch_rows_;
  ScanCounters* counters_;
  const PartitionReadView* shared_view_;  // not owned; may be null
  VecOpCounters* op_counters_;            // may be null
  LsmTree::ReadViewRef view_;
  std::unique_ptr<LsmTree::Iterator> it_;
  std::unique_ptr<ScanPredicateMatcher> matcher_;
  std::unique_ptr<VecPathExtractor> extractor_;  // null when ineligible
  std::vector<AdmValue> scratch_;                // fallback extraction reuse
  bool first_ = true;
  bool counts_in_filter_ = false;
  std::vector<FieldPath> pred_paths_;
};

/// Evaluates a conjunction over already-extracted columns by marking a
/// selection vector; no column data moves. The batch's columns must contain
/// the predicate's paths at [first_col, ...). Typed columns compare without
/// materializing AdmValues where the family allows.
class VecFilterOperator final : public VecOperator {
 public:
  VecFilterOperator(std::unique_ptr<VecOperator> child,
                    std::shared_ptr<const ScanPredicate> pred, size_t first_col,
                    VecOpCounters* op_counters = nullptr);

  Status Open() override;
  Result<bool> Next(ColumnBatch* batch) override;

 private:
  std::unique_ptr<VecOperator> child_;
  std::shared_ptr<const ScanPredicate> pred_;
  size_t first_col_;
  VecOpCounters* op_counters_;
  std::vector<uint8_t> int_fast_;     // per term: typed int64 compare applies
  std::vector<uint32_t> sel_scratch_;
};

/// Keeps the columns named by `keep` (in that order), dropping the rest.
class VecProjectOperator final : public VecOperator {
 public:
  VecProjectOperator(std::unique_ptr<VecOperator> child, std::vector<size_t> keep,
                     VecOpCounters* op_counters = nullptr);

  Status Open() override;
  Result<bool> Next(ColumnBatch* batch) override;

 private:
  std::unique_ptr<VecOperator> child_;
  std::vector<size_t> keep_;
  VecOpCounters* op_counters_;
};

/// Adapts a vectorized pipeline into a row Operator, for the row-shaped plans
/// only (see the file comment): every column of every live row materializes
/// as an AdmValue here, which is why batch plans hand batches to their sinks
/// instead.
class VecToRowBridge final : public Operator {
 public:
  explicit VecToRowBridge(std::unique_ptr<VecOperator> child,
                          VecOpCounters* op_counters = nullptr);

  Status Open() override;
  Result<bool> Next(Row* row) override;

 private:
  std::unique_ptr<VecOperator> child_;
  VecOpCounters* op_counters_;
  ColumnBatch batch_;
  std::vector<uint32_t> order_;  // live row indices of batch_
  size_t pos_ = 0;
  bool have_ = false;
};

/// A scan pipeline and the rows per batch its scan fills.
struct VecScanPipeline {
  std::unique_ptr<VecOperator> op;
  size_t batch_rows = 0;
};

/// Builds the scan of `ctx.partition` around `spec.predicate`: the one place
/// that decides how a scan handles its predicate. With `push_predicate` the
/// predicate lowers into the VecScanOperator (§3.4.2-deep). Otherwise its
/// paths ride as trailing columns, a VecFilterOperator tests them and a
/// VecProjectOperator drops them. Either way the pipeline's columns are
/// exactly `spec.paths`. `batch_rows` 0 means TC_VEC_BATCH_ROWS. Counters
/// register in `ctx.vec_counters` (when set) as `scan_name` and
/// `filter_name`.
VecScanPipeline MakeVecScan(const PartitionContext& ctx, ScanSpec spec,
                            bool push_predicate, size_t batch_rows,
                            const char* scan_name = "scan",
                            const char* filter_name = "filter");

}  // namespace tc

#endif  // TC_QUERY_VEC_VEC_OPERATOR_H_
