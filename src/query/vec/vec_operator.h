// Batch-at-a-time operators (the vectorized tier of the query engine). The
// row operators in query/operators.h pay a virtual Next() and a fresh
// Row{}/AdmValue materialization per tuple; these amortize both over
// TC_VEC_BATCH_ROWS rows: the scan fills typed column vectors straight from
// the packed record payloads (no per-row heap traffic on the fast path),
// filters mark a selection vector instead of copying, and VecToRowBridge
// adapts a vectorized pipeline back into a row Operator so every existing
// executor plan and sink keeps working unchanged.
#ifndef TC_QUERY_VEC_VEC_OPERATOR_H_
#define TC_QUERY_VEC_VEC_OPERATOR_H_

#include <memory>
#include <vector>

#include "query/operators.h"
#include "query/vec/column_batch.h"
#include "query/vec/vec_counters.h"

namespace tc {

class ScanPredicateMatcher;  // query/scan_predicate.h
class VecPathExtractor;      // vec_operator.cpp: columnar fast-path extraction

/// TC_VEC_BATCH_ROWS (default 1024, min 1).
size_t VecBatchRowsFromEnv();
/// TC_VEC_ENABLE (default on): route eligible scans through this engine.
bool VecEnabledFromEnv();

class VecOperator {
 public:
  virtual ~VecOperator() = default;
  virtual Status Open() = 0;
  /// Fills `batch` with the next rows; returns false when exhausted (the
  /// batch contents are unspecified then). A returned batch always has at
  /// least one live row.
  virtual Result<bool> Next(ColumnBatch* batch) = 0;
};

/// Batch-producing full scan of one partition's primary LSM index. Predicate
/// lowering is identical to ScanOperator (the merged cursor's payload filter
/// owns the counters and a reusable matcher); surviving records are extracted
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

/// Adapts a vectorized pipeline into a row Operator: existing executor plans
/// and sinks consume batches row by row (columns materialize per row here —
/// the batch amortization upstream is what the engine saves).
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

/// Adapts a row Operator into a batch producer (the row-at-a-time arm of the
/// vec-vs-row comparisons; also lets row-only sources feed batch consumers).
class RowToVecBridge final : public VecOperator {
 public:
  RowToVecBridge(std::unique_ptr<Operator> child, size_t num_cols,
                 size_t batch_rows, VecOpCounters* op_counters = nullptr);

  Status Open() override;
  Result<bool> Next(ColumnBatch* batch) override;

 private:
  std::unique_ptr<Operator> child_;
  size_t num_cols_;
  size_t batch_rows_;
  VecOpCounters* op_counters_;
  int32_t partition_ = -1;
};

}  // namespace tc

#endif  // TC_QUERY_VEC_VEC_OPERATOR_H_
