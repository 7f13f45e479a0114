// Batch-at-a-time operators: the query engine's only operator tier.
// Operators exchange kDefaultVecBatchRows rows at a time instead of paying a
// virtual Next() and a fresh AdmValue materialization per tuple: the sources
// fill typed column vectors straight from the packed record payloads (no
// per-row heap traffic on the fast path), and filters mark a selection vector
// instead of copying. Two sources read the primary index — VecScanOperator
// (full scan) and VecLookupOperator (point lookups of index-probe plans,
// §4.4.5) — and share one per-record path: scan accounting, the lowered
// predicate, and column extraction. Pipelines end in batch sinks
// (RunPartitionedBatches in executor.h), which read the typed columns in
// place. MakeVecScan and MakeVecLookup are the builders every source goes
// through; they share one decision on where the predicate runs.
#ifndef TC_QUERY_VEC_VEC_OPERATOR_H_
#define TC_QUERY_VEC_VEC_OPERATOR_H_

#include <memory>
#include <string_view>
#include <vector>

#include "query/executor.h"
#include "query/operators.h"
#include "query/path_walk.h"
#include "query/vec/column_batch.h"
#include "query/vec/vec_counters.h"

namespace tc {

class ScanPredicateMatcher;  // query/scan_predicate.h

/// The sources' columnar fast path for vector-based records with
/// consolidated access: one PackedPathWalk (query/path_walk.h) per record
/// collects, per path, the scalar items it matches — pointers into the
/// payload, decoded only when appended to the batch columns. An `a[*].b`
/// path over an array of same-shape objects collects whole shape runs
/// (VectorRecordWalker::TryShapeRun) instead of one item per object.
class VecPathExtractor {
 public:
  /// `paths` and `schema` (the accessor's snapshot, which resolves the
  /// FieldNameIDs of compacted records) must outlive the extractor; every
  /// path is non-empty.
  VecPathExtractor(const std::vector<FieldPath>& paths, const Schema* schema);

  /// Extracts the paths from one payload. Returns false (items unspecified)
  /// when some path ends in a nested value: the record then needs the
  /// RecordAccessor::GetValues fallback.
  Result<bool> Extract(const VectorRecordView& view, const DatasetType& type);

  /// Appends the last successful Extract as one row to `cols[0..paths)`: an
  /// exact path as its value (missing when unmatched), a wildcard path as a
  /// list of its matches in record order.
  void AppendRow(ColumnVector* cols) const;

 private:
  struct Hooks;  // the walk's terminal and run handling; vec_operator.cpp

  /// One match of a path, in record order: `count` values of `item`'s tag
  /// whose payloads lie `stride` bytes apart from `item`'s — one walker item
  /// (count 1), or one field of a shape run.
  struct Match {
    VectorRecordWalker::Item item;
    size_t count = 1;
    size_t stride = 0;
  };

  PackedPathWalk walk_;
  std::vector<std::vector<Match>> matches_;  // per path
  std::vector<uint8_t> wildcard_;
  size_t exact_paths_ = 0;
  bool any_wildcard_ = false;
};

class VecOperator {
 public:
  virtual ~VecOperator() = default;
  virtual Status Open() = 0;
  /// Fills `batch` with the next rows; returns false when exhausted (the
  /// batch contents are unspecified then). A returned batch always has at
  /// least one live row.
  virtual Result<bool> Next(ColumnBatch* batch) = 0;
};

/// What the two primary-index sources share. Both read against a ReadView
/// snapshot: pass the query's coherent per-partition view triple (the
/// executor's PartitionContext provides one) so every operator of the
/// pipeline reads ONE LSM state; with a null view the source pins its own
/// snapshot at Open. Every record read counts in ScanCounters; a lowered
/// predicate runs on the raw payload through one reusable matcher, and a
/// record it rejects counts as filtered_pre_assembly and is never assembled.
/// Surviving records are extracted into column vectors — via a direct walk
/// over the packed vectors when the format allows (vector-based records,
/// consolidated access): exact paths into typed columns, [*] paths into list
/// columns of typed items. A record whose path ends in a nested value, and
/// every record of an ineligible format, goes through
/// RecordAccessor::GetValues instead and counts in
/// VecOpCounters::fallback_rows.
class VecSourceOperator : public VecOperator {
 public:
  ~VecSourceOperator() override;

 protected:
  VecSourceOperator(DatasetPartition* partition, const RecordAccessor* accessor,
                    ScanSpec spec, size_t batch_rows, ScanCounters* counters,
                    const PartitionReadView* view, VecOpCounters* op_counters);

  /// Pins the snapshot (view_) and prepares the matcher and the extractor.
  Status OpenSource();
  /// Counts one record read.
  void CountRead(std::string_view payload) {
    ++counters_->rows;
    counters_->bytes += payload.size();
  }
  /// Counts one record read and tests the lowered predicate (if any) on it.
  Result<bool> Admit(std::string_view payload);
  /// Clears `batch` for refill.
  void BeginBatch(ColumnBatch* batch);
  /// Appends one admitted record as the next row of `batch`: its columns
  /// and, when the spec asks, the record itself.
  Status Append(std::string_view payload, ColumnBatch* batch);
  /// Records the batch in the operator counters; false when it is empty.
  bool EndBatch(const ColumnBatch& batch);

  DatasetPartition* partition_;
  const RecordAccessor* accessor_;
  ScanSpec spec_;
  size_t batch_rows_;
  LsmTree::ReadViewRef view_;

 private:
  ScanCounters* counters_;
  const PartitionReadView* shared_view_;  // not owned; may be null
  VecOpCounters* op_counters_;            // may be null
  std::unique_ptr<ScanPredicateMatcher> matcher_;  // null without a predicate
  std::vector<FieldPath> pred_paths_;
  std::unique_ptr<VecPathExtractor> extractor_;  // null when ineligible
  std::vector<AdmValue> scratch_;                // fallback extraction reuse
  uint64_t fallback_rows_ = 0;                   // in the current batch
};

/// Batch-producing full scan of one partition's primary LSM index. A lowered
/// predicate runs as the merged cursor's payload filter, on the surviving
/// version of each key.
class VecScanOperator final : public VecSourceOperator {
 public:
  VecScanOperator(DatasetPartition* partition, const RecordAccessor* accessor,
                  ScanSpec spec, size_t batch_rows, ScanCounters* counters,
                  const PartitionReadView* view = nullptr,
                  VecOpCounters* op_counters = nullptr);

  Status Open() override;
  Result<bool> Next(ColumnBatch* batch) override;

 private:
  std::unique_ptr<LsmTree::Iterator> it_;
  bool first_ = true;
};

/// Batch-producing point lookups (the secondary-index query path of
/// §4.4.5): emits the records of `pks`, in the given order, resolved against
/// the pinned snapshot. A pk whose record was deleted since it was indexed
/// yields nothing. Index-probe plans pass the probe's pks sorted and
/// deduplicated.
class VecLookupOperator final : public VecSourceOperator {
 public:
  VecLookupOperator(DatasetPartition* partition, const RecordAccessor* accessor,
                    std::vector<int64_t> pks, ScanSpec spec, size_t batch_rows,
                    ScanCounters* counters, const PartitionReadView* view = nullptr,
                    VecOpCounters* op_counters = nullptr);

  Status Open() override;
  Result<bool> Next(ColumnBatch* batch) override;

 private:
  std::vector<int64_t> pks_;
  size_t pos_ = 0;
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

/// A source pipeline and the rows per batch its source fills.
struct VecScanPipeline {
  std::unique_ptr<VecOperator> op;
  size_t batch_rows = 0;
};

/// Builds the scan of `ctx.partition` around `spec.predicate`. MakeVecScan
/// and MakeVecLookup share the one decision on where a source's predicate
/// runs: it lowers into the source (§3.4.2-deep) when `push_predicate` is set
/// and the accessor can test raw payloads (every format but BSON).
/// Otherwise its paths ride as trailing columns, a VecFilterOperator tests
/// them and a VecProjectOperator drops them. Either way the pipeline's
/// columns are exactly `spec.paths`. `batch_rows` 0 means kDefaultVecBatchRows.
/// Counters register in `ctx.vec_counters` (when set) as `scan_name` and
/// `filter_name`.
VecScanPipeline MakeVecScan(const PartitionContext& ctx, ScanSpec spec,
                            bool push_predicate, size_t batch_rows,
                            const char* scan_name = "scan",
                            const char* filter_name = "filter");

/// The point-lookup form of MakeVecScan: a VecLookupOperator over `pks`
/// (counters "lookup" and "filter") with the same predicate placement.
VecScanPipeline MakeVecLookup(const PartitionContext& ctx, std::vector<int64_t> pks,
                              ScanSpec spec, bool push_predicate, size_t batch_rows);

}  // namespace tc

#endif  // TC_QUERY_VEC_VEC_OPERATOR_H_
