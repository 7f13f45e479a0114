// Parallel query executor: runs one pipeline per data partition on its own
// thread (the paper's per-partition query executors, §2.3) and feeds rows to
// per-partition sinks, which the caller merges — the local-aggregate /
// exchange / global-merge structure of the paper's Figure 5 plans.
#ifndef TC_QUERY_EXECUTOR_H_
#define TC_QUERY_EXECUTOR_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "query/operators.h"
#include "query/schema_broadcast.h"
#include "query/vec/vec_counters.h"

namespace tc {

struct QueryOptions {
  /// The §3.4.2 consolidation + pushdown optimization; Figure 23 disables it.
  bool consolidate_field_access = true;
  /// Deep pushdown: lower eligible filter predicates below record assembly
  /// into the scan (ScanSpec::predicate), so non-matching positions are
  /// rejected on the packed value vectors and never assembled. Closes the
  /// Figure 23 Q4 anomaly; fig23's "no-deep" mode disables it.
  bool pushdown_scan_predicates = true;
  /// Declares that the plan repartitions records (group-by/order across
  /// partitions): triggers the schema broadcast of §3.4.1.
  bool has_nonlocal_exchange = false;
  /// Cap on executor threads (0 = one per partition).
  size_t max_threads = 0;
  /// Rows per ColumnBatch; 0 = TC_VEC_BATCH_ROWS (default 1024).
  size_t vec_batch_rows = 0;
};

/// Aggregated per-operator counters of one query (merged across partitions by
/// operator name).
struct QueryOpCounters {
  std::string name;
  uint64_t batches = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  /// Scans: rows that left the columnar fast path (VecOpCounters).
  uint64_t fallback_rows = 0;
};

struct QueryStats {
  double wall_seconds = 0;
  /// Rows/bytes the scans READ — including rows a lowered scan predicate
  /// rejected before assembly (those additionally count in
  /// rows_filtered_pre_assembly; they are scanned-but-filtered, not dropped
  /// from accounting).
  uint64_t rows_scanned = 0;
  uint64_t bytes_scanned = 0;
  uint64_t rows_filtered_pre_assembly = 0;
  size_t schema_broadcast_bytes = 0;
  /// Access path the plan picker chose ("" when the query ran unplanned) and
  /// its selectivity estimate — see query/planner.h.
  std::string plan;
  double plan_selectivity = 0;
  /// Per-operator batch/row/byte counters of the vectorized engine.
  std::vector<QueryOpCounters> operators;
};

/// Folds one partition's VecCounterSet into `stats->operators` (match by
/// operator name, append new names).
void MergeVecCounters(const VecCounterSet& partition_counters, QueryStats* stats);

/// Everything a per-partition pipeline factory gets to work with.
struct PartitionContext {
  DatasetPartition* partition = nullptr;
  const RecordAccessor* accessor = nullptr;  // bound to this partition's schema
  ScanCounters* counters = nullptr;
  const SchemaRegistry* registry = nullptr;  // schema broadcast (may be empty)
  /// Coherent snapshot of the partition's trees, pinned for the whole query:
  /// scans, secondary-index probes, and primary lookups of one pipeline all
  /// see the same LSM state, and concurrent flush/merge never blocks (or is
  /// observed by) the query. Pass to the scan (MakeVecScan) and to
  /// LookupOperator.
  const PartitionReadView* view = nullptr;
  /// The query's options (batch size, pushdown inside pipeline factories).
  const QueryOptions* options = nullptr;
  /// This partition's per-operator counter registry (vectorized pipelines).
  VecCounterSet* vec_counters = nullptr;
};

using PipelineFactory =
    std::function<Result<std::unique_ptr<Operator>>(const PartitionContext&)>;
/// Consumes rows on the partition's thread; one sink per partition, so no
/// synchronization is needed inside.
using RowSink = std::function<Status(Row&&)>;
using SinkFactory = std::function<RowSink(int partition)>;

/// Runs the query; returns aggregate stats. Errors from any partition abort
/// the query.
Result<QueryStats> RunPartitioned(Dataset* dataset, const QueryOptions& options,
                                  const PipelineFactory& make_pipeline,
                                  const SinkFactory& make_sink);

}  // namespace tc

#endif  // TC_QUERY_EXECUTOR_H_
