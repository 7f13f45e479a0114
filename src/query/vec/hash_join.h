// Partitioned hash join over two datasets (the engine's first cross-dataset
// plan shape): build-side partitions are scanned through the vectorized scan
// into in-memory chained hash tables, then the probe side streams batches
// against them and emits joined ColumnBatches to per-partition sinks.
//
// Memory discipline (grace-style waves): the build tables are query scratch
// charged against the memory arbiter's READ share (MemoryArbiter::
// TryChargeQuery) and additionally capped by an explicit budget
// (TC_JOIN_BUILD_BUDGET). When the next build partition does not fit, the
// wave closes: the loaded subset is probed by a FULL probe-side pass (rows
// hashing to out-of-wave build partitions are skipped), the tables are freed,
// and the next wave loads the remaining build partitions from the SAME pinned
// read views. LSM read snapshots make the re-scan coherent — the classic
// grace-join disk spill is replaced by re-reading immutable components, which
// is exactly what an LSM gives us for free. `JoinStats::passes` counts waves;
// a join that fits is one pass.
//
// Keys are int64 (the repo's primary-key/secondary-key domain): rows whose
// key is missing or null never match, on either side — standard equi-join
// null semantics — and neither do boolean, point or nested keys. A string,
// binary, uuid or floating-point key fails the join with NotSupported rather
// than silently matching nothing.
//
// No schema broadcast is needed even though probe rows are routed by key hash
// across build partitions: both sides' columns are extracted into typed
// vectors by scans bound to each partition's OWN schema snapshot before any
// row crosses a partition boundary.
#ifndef TC_QUERY_VEC_HASH_JOIN_H_
#define TC_QUERY_VEC_HASH_JOIN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "query/executor.h"
#include "query/scan_predicate.h"
#include "query/vec/column_batch.h"

namespace tc {

/// TC_JOIN_BUILD_BUDGET (bytes; default 32 MiB): cap on in-memory build-table
/// bytes per wave when JoinSpec::build_budget_bytes is 0.
size_t JoinBuildBudgetFromEnv();

struct JoinSpec {
  /// Equi-join key paths (top-level or dotted; must resolve to int64 values,
  /// see the key note above).
  std::string build_key;
  std::string probe_key;
  /// Extra columns carried through the join, extracted alongside the keys.
  std::vector<std::string> build_paths;
  std::vector<std::string> probe_paths;
  /// Optional pre-join filters, lowered into the respective scans.
  std::shared_ptr<const ScanPredicate> build_predicate;
  std::shared_ptr<const ScanPredicate> probe_predicate;
  /// Build-table byte cap per wave; 0 = TC_JOIN_BUILD_BUDGET. The arbiter's
  /// read share (when the datasets have one attached) is charged on top and
  /// can close a wave earlier.
  size_t build_budget_bytes = 0;
  /// Rows per output/probe batch; 0 = TC_VEC_BATCH_ROWS.
  size_t batch_rows = 0;
  /// Probe-side parallelism (0 = one thread per probe partition). The build
  /// loads sequentially: it is budget-accounted and usually much smaller.
  size_t max_threads = 0;
  bool consolidate_field_access = true;
  bool pushdown_scan_predicates = true;
};

struct JoinStats {
  double wall_seconds = 0;
  uint64_t build_rows = 0;    // rows scanned on the build side (all waves)
  uint64_t probe_rows = 0;    // rows scanned on the probe side (all passes)
  uint64_t output_rows = 0;
  /// Probe passes = waves. 1 means the whole build side fit in budget.
  uint64_t passes = 0;
  size_t build_bytes_peak = 0;
  /// Arbiter TryChargeQuery denials that closed a wave early.
  uint64_t build_budget_denials = 0;
  /// Per-operator batch/row/byte counters (same shape as QueryStats).
  std::vector<QueryOpCounters> operators;
};

/// Consumes joined batches on the probe partition's thread; one sink per
/// probe partition, so no synchronization is needed inside. Column layout:
/// [build_key, build_paths..., probe_key, probe_paths...]. A sink may see
/// multiple batches per partition, and sees each partition once PER WAVE.
using JoinBatchSink = std::function<Status(const ColumnBatch&)>;
using JoinSinkFactory = std::function<JoinBatchSink(int probe_partition)>;

/// Runs the join: pins read views over every partition of both datasets for
/// the whole join, then executes the wave loop described above. The memory
/// arbiter (taken from the datasets' options; they may share one) bounds the
/// build tables when present.
Result<JoinStats> HashJoinDatasets(Dataset* build, Dataset* probe,
                                   const JoinSpec& spec,
                                   const JoinSinkFactory& make_sink);

}  // namespace tc

#endif  // TC_QUERY_VEC_HASH_JOIN_H_
