// Cluster substrate for the scale-out experiments (paper §4.5): nodes are
// simulated as thread groups in one process; each node runs a data feed that
// hash-partitions records into the shared dataset (paper §2.2), and queries
// execute with one executor per partition. Weak scaling: total data volume
// grows with the node count, as in the paper's 4/8/16/32-node runs.
//
// Background work is NOT thread-per-feed: the harness owns one nproc-sized
// TaskPool shared by every partition's LSM trees, so flush builds and merges
// from all feeds are scheduled onto a bounded executor instead of running
// caller-runs on whichever feed thread happened to fill a memtable (what a
// dataset without a pool does). A feed thread
// pays only the WAL append + memtable update + generation swap; each tree
// runs at most one merge at a time, with kDefaultMaxPendingFlushBuilds
// bounding its queued builds (backpressure).
#ifndef TC_CLUSTER_CLUSTER_H_
#define TC_CLUSTER_CLUSTER_H_

#include <memory>
#include <string>

#include "common/task_pool.h"
#include "core/dataset.h"
#include "workload/workload.h"

namespace tc {

struct ClusterTopology {
  size_t nodes = 1;
  size_t partitions_per_node = 2;  // the paper's NCs run two data partitions
  /// Worker threads of the shared flush/merge executor; 0 = one per hardware
  /// thread (TaskPool::DefaultThreadCount).
  size_t executor_threads = 0;
};

class ClusterHarness {
 public:
  /// Opens a dataset with nodes x partitions_per_node partitions, all wired
  /// to the harness's shared merge executor. Each partition gets its own
  /// write budget of `options.memtable_budget_bytes`; a caller that wants one
  /// budget across every partition sets `options.arbiter`.
  static Result<std::unique_ptr<ClusterHarness>> Create(ClusterTopology topology,
                                                        DatasetOptions options);

  /// Runs one data feed per node in parallel; each feed generates
  /// `records_per_node` records with node-disjoint primary keys and inserts
  /// them (hash-partitioned) into the dataset. Returns after the feeds join
  /// AND the scheduled background merges drain, so ingest timings stay
  /// comparable with the caller-runs path.
  Status IngestParallel(const std::string& workload, uint64_t records_per_node,
                        uint64_t seed);

  Dataset* dataset() { return dataset_.get(); }
  TaskPool* executor() { return executor_.get(); }
  const ClusterTopology& topology() const { return topology_; }

 private:
  ClusterHarness() = default;

  ClusterTopology topology_;
  // Declaration order is destruction order in reverse: the dataset must be
  // destroyed first (its trees wait out their scheduled merges), then the
  // executor joins its idle workers.
  std::unique_ptr<TaskPool> executor_;
  std::unique_ptr<Dataset> dataset_;
};

}  // namespace tc

#endif  // TC_CLUSTER_CLUSTER_H_
