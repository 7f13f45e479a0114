#include "cluster/cluster.h"

#include <thread>
#include <vector>

#include "core/ingest.h"

namespace tc {

Result<std::unique_ptr<ClusterHarness>> ClusterHarness::Create(
    ClusterTopology topology, DatasetOptions options) {
  auto h = std::unique_ptr<ClusterHarness>(new ClusterHarness());
  h->topology_ = topology;
  // One bounded executor for ALL partitions' background work — flush builds
  // and (concurrent, disjoint) merges: feeds hand rewrites off instead of
  // running them caller-runs, and total background parallelism tracks the
  // hardware, not the feed count.
  h->executor_ = std::make_unique<TaskPool>(topology.executor_threads);
  options.merge_pool = h->executor_.get();
  if (options.arbiter == nullptr) {
    // One node-level budget for all partitions' memtables plus the shared
    // buffer cache, enabled by TC_MEMORY_BUDGET (> 0).
    MemoryArbiter::Options ao = MemoryArbiter::FromEnv(options.cache);
    if (ao.total_budget_bytes > 0) {
      h->arbiter_ = std::make_unique<MemoryArbiter>(ao);
      options.arbiter = h->arbiter_.get();
    }
  }
  TC_ASSIGN_OR_RETURN(
      h->dataset_,
      Dataset::Open(std::move(options),
                    topology.nodes * topology.partitions_per_node));
  return h;
}

Status ClusterHarness::IngestParallel(const std::string& workload,
                                      uint64_t records_per_node, uint64_t seed) {
  size_t nodes = topology_.nodes;
  // Batched handoff: feeds build ~kFeedBatch-record batches and Submit() them
  // to the group-committing front end instead of calling Insert() per record.
  // The front end's per-partition writers turn concurrent submissions into
  // one WAL write + sync per commit group. Bounding the unwaited tickets per
  // feed keeps producer memory flat when the LSM backpressures.
  constexpr size_t kFeedBatch = 256;
  constexpr size_t kMaxOutstanding = 4;
  IngestFrontEnd front_end(dataset_.get());
  std::vector<Status> statuses(nodes, Status::OK());
  std::vector<std::thread> feeds;
  feeds.reserve(nodes);
  for (size_t node = 0; node < nodes; ++node) {
    feeds.emplace_back([&, node]() {
      auto gen = MakeGenerator(workload, seed + node);
      std::vector<AdmValue> batch;
      batch.reserve(kFeedBatch);
      std::vector<IngestTicket> outstanding;
      auto wait_one = [&]() -> Status {
        Status st = outstanding.front().Wait();
        outstanding.erase(outstanding.begin());
        return st;
      };
      for (uint64_t i = 0; i < records_per_node && statuses[node].ok(); ++i) {
        AdmValue rec = gen->NextRecord();
        // Re-key so primary keys are disjoint across nodes' feeds.
        for (size_t f = 0; f < rec.field_count(); ++f) {
          if (rec.field_name(f) == "id") {
            int64_t orig = rec.field_value(f).int_value();
            rec.field_value(f) = AdmValue::BigInt(
                orig * static_cast<int64_t>(nodes) + static_cast<int64_t>(node));
            break;
          }
        }
        batch.push_back(std::move(rec));
        if (batch.size() >= kFeedBatch) {
          outstanding.push_back(front_end.Submit(std::move(batch)));
          batch.clear();
          batch.reserve(kFeedBatch);
          if (outstanding.size() >= kMaxOutstanding) statuses[node] = wait_one();
        }
      }
      if (statuses[node].ok() && !batch.empty()) {
        outstanding.push_back(front_end.Submit(std::move(batch)));
      }
      while (!outstanding.empty()) {
        Status st = wait_one();
        if (statuses[node].ok()) statuses[node] = st;
      }
    });
  }
  for (auto& t : feeds) t.join();
  TC_RETURN_IF_ERROR(front_end.Drain());
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  // Settle the scheduled merges so callers time (and observe) a quiesced
  // dataset, as the caller-runs path always does.
  return dataset_->WaitForBackgroundWork();
}

}  // namespace tc
