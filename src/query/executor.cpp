#include "query/executor.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "query/vec/vec_operator.h"

namespace tc {

void MergeVecCounters(const VecCounterSet& partition_counters, QueryStats* stats) {
  for (const auto& e : partition_counters.entries()) {
    QueryOpCounters* cell = nullptr;
    for (QueryOpCounters& c : stats->operators) {
      if (c.name == e->first) {
        cell = &c;
        break;
      }
    }
    if (cell == nullptr) {
      stats->operators.emplace_back();
      cell = &stats->operators.back();
      cell->name = e->first;
    }
    cell->batches += e->second.batches;
    cell->rows += e->second.rows;
    cell->bytes += e->second.bytes;
    cell->fallback_rows += e->second.fallback_rows;
  }
}

Result<QueryStats> RunPartitionedBatches(Dataset* dataset,
                                         const QueryOptions& options,
                                         const VecPipelineFactory& make_pipeline,
                                         const BatchSinkFactory& make_sink) {
  auto start = std::chrono::steady_clock::now();
  size_t n = dataset->partition_count();

  // Pin one coherent view triple per partition for the query's lifetime,
  // BEFORE taking any schema snapshot (the broadcast registry below and the
  // per-partition accessors): schemas only grow, so a snapshot taken after
  // the view covers every record the view can surface.
  std::vector<PartitionReadView> views(n);
  for (size_t i = 0; i < n; ++i) {
    views[i] = dataset->partition(i)->AcquireReadView();
  }

  SchemaRegistry registry =
      SchemaRegistry::Collect(dataset, options.has_nonlocal_exchange);

  // Per-partition accessors bound to the partition's own schema snapshot.
  std::vector<std::unique_ptr<RecordAccessor>> accessors;
  std::vector<ScanCounters> counters(n);
  accessors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    DatasetPartition* p = dataset->partition(i);
    accessors.push_back(std::make_unique<RecordAccessor>(
        p->options().mode, &p->options().type, p->SchemaSnapshot(),
        options.consolidate_field_access));
  }

  size_t max_threads = options.max_threads == 0 ? n : options.max_threads;
  std::vector<Status> statuses(n, Status::OK());
  std::vector<VecCounterSet> vec_counters(n);
  std::atomic<size_t> next{0};

  // Runs partition `index`'s pipeline to completion on the calling thread.
  auto run_partition = [&](const PartitionContext& ctx, int index) -> Status {
    TC_ASSIGN_OR_RETURN(std::unique_ptr<VecOperator> op, make_pipeline(ctx));
    BatchSink sink = make_sink(index);
    VecOpCounters* sink_counters = ctx.vec_counters->For("sink");
    TC_RETURN_IF_ERROR(op->Open());
    ColumnBatch batch;
    while (true) {
      TC_ASSIGN_OR_RETURN(bool has, op->Next(&batch));
      if (!has) return Status::OK();
      ++sink_counters->batches;
      sink_counters->rows += batch.ActiveRows();
      TC_RETURN_IF_ERROR(sink(batch));
    }
  };

  auto worker = [&]() {
    while (true) {
      size_t i = next.fetch_add(1);
      if (i >= n) return;
      PartitionContext ctx;
      ctx.partition = dataset->partition(i);
      ctx.accessor = accessors[i].get();
      ctx.counters = &counters[i];
      ctx.registry = &registry;
      ctx.view = &views[i];
      ctx.options = &options;
      ctx.vec_counters = &vec_counters[i];
      statuses[i] = run_partition(ctx, static_cast<int>(i));
      if (!statuses[i].ok()) return;
    }
  };

  size_t n_threads = std::min(max_threads, n);
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (size_t t = 0; t < n_threads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }

  QueryStats stats;
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const auto& c : counters) {
    stats.rows_scanned += c.rows;
    stats.bytes_scanned += c.bytes;
    stats.rows_filtered_pre_assembly += c.filtered_pre_assembly;
  }
  for (const auto& vc : vec_counters) MergeVecCounters(vc, &stats);
  stats.schema_broadcast_bytes = registry.broadcast_bytes();
  return stats;
}

}  // namespace tc
