#include "query/vec/hash_join.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <utility>

#include "query/vec/vec_operator.h"

namespace tc {
namespace {

/// The int64 join key of row `r`, or false: missing/null keys never match
/// (equi-join null semantics), nor do booleans (int-STORED but not
/// int-FAMILY), points and nested values. A string, binary, uuid or
/// floating-point key is an error: the int64 table cannot hash it, and
/// treating it as "never matches" would return a silently empty join.
Result<bool> Int64KeyAt(const ColumnVector& col, size_t r, int64_t* out) {
  if (!col.HasValueAt(r)) return false;
  AdmTag t = col.TagAt(r);
  if (IsVariableLengthScalar(t) || t == AdmTag::kUuid || IsFloatFamily(t)) {
    return Status::NotSupported(std::string("hash join key of type ") +
                                AdmTagName(t) + ": keys must be integers");
  }
  if (!IsIntFamily(t)) return false;
  if (col.kind() == ColumnVector::Kind::kInt64) {
    *out = col.Int64At(r);
  } else {
    *out = col.ValueAt(r).int_value();
  }
  return true;
}

/// One build partition's table: duplicate keys chain through `next` (both
/// head and next store row index + 1; 0 = end), rows live in a ColumnBatch
/// store with columns [key, build_paths...].
struct BuildTable {
  std::unordered_map<int64_t, uint32_t> head;
  std::vector<uint32_t> next;
  ColumnBatch store;
  bool in_wave = false;

  size_t ByteSize() const {
    return store.ByteSize() + next.capacity() * sizeof(uint32_t) +
           head.size() * (sizeof(int64_t) + 2 * sizeof(uint32_t) + sizeof(void*));
  }
};

std::vector<FieldPath> ParseJoinPaths(const std::string& key,
                                      const std::vector<std::string>& extra) {
  std::vector<FieldPath> out;
  out.reserve(1 + extra.size());
  out.push_back(FieldPath::Parse(key));
  for (const std::string& p : extra) out.push_back(FieldPath::Parse(p));
  return out;
}

/// The context of one join side's scan over a pinned view. The join has no
/// QueryOptions: its knobs go to MakeVecScan directly.
PartitionContext SideContext(DatasetPartition* partition,
                             const RecordAccessor* accessor,
                             ScanCounters* counters,
                             const PartitionReadView* view, VecCounterSet* vc) {
  PartitionContext ctx;
  ctx.partition = partition;
  ctx.accessor = accessor;
  ctx.counters = counters;
  ctx.view = view;
  ctx.vec_counters = vc;
  return ctx;
}

}  // namespace

Result<JoinStats> HashJoinDatasets(Dataset* build, Dataset* probe,
                                   const JoinSpec& spec,
                                   const BatchSinkFactory& make_sink) {
  auto start = std::chrono::steady_clock::now();
  const size_t bn = build->partition_count();
  const size_t pn = probe->partition_count();
  const size_t budget = spec.build_budget_bytes > 0
                            ? spec.build_budget_bytes
                            : kDefaultJoinBuildBudgetBytes;

  const std::vector<FieldPath> build_cols =
      ParseJoinPaths(spec.build_key, spec.build_paths);
  const std::vector<FieldPath> probe_cols =
      ParseJoinPaths(spec.probe_key, spec.probe_paths);
  const size_t nb = build_cols.size();
  const size_t out_width = nb + probe_cols.size();

  // Pin every partition of both sides for the join's whole lifetime: later
  // waves re-scan the probe side (and load remaining build partitions) from
  // the SAME snapshot, so concurrent ingest never skews cross-wave results.
  std::vector<PartitionReadView> build_views(bn), probe_views(pn);
  std::vector<std::unique_ptr<RecordAccessor>> build_acc, probe_acc;
  build_acc.reserve(bn);
  probe_acc.reserve(pn);
  for (size_t i = 0; i < bn; ++i) {
    build_views[i] = build->partition(i)->AcquireReadView();
    DatasetPartition* p = build->partition(i);
    build_acc.push_back(std::make_unique<RecordAccessor>(
        p->options().mode, &p->options().type, p->SchemaSnapshot(),
        spec.consolidate_field_access));
  }
  for (size_t i = 0; i < pn; ++i) {
    probe_views[i] = probe->partition(i)->AcquireReadView();
    DatasetPartition* p = probe->partition(i);
    probe_acc.push_back(std::make_unique<RecordAccessor>(
        p->options().mode, &p->options().type, p->SchemaSnapshot(),
        spec.consolidate_field_access));
  }

  JoinStats stats;
  std::vector<ScanCounters> build_sc(bn), probe_sc(pn);
  VecCounterSet build_vc;
  std::vector<VecCounterSet> probe_vc(pn);
  std::vector<char> built(bn, 0);
  size_t remaining = bn;

  while (remaining > 0) {
    ++stats.passes;
    std::vector<BuildTable> tables(bn);
    size_t wave_bytes = 0;
    size_t in_wave = 0;
    bool wave_full = false;

    // ---- build: load as many remaining partitions as the budget admits ----
    for (size_t bp = 0; bp < bn && !wave_full; ++bp) {
      if (built[bp]) continue;
      BuildTable& t = tables[bp];
      t.store.Reset(nb);
      std::unique_ptr<VecOperator> op =
          MakeVecScan(SideContext(build->partition(bp), build_acc[bp].get(),
                                  &build_sc[bp], &build_views[bp], &build_vc),
                      ScanSpec{build_cols, false, spec.build_predicate},
                      spec.pushdown_scan_predicates, spec.batch_rows,
                      "join_build_scan", "join_filter")
              .op;
      TC_RETURN_IF_ERROR(op->Open());
      ColumnBatch batch;
      Status key_st = Status::OK();
      while (key_st.ok()) {
        TC_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
        if (!more) break;
        batch.ForEachActive([&](size_t r) {
          if (!key_st.ok()) return;
          int64_t key;
          Result<bool> has_key = Int64KeyAt(batch.cols[0], r, &key);
          if (!has_key.ok()) key_st = has_key.status();
          if (!has_key.ok() || !has_key.value()) return;
          uint32_t idx = static_cast<uint32_t>(t.store.rows);
          for (size_t c = 0; c < nb; ++c) {
            t.store.cols[c].AppendFrom(batch.cols[c], r);
          }
          ++t.store.rows;
          uint32_t& h = t.head[key];
          t.next.push_back(h);
          h = idx + 1;
        });
      }
      TC_RETURN_IF_ERROR(key_st);

      // Admission: the wave's FIRST partition always stays (progress
      // guarantee), later ones stay only if the budget admits them; a
      // rejected partition is dropped and reloaded next wave.
      size_t tbytes = t.ByteSize();
      if (in_wave > 0 && wave_bytes + tbytes > budget) {
        t = BuildTable{};
        wave_full = true;
        continue;
      }
      wave_bytes += tbytes;
      t.in_wave = true;
      built[bp] = 1;
      ++in_wave;
      --remaining;
      if (wave_bytes >= budget) wave_full = true;
    }
    if (wave_bytes > stats.build_bytes_peak) stats.build_bytes_peak = wave_bytes;

    // ---- probe: one full pass, parallel over probe partitions -------------
    std::vector<Status> statuses(pn, Status::OK());
    std::atomic<size_t> next_part{0};
    auto worker = [&]() {
      while (true) {
        size_t i = next_part.fetch_add(1);
        if (i >= pn) return;
        BatchSink sink = make_sink(static_cast<int>(i));
        VecScanPipeline scan = MakeVecScan(
            SideContext(probe->partition(i), probe_acc[i].get(), &probe_sc[i],
                        &probe_views[i], &probe_vc[i]),
            ScanSpec{probe_cols, false, spec.probe_predicate},
            spec.pushdown_scan_predicates, spec.batch_rows, "join_probe_scan",
            "join_filter");
        ColumnBatch out;
        out.Reset(out_width);
        out.partition = static_cast<int32_t>(i);
        uint64_t emitted = 0;

        auto flush = [&]() -> Status {
          if (out.rows == 0) return Status::OK();
          TC_RETURN_IF_ERROR(sink(out));
          emitted += out.rows;
          out.Reset(out_width);
          return Status::OK();
        };
        // Emits every build match of (probe key, probe row materializer).
        auto emit_matches = [&](int64_t key,
                                const std::function<void()>& add_probe_cols)
            -> Status {
          const BuildTable& t = tables[build->PartitionOf(key)];
          if (!t.in_wave) return Status::OK();  // a later wave's partition
          auto it = t.head.find(key);
          if (it == t.head.end()) return Status::OK();
          for (uint32_t link = it->second; link != 0; link = t.next[link - 1]) {
            size_t b = link - 1;
            for (size_t c = 0; c < nb; ++c) {
              out.cols[c].AppendFrom(t.store.cols[c], b);
            }
            add_probe_cols();
            ++out.rows;
            if (out.rows >= scan.batch_rows) TC_RETURN_IF_ERROR(flush());
          }
          return Status::OK();
        };

        Status st = scan.op->Open();
        ColumnBatch batch;
        while (st.ok()) {
          auto more = scan.op->Next(&batch);
          if (!more.ok()) {
            st = more.status();
            break;
          }
          if (!more.value()) break;
          batch.ForEachActive([&](size_t r) {
            if (!st.ok()) return;
            int64_t key;
            Result<bool> has_key = Int64KeyAt(batch.cols[0], r, &key);
            if (!has_key.ok()) st = has_key.status();
            if (!has_key.ok() || !has_key.value()) return;
            st = emit_matches(key, [&]() {
              for (size_t c = 0; c < probe_cols.size(); ++c) {
                out.cols[nb + c].AppendFrom(batch.cols[c], r);
              }
            });
          });
        }
        if (st.ok()) st = flush();
        if (!st.ok()) {
          statuses[i] = st;
          return;
        }
        VecOpCounters* jc = probe_vc[i].For("join_probe");
        jc->batches += 1;
        jc->rows += emitted;
      }
    };

    size_t n_threads = spec.max_threads == 0 ? pn : spec.max_threads;
    n_threads = std::min(n_threads, pn);
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (size_t t = 0; t < n_threads; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
    for (const Status& st : statuses) {
      if (!st.ok()) return st;
    }
  }

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const auto& c : build_sc) stats.build_rows += c.rows;
  for (const auto& c : probe_sc) stats.probe_rows += c.rows;
  QueryStats merged;
  MergeVecCounters(build_vc, &merged);
  for (const auto& vc : probe_vc) MergeVecCounters(vc, &merged);
  stats.operators = std::move(merged.operators);
  for (const QueryOpCounters& oc : stats.operators) {
    if (oc.name == "join_probe") stats.output_rows = oc.rows;
  }
  return stats;
}

}  // namespace tc
