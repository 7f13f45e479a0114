// Shared infrastructure for the figure/table reproduction benches. Every
// bench ingests generated workload data into a real (POSIX) directory so
// compression and storage effects are physical, optionally throttled through
// the DeviceModel to reproduce the paper's SATA-vs-NVMe axis, and prints
// paper-style result rows. Scale with TC_BENCH_MB (default 12; the paper used
// 122-253 GB — shapes, not absolute numbers, are the reproduction target).
#ifndef TC_BENCH_BENCH_UTIL_H_
#define TC_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "adm/printer.h"
#include "common/env_config.h"
#include "common/rng.h"
#include "core/dataset.h"
#include "query/paper_queries.h"
#include "storage/device_model.h"
#include "workload/workload.h"

namespace tc {
namespace bench {

struct BenchConfig {
  std::string workload = "twitter";
  SchemaMode mode = SchemaMode::kInferred;
  bool compression = false;
  DeviceProfile device = DeviceProfile::Unthrottled();
  size_t partitions = 4;
  size_t page_size = 32 * 1024;
  size_t cache_pages = 192;  // ~6 MB: deliberately smaller than the data
  size_t memtable_mb = 2;
  size_t memtable_bytes = 0;  // overrides memtable_mb when nonzero
  uint64_t max_mergeable_mb = 24;
  size_t tolerance = 5;
  /// Merge-policy name for this run ("prefix", "tiered", "lazy-leveled",
  /// "none"); empty defers to TC_MERGE_POLICY / the prefix
  /// default. An explicit name wins over the environment so the fig17/fig24
  /// policy-axis sections stay comparable under any TC_MERGE_POLICY.
  std::string merge_policy;
  bool primary_key_index = false;
  std::string secondary_index_field;
  bool use_wal = true;
  size_t wal_sync_every = 0;  // benches run without fsync (MemFS-equivalent)
  uint64_t seed = 42;
  /// Executor for flush builds + merges (not owned; must outlive the
  /// dataset). Null = caller-runs: each flush finishes its build and merge
  /// cascade on the ingesting thread, the deterministic bench default.
  TaskPool* merge_pool = nullptr;
  /// Per-tree concurrent-merge cap when merge_pool is set (fig17 section e
  /// compares 1 — the old single-inflight scheduler — against higher caps).
  /// 0 = defer to TC_MERGE_CONCURRENT / the FromEnv default, like the other
  /// merge knobs.
  size_t max_concurrent_merges = 0;
  /// Per-component bloom-filter sizing for the fig24 filter axis: -1 defers
  /// to TC_BLOOM_BITS_PER_KEY / the FromEnv default, 0 disables filters, any
  /// other value is bits per key.
  int bloom_bits_per_key = -1;
};

struct BenchDataset {
  BenchConfig config;
  std::string dir;
  std::shared_ptr<FileSystem> fs;
  std::shared_ptr<DeviceModel> device;
  std::unique_ptr<BufferCache> cache;
  std::unique_ptr<Dataset> dataset;

  ~BenchDataset() {
    dataset.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

inline std::unique_ptr<BenchDataset> OpenBench(const BenchConfig& cfg) {
  static int counter = 0;
  auto bd = std::make_unique<BenchDataset>();
  bd->config = cfg;
  bd->dir = "/tmp/tcdb_bench_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++);
  std::filesystem::create_directories(bd->dir);
  bd->fs = MakePosixFileSystem();
  bd->device = std::make_shared<DeviceModel>(cfg.device);
  bd->fs->set_device(bd->device);
  bd->cache = std::make_unique<BufferCache>(cfg.page_size, cfg.cache_pages);

  DatasetOptions o;
  o.name = "bench";
  o.dir = bd->dir;
  o.mode = cfg.mode;
  o.compression = cfg.compression;
  o.page_size = cfg.page_size;
  o.memtable_budget_bytes =
      cfg.memtable_bytes != 0 ? cfg.memtable_bytes : cfg.memtable_mb << 20;
  MergePolicyConfig merge_defaults;
  merge_defaults.max_mergeable_bytes = cfg.max_mergeable_mb << 20;
  merge_defaults.max_tolerance_count = cfg.tolerance;
  o.merge = MergePolicyConfig::FromEnv(merge_defaults);
  if (!cfg.merge_policy.empty()) {
    TC_CHECK(ParseMergePolicyKind(cfg.merge_policy, &o.merge.kind));
  }
  o.merge_pool = cfg.merge_pool;
  if (cfg.max_concurrent_merges != 0) {
    // An explicit bench axis (fig17 section e) wins over the environment so
    // its single-vs-concurrent comparison stays meaningful under any
    // TC_MERGE_CONCURRENT.
    o.merge.max_concurrent_merges = cfg.max_concurrent_merges;
  }
  if (cfg.bloom_bits_per_key >= 0) {
    o.filter.bits_per_key = static_cast<size_t>(cfg.bloom_bits_per_key);
  }
  o.use_wal = cfg.use_wal;
  o.wal_sync_every = cfg.wal_sync_every;
  o.primary_key_index = cfg.primary_key_index;
  o.secondary_index_field = cfg.secondary_index_field;
  o.fs = bd->fs;
  o.cache = bd->cache.get();
  if (cfg.mode == SchemaMode::kClosed) {
    o.type = MakeGenerator(cfg.workload, cfg.seed)->ClosedType();
  }
  auto ds = Dataset::Open(std::move(o), cfg.partitions);
  TC_CHECK(ds.ok());
  bd->dataset = std::move(ds).value();
  return bd;
}

struct IngestResult {
  uint64_t records = 0;
  uint64_t raw_bytes = 0;  // ADM-text size of the generated data
  double seconds = 0;
};

/// Continuous feed ingestion until `target_mb` of raw data. With
/// `update_fraction` > 0, that fraction of operations are upserts of
/// previously ingested keys with mutated shapes (adds/removes fields, changes
/// types) — the Figure 17b workload.
inline IngestResult IngestFeed(BenchDataset* bd, int64_t target_mb,
                               double update_fraction = 0.0) {
  auto gen = MakeGenerator(bd->config.workload, bd->config.seed);
  Rng rng(bd->config.seed ^ 0xfeed);
  IngestResult r;
  uint64_t target = static_cast<uint64_t>(target_mb) << 20;
  auto start = std::chrono::steady_clock::now();
  std::vector<int64_t> keys;
  while (r.raw_bytes < target) {
    AdmValue rec = gen->NextRecord();
    bool update = !keys.empty() && rng.Bernoulli(update_fraction);
    if (update) {
      int64_t victim = keys[rng.Uniform(keys.size())];
      // Mutate the record into an update of the victim key.
      for (size_t f = 0; f < rec.field_count(); ++f) {
        if (rec.field_name(f) == "id") {
          rec.field_value(f) = AdmValue::BigInt(victim);
          break;
        }
      }
      switch (rng.Uniform(3)) {
        case 0:
          rec.AddField("update_note", AdmValue::String(rng.AlphaString(12)));
          break;
        case 1:
          rec.RemoveField("lang");
          break;
        default:
          rec.AddField("revision", rng.Bernoulli(0.5)
                                       ? AdmValue::BigInt(1)
                                       : AdmValue::String("one"));
          break;
      }
      Status st = bd->dataset->Upsert(rec);
      TC_CHECK(st.ok());
    } else {
      const AdmValue* id = rec.FindField("id");
      keys.push_back(id->int_value());
      Status st = update_fraction > 0 ? bd->dataset->Upsert(rec)
                                      : bd->dataset->Insert(rec);
      TC_CHECK(st.ok());
    }
    r.raw_bytes += PrintAdm(rec).size();
    ++r.records;
  }
  Status st = bd->dataset->FlushAll();
  TC_CHECK(st.ok());
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

/// Batched feed ingestion until `target_mb` of raw data: records are handed
/// to Dataset::InsertBatch in `batch_size`-record groups, so the WAL syncs
/// once per group instead of once per record (the fig17 batch axis).
/// batch_size == 1 measures the single-record path through the same API.
inline IngestResult IngestFeedBatched(BenchDataset* bd, int64_t target_mb,
                                      size_t batch_size) {
  auto gen = MakeGenerator(bd->config.workload, bd->config.seed);
  IngestResult r;
  uint64_t target = static_cast<uint64_t>(target_mb) << 20;
  auto start = std::chrono::steady_clock::now();
  std::vector<AdmValue> batch;
  batch.reserve(batch_size);
  auto submit = [&]() {
    Status st = bd->dataset->InsertBatch(batch);
    TC_CHECK(st.ok());
    batch.clear();
  };
  while (r.raw_bytes < target) {
    batch.push_back(gen->NextRecord());
    r.raw_bytes += PrintAdm(batch.back()).size();
    ++r.records;
    if (batch.size() >= batch_size) submit();
  }
  if (!batch.empty()) submit();
  Status st = bd->dataset->FlushAll();
  TC_CHECK(st.ok());
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

/// Batched feed with updates: like IngestFeedBatched, but `update_fraction`
/// of the records re-key to previously ingested pks (with mutated shapes, as
/// in IngestFeed's update path) and every group goes through
/// Dataset::UpsertBatch — the fig17 section (f) upsert column.
inline IngestResult IngestFeedBatchedUpsert(BenchDataset* bd, int64_t target_mb,
                                            size_t batch_size,
                                            double update_fraction = 0.5) {
  auto gen = MakeGenerator(bd->config.workload, bd->config.seed);
  Rng rng(bd->config.seed ^ 0xfeed);
  IngestResult r;
  uint64_t target = static_cast<uint64_t>(target_mb) << 20;
  auto start = std::chrono::steady_clock::now();
  std::vector<int64_t> keys;
  std::vector<AdmValue> batch;
  batch.reserve(batch_size);
  auto submit = [&]() {
    Status st = bd->dataset->UpsertBatch(batch);
    TC_CHECK(st.ok());
    batch.clear();
  };
  while (r.raw_bytes < target) {
    AdmValue rec = gen->NextRecord();
    if (!keys.empty() && rng.Bernoulli(update_fraction)) {
      int64_t victim = keys[rng.Uniform(keys.size())];
      for (size_t f = 0; f < rec.field_count(); ++f) {
        if (rec.field_name(f) == "id") {
          rec.field_value(f) = AdmValue::BigInt(victim);
          break;
        }
      }
      rec.AddField("update_note", AdmValue::String(rng.AlphaString(12)));
    } else {
      keys.push_back(rec.FindField("id")->int_value());
    }
    r.raw_bytes += PrintAdm(rec).size();
    ++r.records;
    batch.push_back(std::move(rec));
    if (batch.size() >= batch_size) submit();
  }
  if (!batch.empty()) submit();
  Status st = bd->dataset->FlushAll();
  TC_CHECK(st.ok());
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

/// Bulk load (paper §4.3): generate, sort, build one component per partition.
inline IngestResult IngestBulkLoad(BenchDataset* bd, int64_t target_mb) {
  auto gen = MakeGenerator(bd->config.workload, bd->config.seed);
  IngestResult r;
  uint64_t target = static_cast<uint64_t>(target_mb) << 20;
  std::vector<AdmValue> records;
  while (r.raw_bytes < target) {
    records.push_back(gen->NextRecord());
    r.raw_bytes += PrintAdm(records.back()).size();
    ++r.records;
  }
  auto start = std::chrono::steady_clock::now();
  Status st = bd->dataset->BulkLoad(std::move(records));
  TC_CHECK(st.ok());
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

/// Shared configuration of the fig17(d) and fig24 merge-policy axes: the two
/// benches must measure the same schedules over the same data to stay
/// cross-referencable (fig17's TC_FIG17_ASSERT checks what fig24 displays).
inline BenchConfig PolicyAxisConfig(const char* policy) {
  BenchConfig cfg;
  cfg.workload = "twitter";
  cfg.mode = SchemaMode::kInferred;
  cfg.device = DeviceProfile::NvmeSsd();
  cfg.partitions = 2;
  // A small memtable yields enough flushes per partition that the merge
  // schedules actually diverge at bench scale.
  cfg.memtable_bytes = 128 * 1024;
  cfg.merge_policy = policy;
  return cfg;
}

/// Worst-partition live component count — the cost one point lookup pays.
inline size_t MaxPrimaryComponentsPerPartition(Dataset* ds) {
  size_t components = 0;
  for (size_t p = 0; p < ds->partition_count(); ++p) {
    components =
        std::max(components, ds->partition(p)->primary()->component_count());
  }
  return components;
}

inline double MiB(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

inline const char* OnOff(bool b) { return b ? "yes" : "no"; }

/// Times one call of `fn`.
template <typename Fn>
double TimeIt(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

inline void PrintBanner(const char* figure, const char* what) {
  std::printf("\n=== %s: %s ===\n", figure, what);
  std::printf("(TC_BENCH_MB=%lld raw MB per dataset; paper scale was 122-253 GB;\n"
              " compare shapes/ratios, not absolute numbers)\n\n",
              static_cast<long long>(BenchMegabytes()));
}

}  // namespace bench
}  // namespace tc

#endif  // TC_BENCH_BENCH_UTIL_H_
