// Figure 16: total on-disk size after ingesting the Twitter, WoS, and Sensors
// datasets into open / closed / inferred datasets, uncompressed and
// page-compressed, plus the BSON-format ("MongoDB") compressed baseline.
//
// Paper result shape: inferred <= closed < open in every dataset; compression
// narrows the gap; for Sensors the semantic approach (inferred) beats even
// compressed open (4.3x savings uncompressed); combined savings up to ~10x.
//
// Merge axis (paper §4.4 follow-on): the same data ingested schemaless and
// then re-compacted *by the merge pipeline itself* after reopening the
// dataset as inferred — transformed merges should land at (or below) the
// schemaless tree's on-disk size, the bytes a merge splicing payloads
// through would keep, while converging the legacy payloads to the compacted
// format. A second pair of rows shows bottom-merge recompression with the
// heavy codec tier against the uncompressed baseline.
//
// TC_FIG16_MERGE_ASSERT=1 (the CI smoke mode) runs only the merge axis and
// exits non-zero unless (a) transformed merges actually re-compacted records,
// (b) the transformed tree is no larger than the schemaless tree before the
// reopen, and (c) bottom-merge recompression produced a smaller tree than no
// recompression.
#include "bench/bench_util.h"

using namespace tc;
using namespace tc::bench;

namespace {

void RunSizeAxis(int64_t mb) {
  for (const char* workload : {"twitter", "wos", "sensors"}) {
    std::printf("%-8s %-10s %-11s %10s %10s %8s\n", "dataset", "schema",
                "compressed", "size(MiB)", "raw(MiB)", "ratio");
    struct Config {
      SchemaMode mode;
      bool compressed;
      const char* label;
    };
    const Config configs[] = {
        {SchemaMode::kOpen, false, "open"},
        {SchemaMode::kClosed, false, "closed"},
        {SchemaMode::kInferred, false, "inferred"},
        {SchemaMode::kOpen, true, "open"},
        {SchemaMode::kClosed, true, "closed"},
        {SchemaMode::kInferred, true, "inferred"},
        {SchemaMode::kBson, true, "mongodb"},
    };
    for (const Config& c : configs) {
      BenchConfig cfg;
      cfg.workload = workload;
      cfg.mode = c.mode;
      cfg.compression = c.compressed;
      auto bd = OpenBench(cfg);
      IngestResult in = IngestFeed(bd.get(), mb);
      uint64_t size = bd->dataset->TotalPhysicalBytes();
      std::printf("%-8s %-10s %-11s %10.2f %10.2f %7.2fx\n", workload, c.label,
                  OnOff(c.compressed), MiB(size), MiB(in.raw_bytes),
                  static_cast<double>(in.raw_bytes) / static_cast<double>(size));
    }
    std::printf("\n");
  }
}

struct MergeAxisRow {
  uint64_t size = 0;
  uint64_t raw_bytes = 0;
  LsmStats stats;
};

/// Shared scaffolding for the merge axis. BenchDataset cannot be reused here:
/// its destructor wipes the directory, and this axis needs to close a dataset
/// and reopen the same files under a different schema mode / merge config.
struct MergeAxisDirs {
  std::string dir;
  std::shared_ptr<FileSystem> fs = MakePosixFileSystem();
  std::unique_ptr<BufferCache> cache =
      std::make_unique<BufferCache>(32 * 1024, 192);

  explicit MergeAxisDirs(const char* tag) {
    dir = "/tmp/tcdb_bench_fig16m_" + std::to_string(::getpid()) + "_" + tag;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir);
  }
  ~MergeAxisDirs() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  DatasetOptions Base() const {
    DatasetOptions o;
    o.name = "bench";
    o.dir = dir;
    o.page_size = 32 * 1024;
    o.memtable_budget_bytes = 2 << 20;
    o.use_wal = false;
    o.fs = fs;
    o.cache = cache.get();
    return o;
  }
};

/// Ingest `mb` MiB of a workload as schemaless vector-blob records with no
/// merging (so every component keeps the uncompacted wire format) — the
/// `schemaless` row, measured before the reopen — then reopen the same
/// directory as an inferred dataset with a full-cascade uncapped prefix(1)
/// merge policy. The single post-reopen insert + flush drives the legacy
/// components through the merge pipeline, which re-compacts them — the
/// `transformed` row.
void RunTransformRows(const char* workload, int64_t mb,
                      MergeAxisRow* schemaless, MergeAxisRow* transformed) {
  MergeAxisDirs env("t");
  MergeAxisRow row;
  uint64_t target = static_cast<uint64_t>(mb) << 20;
  {
    DatasetOptions o = env.Base();
    o.mode = SchemaMode::kSchemalessVB;
    o.merge.kind = MergePolicyKind::kNoMerge;
    auto ds = Dataset::Open(std::move(o), /*num_partitions=*/1);
    TC_CHECK(ds.ok());
    auto gen = MakeGenerator(workload, /*seed=*/42);
    while (row.raw_bytes < target) {
      AdmValue rec = gen->NextRecord();
      TC_CHECK(ds.value()->Insert(rec).ok());
      row.raw_bytes += PrintAdm(rec).size();
    }
    TC_CHECK(ds.value()->FlushAll().ok());
    row.size = ds.value()->TotalPhysicalBytes();
    row.stats = ds.value()->AggregateStats();
    *schemaless = row;
  }
  {
    DatasetOptions o = env.Base();
    o.mode = SchemaMode::kInferred;
    o.merge.kind = MergePolicyKind::kPrefix;  // uncapped: merge all past 1
    o.merge.max_mergeable_bytes = UINT64_MAX;
    o.merge.max_tolerance_count = 1;
    o.merge_recompress = CompressionKind::kNone;
    auto ds = Dataset::Open(std::move(o), /*num_partitions=*/1);
    TC_CHECK(ds.ok());
    AdmValue rec = MakeGenerator(workload, /*seed=*/43)->NextRecord();
    TC_CHECK(ds.value()->Insert(rec).ok());
    TC_CHECK(ds.value()->FlushAll().ok());
    row.size = ds.value()->TotalPhysicalBytes();
    row.stats = ds.value()->AggregateStats();
    *transformed = row;
  }
}

/// Ingest `mb` MiB as inferred with an uncompressed tree and a full-cascade
/// uncapped prefix(1) policy, optionally recompressing bottom merges with the
/// heavy codec tier. Every flush triggers a bottom merge, so by the end nearly
/// all data has passed through the recompression path.
MergeAxisRow RunRecompressRow(const char* workload, int64_t mb,
                              CompressionKind recompress) {
  MergeAxisDirs env(recompress == CompressionKind::kNone ? "rn" : "rh");
  MergeAxisRow row;
  uint64_t target = static_cast<uint64_t>(mb) << 20;
  DatasetOptions o = env.Base();
  o.mode = SchemaMode::kInferred;
  o.compression = false;
  o.merge.kind = MergePolicyKind::kPrefix;  // uncapped: merge all past 1
  o.merge.max_mergeable_bytes = UINT64_MAX;
  o.merge.max_tolerance_count = 1;
  o.merge_recompress = recompress;
  auto ds = Dataset::Open(std::move(o), /*num_partitions=*/1);
  TC_CHECK(ds.ok());
  auto gen = MakeGenerator(workload, /*seed=*/42);
  while (row.raw_bytes < target) {
    AdmValue rec = gen->NextRecord();
    TC_CHECK(ds.value()->Insert(rec).ok());
    row.raw_bytes += PrintAdm(rec).size();
  }
  TC_CHECK(ds.value()->FlushAll().ok());
  row.size = ds.value()->TotalPhysicalBytes();
  row.stats = ds.value()->AggregateStats();
  return row;
}

int RunMergeAxis(bool assert_mode) {
  int64_t mb = BenchMegabytes();
  std::printf(
      "-- merge axis: Twitter, schemaless ingest reopened as inferred --\n");
  std::printf("%-8s %-22s %10s %10s %8s %12s %10s\n", "dataset", "merge",
              "size(MiB)", "raw(MiB)", "ratio", "recompacted", "cpu-share");
  MergeAxisRow schemaless, transformed;
  RunTransformRows("twitter", mb, &schemaless, &transformed);
  for (const auto* r : {&schemaless, &transformed}) {
    std::printf("%-8s %-22s %10.2f %10.2f %7.2fx %12llu %9.2f%%\n", "twitter",
                r == &schemaless ? "schemaless (pre-merge)" : "transformed",
                MiB(r->size), MiB(r->raw_bytes),
                static_cast<double>(r->raw_bytes) /
                    static_cast<double>(r->size),
                static_cast<unsigned long long>(
                    r->stats.merge_records_recompacted),
                100.0 * r->stats.MergePipelineCpuShare());
  }
  std::printf("\n-- merge axis: bottom-merge recompression, inferred, "
              "uncompressed tree --\n");
  std::printf("%-8s %-22s %10s %10s %8s %12s\n", "dataset", "recompress",
              "size(MiB)", "raw(MiB)", "ratio", "components");
  MergeAxisRow plain =
      RunRecompressRow("twitter", mb, CompressionKind::kNone);
  MergeAxisRow heavy =
      RunRecompressRow("twitter", mb, CompressionKind::kHeavy);
  for (const auto* r : {&plain, &heavy}) {
    std::printf("%-8s %-22s %10.2f %10.2f %7.2fx %12llu\n", "twitter",
                r == &plain ? "none" : "heavy",
                MiB(r->size), MiB(r->raw_bytes),
                static_cast<double>(r->raw_bytes) /
                    static_cast<double>(r->size),
                static_cast<unsigned long long>(
                    r->stats.merge_components_recompressed));
  }
  std::printf("\n");
  if (!assert_mode) return 0;
  bool ok = true;
  if (transformed.stats.merge_records_recompacted == 0) {
    std::fprintf(stderr,
                 "FAIL: transformed merges re-compacted zero records\n");
    ok = false;
  }
  if (transformed.size > schemaless.size) {
    std::fprintf(stderr,
                 "FAIL: transformed tree %.2f MiB larger than the schemaless "
                 "tree %.2f MiB\n",
                 MiB(transformed.size), MiB(schemaless.size));
    ok = false;
  }
  if (heavy.stats.merge_components_recompressed == 0) {
    std::fprintf(stderr, "FAIL: no bottom merge recompressed a component\n");
    ok = false;
  }
  if (heavy.size >= plain.size) {
    std::fprintf(stderr,
                 "FAIL: heavy-recompressed tree %.2f MiB not below "
                 "uncompressed %.2f MiB\n",
                 MiB(heavy.size), MiB(plain.size));
    ok = false;
  }
  if (ok) {
    std::printf(
        "TC_FIG16_MERGE_ASSERT ok: %llu records re-compacted, transformed "
        "%.2f MiB <= schemaless %.2f MiB, heavy recompress %.2f MiB < plain "
        "%.2f MiB\n",
        static_cast<unsigned long long>(
            transformed.stats.merge_records_recompacted),
        MiB(transformed.size), MiB(schemaless.size), MiB(heavy.size),
        MiB(plain.size));
  }
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  PrintBanner("Figure 16", "on-disk storage size");
  bool merge_assert = EnvInt64("TC_FIG16_MERGE_ASSERT", 0) != 0;
  if (merge_assert) return RunMergeAxis(/*assert_mode=*/true);
  RunSizeAxis(BenchMegabytes());
  return RunMergeAxis(/*assert_mode=*/false);
}
