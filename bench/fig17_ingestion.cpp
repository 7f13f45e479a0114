// Figure 17: data ingestion time.
//   (a) Twitter continuous feed, insert-only, SATA SSD vs NVMe SSD
//   (b) Twitter feed with 50% updates (anti-schema point lookups; primary-key
//       index enabled, as the paper suggests per Luo et al.)
//   (c) WoS bulk-load (sort + single bottom-up component)
//   (d) merge-policy axis: the same insert-only feed under none / prefix /
//       tiered / lazy-leveled schedules, reporting write amplification and
//       the component-count high-water mark (the tiering-vs-leveling
//       trade-off of Luo & Carey's LSM survey). No pool: each flush runs its
//       build and merge cascade caller-runs on the feed thread.
//
// Paper result shape: inferred ingests fastest (smaller flushed components,
// cheaper record construction); with 50% updates inferred pays ~25% over its
// insert-only time yet stays comparable to open; compression costs a little
// CPU everywhere; bulk-load shows the same ordering. On the policy axis,
// tiered trades components for write amplification: it rewrites each byte at
// most once per tier level (lowest write-amp of the merging policies) but
// keeps more components alive; prefix continually re-merges its accumulating
// prefix (higher write-amp, fewer components); lazy-leveled sits between,
// absorbing bursts in a tiered deck above one large leveled component.
//
//   (e) background-work axis: the same feed with flush builds and merges
//       (one at a time per tree) on a shared 4-thread pool, prefix vs. tiered
//
// TC_FIG17_ASSERT=1 (the CI smoke mode) runs only section (d) and exits
// non-zero unless tiered beats prefix on ingestion write amplification AND
// prefix beats tiered on the point-lookup component count (the live
// components a post-ingest lookup probes — the fig24 cost). The feed is
// deterministic (fixed seed, no timing in either metric), so the comparisons
// are exact, not tolerance-based.
//
// TC_MERGE_CONCURRENCY_ASSERT=1 runs only section (e) and exits non-zero
// unless the pooled pipeline preserves the policy-axis ordering (tiered
// write-amp below prefix) — background timing shifts WHEN rewrites happen,
// so the write-amp values need not be bit-identical to section (d), but the
// tiering-vs-prefix trade-off must survive the pool.
//
//   (f) batch axis: the same insert-only feed through Dataset::InsertBatch
//       at batch sizes 1 / 64 / 1024 with wal_sync_every=1, i.e. one fsync
//       per COMMIT GROUP. Batch size 1 is the classic sync-per-record
//       durability; larger batches keep the same guarantee for acknowledged
//       batches while amortizing the sync — records/sec should scale with
//       the group size until the LSM write path dominates. A second column
//       runs the same cadence through Dataset::UpsertBatch with 50% updates
//       (pk index on, as in section (b)) — group commit composes with the
//       read-modify-write upsert path.
//
// TC_FIG17_BATCH_ASSERT=1 runs only section (f)'s insert axis and exits
// non-zero unless the 1024-record batches ingest at >= 3x the single-record
// records/sec.
#include "bench/bench_util.h"

using namespace tc;
using namespace tc::bench;

namespace {

void RunSection(const char* title, const std::string& workload, bool updates,
                bool bulk, const DeviceProfile& device) {
  std::printf("-- %s --\n", title);
  std::printf("%-10s %-11s %10s %10s %12s\n", "schema", "compressed", "time(s)",
              "MiB/s", "components");
  int64_t mb = BenchMegabytes();
  for (bool compressed : {false, true}) {
    for (SchemaMode mode :
         {SchemaMode::kOpen, SchemaMode::kClosed, SchemaMode::kInferred}) {
      BenchConfig cfg;
      cfg.workload = workload;
      cfg.mode = mode;
      cfg.compression = compressed;
      cfg.device = device;
      cfg.primary_key_index = updates;
      auto bd = OpenBench(cfg);
      IngestResult in =
          bulk ? IngestBulkLoad(bd.get(), mb)
               : IngestFeed(bd.get(), mb, updates ? 0.5 : 0.0);
      size_t components = 0;
      for (size_t p = 0; p < bd->dataset->partition_count(); ++p) {
        components += bd->dataset->partition(p)->primary()->component_count();
      }
      std::printf("%-10s %-11s %10.2f %10.2f %12zu\n", SchemaModeName(mode),
                  OnOff(compressed), in.seconds, MiB(in.raw_bytes) / in.seconds,
                  components);
    }
  }
  std::printf("\n");
}

// Component metrics are per partition (worst partition), matching the cost a
// single point lookup pays; partitions are symmetric here, so max == typical.
struct PolicyResult {
  double write_amp = 0;
  uint64_t merges = 0;
  size_t components = 0;         // final live count, worst partition
  uint64_t comp_high_water = 0;  // whole-run high-water, worst partition
};

PolicyResult RunPolicy(const char* policy, int64_t mb) {
  auto bd = OpenBench(PolicyAxisConfig(policy));
  IngestResult in = IngestFeed(bd.get(), mb);
  LsmStats s = bd->dataset->AggregateStats();
  PolicyResult r;
  r.write_amp = s.WriteAmplification();
  r.merges = s.merge_count;
  r.comp_high_water = s.component_count_high_water;
  r.components = MaxPrimaryComponentsPerPartition(bd->dataset.get());
  std::printf("%-13s %10.2f %10.2f %10.3f %8llu %12zu %10llu\n", policy,
              in.seconds, MiB(in.raw_bytes) / in.seconds, r.write_amp,
              static_cast<unsigned long long>(r.merges), r.components,
              static_cast<unsigned long long>(r.comp_high_water));
  return r;
}

int RunPolicyAxis(bool assert_mode) {
  std::printf(
      "-- (d) merge-policy axis: Twitter insert-only feed, inferred, NVMe --\n");
  std::printf("%-13s %10s %10s %10s %8s %12s %10s\n", "policy", "time(s)",
              "MiB/s", "write-amp", "merges", "comps/part", "HWM/part");
  int64_t mb = BenchMegabytes();
  (void)RunPolicy("none", mb);
  PolicyResult prefix = RunPolicy("prefix", mb);
  PolicyResult tiered = RunPolicy("tiered", mb);
  (void)RunPolicy("lazy-leveled", mb);
  std::printf("\n");
  if (!assert_mode) return 0;
  bool ok = true;
  if (tiered.write_amp >= prefix.write_amp) {
    std::fprintf(stderr,
                 "FAIL: tiered write-amp %.3f not below prefix %.3f\n",
                 tiered.write_amp, prefix.write_amp);
    ok = false;
  }
  if (prefix.components >= tiered.components) {
    std::fprintf(stderr,
                 "FAIL: prefix per-partition component count %zu not below "
                 "tiered %zu\n",
                 prefix.components, tiered.components);
    ok = false;
  }
  if (ok) {
    std::printf(
        "TC_FIG17_ASSERT ok: tiered write-amp %.3f < prefix %.3f; prefix "
        "components/partition %zu < tiered %zu\n",
        tiered.write_amp, prefix.write_amp, prefix.components,
        tiered.components);
  }
  return ok ? 0 : 1;
}

PolicyResult RunPolicyPooled(const char* policy, int64_t mb, TaskPool* pool) {
  BenchConfig cfg = PolicyAxisConfig(policy);
  cfg.merge_pool = pool;
  auto bd = OpenBench(cfg);
  IngestResult in = IngestFeed(bd.get(), mb);
  LsmStats s = bd->dataset->AggregateStats();
  PolicyResult r;
  r.write_amp = s.WriteAmplification();
  r.merges = s.merge_count;
  r.comp_high_water = s.component_count_high_water;
  r.components = MaxPrimaryComponentsPerPartition(bd->dataset.get());
  std::printf("%-13s %10.2f %10.2f %10.3f %8llu %12zu %10llu\n", policy,
              in.seconds, MiB(in.raw_bytes) / in.seconds, r.write_amp,
              static_cast<unsigned long long>(r.merges), r.components,
              static_cast<unsigned long long>(s.flush_queue_high_water));
  return r;
}

// Section (e): the same insert-only feed with the background-work pipeline on
// a shared pool: flush builds and each tree's one merge run on pool threads
// while the feed keeps writing. Write amplification depends on WHEN decisions
// run, so this axis is compared by ordering, not exact bytes.
int RunConcurrencyAxis(bool assert_mode) {
  std::printf(
      "-- (e) background-concurrency axis: pooled flush builds + merges, "
      "4-thread pool --\n");
  std::printf("%-13s %10s %10s %10s %8s %12s %10s\n", "policy", "time(s)",
              "MiB/s", "write-amp", "merges", "comps/part", "queue-HWM");
  int64_t mb = BenchMegabytes();
  TaskPool pool(4);
  PolicyResult prefix = RunPolicyPooled("prefix", mb, &pool);
  PolicyResult tiered = RunPolicyPooled("tiered", mb, &pool);
  std::printf("\n");
  if (!assert_mode) return 0;
  if (tiered.write_amp >= prefix.write_amp) {
    std::fprintf(stderr,
                 "FAIL: with pooled background work, tiered write-amp %.3f "
                 "not below prefix %.3f\n",
                 tiered.write_amp, prefix.write_amp);
    return 1;
  }
  std::printf(
      "TC_MERGE_CONCURRENCY_ASSERT ok: pooled background work keeps tiered "
      "write-amp %.3f < prefix %.3f\n",
      tiered.write_amp, prefix.write_amp);
  return 0;
}

// Section (f): group-commit batch axis. Real fsyncs (PosixFS + sync cadence
// 1) are the whole point here, so this section ingests less data than the
// others — per-record fsync throughput is brutal by design.
double RunBatch(size_t batch_size, int64_t mb, bool upserts = false) {
  BenchConfig cfg;
  cfg.workload = "twitter";
  cfg.mode = SchemaMode::kInferred;
  cfg.device = DeviceProfile::Unthrottled();
  cfg.partitions = 2;
  cfg.wal_sync_every = 1;  // sync every group; batch=1 -> sync every record
  cfg.primary_key_index = upserts;  // as in section (b): updates want the pk index
  auto bd = OpenBench(cfg);
  IngestResult in = upserts ? IngestFeedBatchedUpsert(bd.get(), mb, batch_size)
                            : IngestFeedBatched(bd.get(), mb, batch_size);
  double rps = static_cast<double>(in.records) / in.seconds;
  std::printf("%-10zu %10.2f %12.0f %10.2f\n", batch_size, in.seconds, rps,
              MiB(in.raw_bytes) / in.seconds);
  return rps;
}

int RunBatchAxis(bool assert_mode) {
  std::printf(
      "-- (f) batch axis: Twitter insert-only feed, inferred, "
      "wal_sync_every=1 (one fsync per commit group) --\n");
  std::printf("%-10s %10s %12s %10s\n", "batch", "time(s)", "records/s",
              "MiB/s");
  // Per-record fsync makes large targets unaffordable; a fixed small slice
  // still shows the amortization curve.
  int64_t mb = std::min<int64_t>(BenchMegabytes(), 4);
  double single = RunBatch(1, mb);
  RunBatch(64, mb);
  double batched = RunBatch(1024, mb);
  std::printf("\n");
  if (!assert_mode) {
    // Upsert column: the same group-commit cadence through Dataset::
    // UpsertBatch with 50% updates of earlier keys (pk index on, as in (b)).
    // Not part of the CI assert — the point-lookup leg dominates at batch=1
    // and the amortization curve is the insert axis's contract.
    std::printf("   ... with 50%% updates via UpsertBatch (pk index on):\n");
    std::printf("%-10s %10s %12s %10s\n", "batch", "time(s)", "records/s",
                "MiB/s");
    RunBatch(1, mb, /*upserts=*/true);
    RunBatch(64, mb, /*upserts=*/true);
    RunBatch(1024, mb, /*upserts=*/true);
    std::printf("\n");
    return 0;
  }
  if (batched < 3.0 * single) {
    std::fprintf(stderr,
                 "FAIL: batch-1024 ingestion %.0f rec/s not >= 3x "
                 "single-record %.0f rec/s\n",
                 batched, single);
    return 1;
  }
  std::printf(
      "TC_FIG17_BATCH_ASSERT ok: batch-1024 %.0f rec/s >= 3x single-record "
      "%.0f rec/s at sync-per-group durability\n",
      batched, single);
  return 0;
}

}  // namespace

int main() {
  PrintBanner("Figure 17", "data ingestion time");
  bool assert_mode = EnvInt64("TC_FIG17_ASSERT", 0) != 0;
  bool concurrency_assert = EnvInt64("TC_MERGE_CONCURRENCY_ASSERT", 0) != 0;
  bool batch_assert = EnvInt64("TC_FIG17_BATCH_ASSERT", 0) != 0;
  if (batch_assert) return RunBatchAxis(/*assert_mode=*/true);
  if (concurrency_assert) return RunConcurrencyAxis(/*assert_mode=*/true);
  if (!assert_mode) {
    RunSection("(a) Twitter feed, insert-only, SATA SSD", "twitter", false,
               false, DeviceProfile::SataSsd());
    RunSection("(a) Twitter feed, insert-only, NVMe SSD", "twitter", false,
               false, DeviceProfile::NvmeSsd());
    RunSection("(b) Twitter feed, 50% updates, NVMe SSD (with PK index)",
               "twitter", true, false, DeviceProfile::NvmeSsd());
    RunSection("(c) WoS bulk-load, SATA SSD", "wos", false, true,
               DeviceProfile::SataSsd());
    RunSection("(c) WoS bulk-load, NVMe SSD", "wos", false, true,
               DeviceProfile::NvmeSsd());
  }
  int rc = RunPolicyAxis(assert_mode);
  if (!assert_mode && rc == 0) rc = RunConcurrencyAxis(/*assert_mode=*/false);
  if (!assert_mode && rc == 0) rc = RunBatchAxis(/*assert_mode=*/false);
  return rc;
}
