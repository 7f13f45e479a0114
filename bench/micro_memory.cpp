// Memory-arbiter microbench (after Luo & Carey, arXiv 2004.10360): partition
// scaling under ONE fixed node-level write budget. For 1/4/16 partitions the
// same record volume is ingested twice —
//   static   the default configuration: each partition's own arbiter with
//            memtable_budget_bytes = write budget / P
//   arbiter  one node-level MemoryArbiter of the whole write budget, shared
//            by every partition through DatasetOptions::arbiter: global
//            largest-first victim selection
// Both arms get exactly the same write memory and the same fixed cache. The
// feed is SKEWED — a couple of hot partitions take most of the traffic, as
// tenant or time-correlated key distributions do in practice — because that
// is precisely the case a node-level budget exists for: the static 1/P
// carve-out makes the hot trees flush tiny components over and over while
// the cold trees' reservations sit idle, whereas the shared arbiter lets the
// hot memtables absorb the idle share and flush a few large components
// instead. With one partition the arms are identical by construction, which
// pins the shared arbiter's bookkeeping overhead.
//
// TC_MEMORY_ASSERT=1 exits non-zero unless the arbiter reaches >= 1.2x the
// static ingest throughput at 16 partitions (the CI smoke; locally the gap
// should clear 1.3x).
#include <thread>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "common/memory_arbiter.h"

using namespace tc;
using namespace tc::bench;

namespace {

// Pre-generated records with primary keys chosen so that partition traffic is
// skewed: the first max(1, P/8) partitions receive ~75% of the records.
// Generation happens OUTSIDE the timed region — both arms ingest the exact
// same record sequence.
std::vector<AdmValue> MakeSkewedFeed(Dataset* ds, uint64_t n,
                                     size_t partitions, uint64_t seed) {
  auto gen = MakeGenerator("twitter", seed);
  Rng rng(seed ^ 0xbeef);
  const size_t hot = std::max<size_t>(1, partitions / 8);
  // Per-partition pools of primary keys routing there, refilled from a
  // sequential candidate counter (keys stay unique).
  std::vector<std::vector<int64_t>> pools(partitions);
  int64_t next_candidate = 1;
  auto take = [&](size_t p) {
    while (pools[p].empty()) {
      int64_t c = next_candidate++;
      pools[ds->PartitionOf(c)].push_back(c);
    }
    int64_t pk = pools[p].back();
    pools[p].pop_back();
    return pk;
  };
  std::vector<AdmValue> records;
  records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    size_t p = rng.Bernoulli(0.75) ? rng.Uniform(hot)
                                   : static_cast<size_t>(rng.Uniform(partitions));
    AdmValue rec = gen->NextRecord();
    for (size_t f = 0; f < rec.field_count(); ++f) {
      if (rec.field_name(f) == "id") {
        rec.field_value(f) = AdmValue::BigInt(take(p));
        break;
      }
    }
    records.push_back(std::move(rec));
  }
  return records;
}

struct RunResult {
  double ingest_s = 0;
  double scan_s = 0;
  MemoryArbiter::Stats stats;  // zeroed for the static arm
};

// Write memory and buffer cache, the same in both arms.
constexpr size_t kWriteBudget = 1ull << 20;
constexpr size_t kCacheBytes = 1ull << 20;

RunResult RunOne(size_t partitions, bool use_arbiter, uint64_t records_n) {
  BenchConfig cfg;
  cfg.workload = "twitter";
  cfg.mode = SchemaMode::kInferred;
  cfg.device = DeviceProfile::SataSsd();
  cfg.cache_pages = std::max<size_t>(8, kCacheBytes / cfg.page_size);
  auto bd = OpenBench(cfg);
  bd->dataset.reset();  // replaced by the cluster-managed dataset

  DatasetOptions o;
  o.name = "bench";
  o.dir = bd->dir;
  o.mode = cfg.mode;
  o.page_size = cfg.page_size;
  o.wal_sync_every = 0;
  o.fs = bd->fs;
  o.cache = bd->cache.get();

  std::unique_ptr<MemoryArbiter> arb;  // must outlive the harness below
  if (use_arbiter) {
    arb = std::make_unique<MemoryArbiter>(kWriteBudget);
    o.arbiter = arb.get();
  } else {
    o.memtable_budget_bytes = kWriteBudget / partitions;
  }

  ClusterTopology topo;
  topo.nodes = 1;
  topo.partitions_per_node = partitions;
  topo.executor_threads = 2;
  auto harness = ClusterHarness::Create(topo, std::move(o)).ValueOrDie();
  Dataset* ds = harness->dataset();

  std::vector<AdmValue> feed = MakeSkewedFeed(ds, records_n, partitions, 7);

  // Four feed threads over disjoint shards, group-committed 256-record
  // batches — the ingestion front-end shape, minus untimed generation.
  constexpr size_t kFeeds = 4;
  constexpr size_t kBatch = 256;
  RunResult r;
  r.ingest_s = TimeIt([&] {
    std::vector<std::thread> feeds;
    for (size_t t = 0; t < kFeeds; ++t) {
      feeds.emplace_back([&, t] {
        size_t lo = feed.size() * t / kFeeds;
        size_t hi = feed.size() * (t + 1) / kFeeds;
        for (size_t i = lo; i < hi; i += kBatch) {
          Span<const AdmValue> batch(feed.data() + i,
                                     std::min(kBatch, hi - i));
          TC_CHECK(ds->InsertBatch(batch).ok());
        }
      });
    }
    for (auto& f : feeds) f.join();
    TC_CHECK(ds->FlushAll().ok());
    TC_CHECK(ds->WaitForBackgroundWork().ok());
  });

  // Read phase: a full scan of every partition through the fixed cache.
  uint64_t rows = 0;
  r.scan_s = TimeIt([&] {
    for (size_t p = 0; p < ds->partition_count(); ++p) {
      LsmTree::Iterator it(ds->partition(p)->primary());
      TC_CHECK(it.SeekToFirst().ok());
      while (it.Valid()) {
        ++rows;
        TC_CHECK(it.Next().ok());
      }
    }
  });
  TC_CHECK(rows == records_n);
  if (arb != nullptr) r.stats = arb->stats();
  return r;
}

}  // namespace

int main() {
  PrintBanner("Memory arbiter", "partition scaling under one node budget");
  const uint64_t records = static_cast<uint64_t>(BenchMegabytes()) * 1024 *
                           1024 / 2700;  // ~2.7 KB/tweet
  std::printf("(%llu records, %zu KiB write budget + %zu KiB cache, skewed "
              "feed, SATA profile)\n\n",
              static_cast<unsigned long long>(records), kWriteBudget >> 10,
              kCacheBytes >> 10);
  std::printf("%-11s %12s %12s %9s %11s %11s\n", "partitions", "static(s)",
              "arbiter(s)", "speedup", "st-scan(s)", "arb-scan(s)");

  double speedup_at_16 = 0;
  double speedup_at_1 = 0;
  for (size_t partitions : {1, 4, 16}) {
    RunResult st = RunOne(partitions, /*use_arbiter=*/false, records);
    RunResult ar = RunOne(partitions, /*use_arbiter=*/true, records);
    double speedup = st.ingest_s / ar.ingest_s;
    if (partitions == 16) speedup_at_16 = speedup;
    if (partitions == 1) speedup_at_1 = speedup;
    std::printf("%-11zu %12.2f %12.2f %8.2fx %11.2f %11.2f\n", partitions,
                st.ingest_s, ar.ingest_s, speedup, st.scan_s, ar.scan_s);
    const MemoryArbiter::Stats& s = ar.stats;
    std::printf("  arbiter: %llu flushes (%llu global, %llu self, %llu skips)\n",
                static_cast<unsigned long long>(s.flushes_installed),
                static_cast<unsigned long long>(s.global_flushes_triggered),
                static_cast<unsigned long long>(s.self_flushes_triggered),
                static_cast<unsigned long long>(s.victim_skips));
  }

  std::printf("\n1-partition speedup %.2fx (want ~1.0: no arbiter overhead), "
              "16-partition speedup %.2fx (want >= 1.3x)\n",
              speedup_at_1, speedup_at_16);
  if (EnvInt64("TC_MEMORY_ASSERT", 0) != 0) {
    if (speedup_at_16 < 1.2) {
      std::fprintf(stderr,
                   "FAIL: arbiter %.2fx static at 16 partitions (need 1.2x)\n",
                   speedup_at_16);
      return 1;
    }
    std::printf("ASSERT OK: arbiter %.2fx static at 16 partitions\n",
                speedup_at_16);
  }
  return 0;
}
