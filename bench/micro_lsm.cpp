// Micro-benchmarks for the LSM engine: memtable inserts, point lookups,
// scans, the flush-time cost of the tuple compactor (the design-choice
// ablation called out in docs/ARCHITECTURE.md: flush-time inference keeps the
// ingest path free of schema work — compare BM_MemtableInsert with
// BM_MemtableInsertEagerInference), and reader scaling of the snapshot read
// API under sustained ingestion (BM_ReaderScaling).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/task_pool.h"
#include "core/tuple_compactor.h"
#include "format/vector_format.h"
#include "lsm/lsm_tree.h"
#include "storage/device_model.h"
#include "workload/workload.h"

namespace tc {
namespace {

std::vector<Buffer> EncodedTweets(int n) {
  auto gen = MakeTwitterGenerator(5);
  DatasetType type = DatasetType::OpenWithPk("id");
  std::vector<Buffer> out(static_cast<size_t>(n));
  for (auto& b : out) {
    TC_CHECK(EncodeVectorRecord(gen->NextRecord(), type, &b).ok());
  }
  return out;
}

void BM_MemtableInsert(benchmark::State& state) {
  auto payloads = EncodedTweets(256);
  MemTable mem;
  int64_t key = 0;
  for (auto _ : state) {
    mem.Put(BtreeKey{key, 0}, payloads[static_cast<size_t>(key) % payloads.size()],
            std::nullopt);
    ++key;
    if (mem.approximate_bytes() > (64 << 20)) {
      state.PauseTiming();
      mem.Clear();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_MemtableInsert);

// The ablation: what insert-time (eager) schema inference would cost on every
// record — the work the paper's design deliberately defers to flush (§3.1.1).
void BM_MemtableInsertEagerInference(benchmark::State& state) {
  auto gen = MakeTwitterGenerator(5);
  DatasetType type = DatasetType::OpenWithPk("id");
  std::vector<Buffer> payloads;
  for (int i = 0; i < 256; ++i) {
    Buffer b;
    TC_CHECK(EncodeVectorRecord(gen->NextRecord(), type, &b).ok());
    payloads.push_back(std::move(b));
  }
  MemTable mem;
  Schema schema;
  int64_t key = 0;
  for (auto _ : state) {
    size_t i = static_cast<size_t>(key) % payloads.size();
    TC_CHECK(InferVectorRecord(VectorRecordView(payloads[i].data(), payloads[i].size()),
                               type, &schema)
                 .ok());
    mem.Put(BtreeKey{key, 0}, payloads[i], std::nullopt);
    ++key;
    if (mem.approximate_bytes() > (64 << 20)) {
      state.PauseTiming();
      mem.Clear();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_MemtableInsertEagerInference);

struct TreeFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  BufferCache cache{32 * 1024, 1024};
  std::unique_ptr<LsmTree> tree;
  DatasetType type = DatasetType::OpenWithPk("id");
  TupleCompactor compactor{&type};

  explicit TreeFixture(bool compact, int n_records) {
    LsmTreeOptions o;
    o.fs = fs;
    o.cache = &cache;
    o.dir = "m";
    o.name = "t";
    o.page_size = 32 * 1024;
    o.memtable_budget_bytes = 4 << 20;
    o.use_wal = false;
    if (compact) o.transformer = &compactor;
    tree = LsmTree::Open(std::move(o)).ValueOrDie();
    auto payloads = EncodedTweets(256);
    for (int i = 0; i < n_records; ++i) {
      std::string_view p(
          reinterpret_cast<const char*>(payloads[i % payloads.size()].data()),
          payloads[i % payloads.size()].size());
      TC_CHECK(tree->Insert(BtreeKey{i, 0}, p).ok());
    }
    TC_CHECK(tree->Flush().ok());
  }
};

void BM_PointLookup(benchmark::State& state) {
  TreeFixture fx(/*compact=*/true, 20000);
  Rng rng(1);
  for (auto _ : state) {
    int64_t key = static_cast<int64_t>(rng.Uniform(20000));
    auto r = fx.tree->Get(BtreeKey{key, 0});
    TC_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value());
  }
}
BENCHMARK(BM_PointLookup);

void BM_FullScan(benchmark::State& state) {
  TreeFixture fx(/*compact=*/true, 20000);
  for (auto _ : state) {
    LsmTree::Iterator it(fx.tree.get());
    TC_CHECK(it.SeekToFirst().ok());
    uint64_t n = 0;
    while (it.Valid()) {
      ++n;
      TC_CHECK(it.Next().ok());
    }
    TC_CHECK(n == 20000);
  }
}
BENCHMARK(BM_FullScan)->Unit(benchmark::kMillisecond);

void BM_FlushWithCompaction(benchmark::State& state) {
  bool compact = state.range(0) != 0;
  auto payloads = EncodedTweets(512);
  for (auto _ : state) {
    state.PauseTiming();
    TreeFixture* fx = new TreeFixture(compact, 0);
    for (int i = 0; i < 2000; ++i) {
      std::string_view p(
          reinterpret_cast<const char*>(payloads[i % payloads.size()].data()),
          payloads[i % payloads.size()].size());
      TC_CHECK(fx->tree->Insert(BtreeKey{i, 0}, p).ok());
    }
    state.ResumeTiming();
    TC_CHECK(fx->tree->Flush().ok());
    state.PauseTiming();
    delete fx;
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FlushWithCompaction)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Reader scaling: N threads issue random point lookups while one writer
// ingests continuously (flushes and merges included). Two read paths:
//
//   path=view   the snapshot read API — every Get pins a ReadView and
//               searches without tree locks; merges run on a TaskPool.
//   path=mutex  emulation of the pre-snapshot (PR 3) read path: one big tree
//               mutex held across every Get AND across the writer's whole
//               upsert, including any caller-runs flush/merge it triggers —
//               which is exactly what LsmTree::mu_ used to do.
//
// I/O is throttled through the SATA-SSD device model and the buffer cache is
// deliberately small, so lookups block in (modeled) I/O: the view path
// overlaps reader I/O even on a single core, while the mutex path serializes
// it and makes readers wait out merge rewrites. Reported items/s is the
// AGGREGATE reader throughput; compare it across reader counts per path.
// ---------------------------------------------------------------------------

struct ReaderScalingFixture {
  static constexpr int64_t kKeys = 20000;
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  std::shared_ptr<DeviceModel> device =
      std::make_shared<DeviceModel>(DeviceProfile::SataSsd());
  BufferCache cache{4096, 64};  // ~256 KB: far smaller than the data
  TaskPool pool{1};
  std::unique_ptr<LsmTree> tree;
  std::string payload = std::string(120, 'v');

  explicit ReaderScalingFixture(bool use_pool) {
    fs->set_device(device);
    LsmTreeOptions o;
    o.fs = fs;
    o.cache = &cache;
    o.dir = "rs";
    o.name = "t";
    o.page_size = 4096;
    o.memtable_budget_bytes = 256 * 1024;
    o.use_wal = false;
    o.merge_pool = use_pool ? &pool : nullptr;
    tree = LsmTree::Open(std::move(o)).ValueOrDie();
    for (int64_t k = 0; k < kKeys; ++k) {
      TC_CHECK(tree->Insert(BtreeKey{k, 0}, payload).ok());
    }
    TC_CHECK(tree->Flush().ok());
    TC_CHECK(tree->WaitForMerges().ok());
  }
};

void BM_ReaderScaling(benchmark::State& state) {
  const int n_readers = static_cast<int>(state.range(0));
  const bool emulate_mutex = state.range(1) != 0;
  ReaderScalingFixture fx(/*use_pool=*/!emulate_mutex);
  std::mutex big_lock;  // the emulated PR 3 tree mutex
  uint64_t total_reads = 0;
  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::thread writer([&] {
      Rng rng(99);
      while (!stop.load(std::memory_order_acquire)) {
        int64_t k = static_cast<int64_t>(rng.Uniform(ReaderScalingFixture::kKeys));
        if (emulate_mutex) {
          // Writer holds the big lock across the whole upsert — including any
          // flush + merge rewrite it triggers, like LsmTree::mu_ once did.
          std::lock_guard<std::mutex> lock(big_lock);
          TC_CHECK(fx.tree->Upsert(BtreeKey{k, 0}, fx.payload, nullptr).ok());
        } else {
          TC_CHECK(fx.tree->Upsert(BtreeKey{k, 0}, fx.payload, nullptr).ok());
        }
      }
    });
    std::vector<std::thread> readers;
    readers.reserve(static_cast<size_t>(n_readers));
    for (int r = 0; r < n_readers; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(7 + r);
        while (!stop.load(std::memory_order_acquire)) {
          int64_t k =
              static_cast<int64_t>(rng.Uniform(ReaderScalingFixture::kKeys));
          if (emulate_mutex) {
            std::lock_guard<std::mutex> lock(big_lock);
            TC_CHECK(fx.tree->Get(BtreeKey{k, 0}).ok());
          } else {
            TC_CHECK(fx.tree->Get(BtreeKey{k, 0}).ok());
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop.store(true, std::memory_order_release);
    writer.join();
    for (auto& t : readers) t.join();
    total_reads += reads.load();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_reads));
  state.counters["readers"] = n_readers;
  state.counters["mutex_path"] = emulate_mutex ? 1 : 0;
}
BENCHMARK(BM_ReaderScaling)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"readers", "mutex"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Point-lookup scaling with per-component bloom filters: N reader threads
// issue a 50/50 hit/miss mix against a dozen live components (no-merge
// policy, even keys present, odd keys in-fence-absent) through a tiny cache
// with SATA-SSD-modeled I/O. With filters every miss is answered by ~12
// memory-resident probes; without them it walks a B-tree per component.
// Compare items/s across the filters=0/1 axis at each reader count.
// ---------------------------------------------------------------------------

struct LookupScalingFixture {
  static constexpr int64_t kKeys = 20000;  // even keys 0,2,...,2*(kKeys-1)
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  std::shared_ptr<DeviceModel> device =
      std::make_shared<DeviceModel>(DeviceProfile::SataSsd());
  BufferCache cache{4096, 64};  // ~256 KB: far smaller than the data
  std::unique_ptr<LsmTree> tree;
  std::string payload = std::string(120, 'v');

  explicit LookupScalingFixture(bool filters) {
    fs->set_device(device);
    LsmTreeOptions o;
    o.fs = fs;
    o.cache = &cache;
    o.dir = "ls";
    o.name = "t";
    o.page_size = 4096;
    o.memtable_budget_bytes = 256 * 1024;
    o.use_wal = false;
    o.merge_policy = MakeNoMergePolicy();
    o.filter.bits_per_key = filters ? 10 : 0;
    tree = LsmTree::Open(std::move(o)).ValueOrDie();
    for (int64_t k = 0; k < kKeys; ++k) {
      TC_CHECK(tree->Insert(BtreeKey{2 * k, 0}, payload).ok());
    }
    TC_CHECK(tree->Flush().ok());
  }
};

void BM_PointLookupScaling(benchmark::State& state) {
  const int n_readers = static_cast<int>(state.range(0));
  const bool filters = state.range(1) != 0;
  LookupScalingFixture fx(filters);
  uint64_t total_reads = 0;
  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::vector<std::thread> readers;
    readers.reserve(static_cast<size_t>(n_readers));
    for (int r = 0; r < n_readers; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(31 + r);
        while (!stop.load(std::memory_order_acquire)) {
          // 50/50 hit/miss: even keys are present, odd keys never were.
          int64_t k =
              static_cast<int64_t>(rng.Uniform(2 * LookupScalingFixture::kKeys));
          auto got = fx.tree->Get(BtreeKey{k, 0});
          TC_CHECK(got.ok());
          TC_CHECK(got.value().has_value() == (k % 2 == 0));
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    total_reads += reads.load();
  }
  LsmStats s = fx.tree->stats();
  state.SetItemsProcessed(static_cast<int64_t>(total_reads));
  state.counters["readers"] = n_readers;
  state.counters["components"] = static_cast<double>(fx.tree->component_count());
  state.counters["filter_negatives"] = static_cast<double>(s.filter_negatives);
  state.counters["pages_read"] = static_cast<double>(s.lookup_pages_read);
}
BENCHMARK(BM_PointLookupScaling)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"readers", "filters"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Ingest scaling under the background-work pipeline: one writer inserts a
// fixed volume through a tiny memtable (constant flush pressure) with the
// SATA-SSD device model throttling all file I/O; flush builds and the tree's
// one merge at a time run on a 3-thread pool with a tiered policy, so the
// writer keeps ingesting while background work drains. Timing covers ingest
// + final drain (Flush + WaitForMerges).
// ---------------------------------------------------------------------------

void BM_IngestScaling(benchmark::State& state) {
  constexpr int kRecords = 4000;
  uint64_t total_records = 0;
  std::string payload(200, 'v');
  for (auto _ : state) {
    state.PauseTiming();
    {
      auto fs = MakeMemFileSystem();
      auto device = std::make_shared<DeviceModel>(DeviceProfile::SataSsd());
      fs->set_device(device);
      BufferCache cache{4096, 256};
      TaskPool pool{3};
      LsmTreeOptions o;
      o.fs = fs;
      o.cache = &cache;
      o.dir = "is";
      o.name = "t";
      o.page_size = 4096;
      o.memtable_budget_bytes = 64 * 1024;
      o.use_wal = false;
      o.merge_policy = MakeTieredMergePolicy(3, 2);
      o.merge_pool = &pool;
      auto tree = LsmTree::Open(std::move(o)).ValueOrDie();
      state.ResumeTiming();
      for (int i = 0; i < kRecords; ++i) {
        TC_CHECK(tree->Insert(BtreeKey{i, 0}, payload).ok());
      }
      TC_CHECK(tree->Flush().ok());
      TC_CHECK(tree->WaitForMerges().ok());
      state.PauseTiming();
      total_records += kRecords;
      state.counters["merges"] =
          static_cast<double>(tree->stats().merge_count);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_records));
}
BENCHMARK(BM_IngestScaling)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// BM_BatchIngest: LsmTree::Write(kInsert) at varying batch sizes with the WAL
// on and sync cadence 1 — one sync per batch. Batch size 1 is what the
// single-record Insert runs (a Write batch of one), so the axis isolates
// exactly what group commit buys: fewer WAL writes/syncs and one
// writer-lock + memtable round per batch. MemFS keeps the numbers about code
// path cost, not disk latency; fig17's batch axis covers real fsyncs.
// ---------------------------------------------------------------------------

void BM_BatchIngest(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto payloads = EncodedTweets(256);
  uint64_t total_records = 0;
  std::vector<MemPutOp> batch;
  batch.reserve(batch_size);
  for (auto _ : state) {
    state.PauseTiming();
    {
      auto fs = MakeMemFileSystem();
      BufferCache cache{32 * 1024, 1024};
      LsmTreeOptions o;
      o.fs = fs;
      o.cache = &cache;
      o.dir = "bi";
      o.name = "t";
      o.page_size = 32 * 1024;
      o.memtable_budget_bytes = 4 << 20;
      o.use_wal = true;
      o.wal_sync_every = 1;
      auto tree = LsmTree::Open(std::move(o)).ValueOrDie();
      state.ResumeTiming();
      constexpr int kRecords = 8192;
      int64_t key = 0;
      while (key < kRecords) {
        batch.clear();
        for (size_t b = 0; b < batch_size && key < kRecords; ++b, ++key) {
          const Buffer& p = payloads[static_cast<size_t>(key) % payloads.size()];
          batch.push_back(MemPutOp{
              BtreeKey{key, 0},
              std::string_view(reinterpret_cast<const char*>(p.data()),
                               p.size())});
        }
        TC_CHECK(tree->Write(WriteOp::kInsert, batch).ok());
      }
      state.PauseTiming();
      total_records += kRecords;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_records));
}
BENCHMARK(BM_BatchIngest)
    ->Arg(1)
    ->Arg(64)
    ->Arg(1024)
    ->ArgNames({"batch"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tc

BENCHMARK_MAIN();
