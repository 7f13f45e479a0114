#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "adm/parser.h"
#include "adm/printer.h"
#include "common/bytes.h"
#include "common/task_pool.h"
#include "core/tuple_compactor.h"
#include "lsm/lsm_tree.h"
#include "schema/schema_io.h"
#include "tests/test_util.h"

namespace tc {
namespace {

std::string S(const Buffer& b) { return std::string(b.begin(), b.end()); }

std::vector<uint8_t> ReadFileBytes(FileSystem* fs, const std::string& path) {
  auto f = fs->Open(path).ValueOrDie();
  std::vector<uint8_t> bytes(f->Size());
  TC_CHECK(f->Read(0, bytes.size(), bytes.data()).ok());
  return bytes;
}

void WriteFileBytes(FileSystem* fs, const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  TC_CHECK(fs->Delete(path).ok());
  auto f = fs->Create(path).ValueOrDie();
  TC_CHECK(f->Write(0, bytes.data(), bytes.size()).ok());
  TC_CHECK(f->Sync().ok());
}

LsmTreeOptions BaseOptions(std::shared_ptr<FileSystem> fs, BufferCache* cache) {
  LsmTreeOptions o;
  o.fs = std::move(fs);
  o.cache = cache;
  o.dir = "rec";
  o.name = "t";
  o.page_size = 4096;
  o.memtable_budget_bytes = 1 << 20;
  o.wal_sync_every = 1;
  return o;
}

TEST(Recovery, WalReplayRestoresAndFlushesMemtable) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "survives").ok());
    ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "also").ok());
    // "Crash": drop the tree without flushing. The WAL holds both records.
  }
  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  // Paper §3.1.2: recovery replays the log and flushes the restored memtable.
  EXPECT_EQ(t->component_count(), 1u);
  EXPECT_TRUE(t->View().memtable().empty());
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "survives");
  EXPECT_EQ(S(*t->Get(BtreeKey{2, 0}).ValueOrDie()), "also");
}

TEST(Recovery, InvalidComponentRemoved) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v1").ok());
    ASSERT_TRUE(t->Flush().ok());
  }
  // Simulate a crash mid-flush: a finished-but-unvalidated component file.
  {
    auto b = BtreeComponentBuilder::Create(fs, "rec/t.c00000099-00000099.btree",
                                           4096, nullptr)
                 .ValueOrDie();
    ASSERT_TRUE(b->Add(BtreeKey{9, 0}, false, "half-flushed").ok());
    ASSERT_TRUE(b->Finish(99, 99, {}).ok());
    // No MarkValid: validity bit unset.
  }
  ASSERT_TRUE(fs->Exists("rec/t.c00000099-00000099.btree"));
  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  // The INVALID component was discarded and deleted (§3.1.2).
  EXPECT_FALSE(fs->Exists("rec/t.c00000099-00000099.btree"));
  EXPECT_EQ(t->component_count(), 1u);
  EXPECT_FALSE(t->Get(BtreeKey{9, 0}).ValueOrDie().has_value());
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "v1");
}

TEST(Recovery, MergedComponentSupersedesInputsAfterCrash) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  std::string merged_path;
  {
    auto opts = BaseOptions(fs, &cache);
    opts.merge_policy = MakeNoMergePolicy();
    auto t = LsmTree::Open(std::move(opts)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "a").ok());
    ASSERT_TRUE(t->Flush().ok());
    ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "b").ok());
    ASSERT_TRUE(t->Flush().ok());
  }
  // Hand-craft a VALID merged component [1,2] while the originals still
  // exist — the state right after a merge completes but before the merge
  // inputs are deleted.
  {
    auto b = BtreeComponentBuilder::Create(fs, "rec/t.c00000001-00000002.btree",
                                           4096, nullptr)
                 .ValueOrDie();
    ASSERT_TRUE(b->Add(BtreeKey{1, 0}, false, "a").ok());
    ASSERT_TRUE(b->Add(BtreeKey{2, 0}, false, "b").ok());
    ASSERT_TRUE(b->Finish(1, 2, {}).ok());
    ASSERT_TRUE(b->MarkValid().ok());
  }
  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  // Only the merged component survives; contained inputs were dropped.
  auto view = t->View();
  ASSERT_EQ(view.component_count(), 1u);
  EXPECT_EQ(view.components()[0]->meta().cid_min, 1u);
  EXPECT_EQ(view.components()[0]->meta().cid_max, 2u);
  EXPECT_FALSE(fs->Exists("rec/t.c00000001-00000001.btree"));
  EXPECT_FALSE(fs->Exists("rec/t.c00000002-00000002.btree"));
  EXPECT_EQ(S(*t->Get(BtreeKey{2, 0}).ValueOrDie()), "b");
}

TEST(Recovery, NextComponentIdContinuesAfterRestart) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "x").ok());
    ASSERT_TRUE(t->Flush().ok());  // C1
  }
  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "y").ok());
  ASSERT_TRUE(t->Flush().ok());  // must become C2, not clash with C1
  auto view = t->View();
  ASSERT_EQ(view.component_count(), 2u);
  EXPECT_EQ(view.components()[0]->meta().cid_min, 2u);
  EXPECT_EQ(view.components()[1]->meta().cid_min, 1u);
}

TEST(Recovery, DeletesReplayedFromWal) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "doomed").ok());
    ASSERT_TRUE(t->Flush().ok());
    ASSERT_TRUE(t->Delete(BtreeKey{1, 0}, nullptr).ok());
    // Crash before the delete flushes.
  }
  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  EXPECT_FALSE(t->Get(BtreeKey{1, 0}).ValueOrDie().has_value());
}

// Every flush rotates the WAL: new writes go to the next segment and the
// flushed generation's segment is deleted once its component is durable, so
// a crash after the flush replays only the tail written since — never the
// flushed generation a second time.
TEST(Recovery, FlushRotatesWalSegmentAndDropsTheFlushedOne) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "flushed").ok());
    ASSERT_TRUE(t->Flush().ok());
    EXPECT_EQ(fs->List("rec", "t.wal").ValueOrDie(),
              std::vector<std::string>{"t.wal.1"});
    ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "tail").ok());
    // "Crash": the tail lives only in t.wal.1.
  }
  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  auto view = t->View();
  ASSERT_EQ(view.component_count(), 2u);
  EXPECT_EQ(view.components()[0]->meta().n_entries, 1u);  // just the tail
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "flushed");
  EXPECT_EQ(S(*t->Get(BtreeKey{2, 0}).ValueOrDie()), "tail");
  // Replay flushed the tail and restarted logging at the base segment.
  EXPECT_EQ(fs->List("rec", "t.wal").ValueOrDie(),
            std::vector<std::string>{"t.wal"});
}

// Replay flushes the restored generation through the ordinary flush path but
// takes no merge decision: the policy first runs on the next flush.
TEST(Recovery, ReplayFlushTakesNoMergeDecision) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  auto options = [&] {
    auto o = BaseOptions(fs, &cache);
    o.merge_policy = MakePrefixMergePolicy(UINT64_MAX, 1);  // merge past 1
    return o;
  };
  {
    auto t = LsmTree::Open(options()).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "flushed").ok());
    ASSERT_TRUE(t->Flush().ok());
    ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "replayed").ok());
  }
  auto t = LsmTree::Open(options()).ValueOrDie();
  EXPECT_EQ(t->component_count(), 2u);
  EXPECT_EQ(t->stats().merge_count, 0u);
  ASSERT_TRUE(t->Insert(BtreeKey{3, 0}, "fresh").ok());
  ASSERT_TRUE(t->Flush().ok());
  EXPECT_EQ(t->component_count(), 1u);
  EXPECT_EQ(t->stats().merge_count, 1u);
  EXPECT_EQ(S(*t->Get(BtreeKey{2, 0}).ValueOrDie()), "replayed");
}

// Pooled flush builds rotate the WAL into per-generation segments; a crash
// (or teardown that cancels queued builds) leaves rotated segments on disk,
// and the next Open must replay every segment in order — the sealed
// generations whose builds never installed, plus the live generation's tail.
TEST(Recovery, WalSegmentsFromPendingFlushBuildsReplayInOrder) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  {
    TaskPool pool(1);
    // Occupy the single worker so the flush builds stay QUEUED; destroying
    // the tree then cancels them, leaving only the WAL segments behind.
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
    });
    auto opts = BaseOptions(fs, &cache);
    opts.merge_pool = &pool;
    auto t = LsmTree::Open(std::move(opts)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "gen1.v1").ok());
    ASSERT_TRUE(t->Flush().ok());  // sealed; build queued behind the blocker
    ASSERT_TRUE(t->Upsert(BtreeKey{1, 0}, "gen2", nullptr).ok());
    ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "gen2").ok());
    ASSERT_TRUE(t->Flush().ok());  // second sealed generation
    ASSERT_TRUE(t->Insert(BtreeKey{3, 0}, "live-tail").ok());
    // The rotated segments exist alongside the live one.
    auto segs = fs->List("rec", "t.wal").ValueOrDie();
    EXPECT_GE(segs.size(), 3u);
    // Teardown on a helper thread (it blocks waiting out the canceled
    // skips), then let the blocker go.
    std::thread destroyer([&] { t.reset(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    destroyer.join();
  }
  // A stray file that merely LOOKS like a segment must be neither replayed
  // nor deleted (the suffix parse requires all digits).
  { ASSERT_TRUE(fs->Create("rec/t.wal.1.bak").ok()); }
  // Reopen without a pool: every record — from both sealed generations and
  // the live tail — must be there, with the NEWEST version winning, and the
  // rotated segments must be gone after recovery flushed them.
  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "gen2");
  EXPECT_EQ(S(*t->Get(BtreeKey{2, 0}).ValueOrDie()), "gen2");
  EXPECT_EQ(S(*t->Get(BtreeKey{3, 0}).ValueOrDie()), "live-tail");
  EXPECT_TRUE(fs->Exists("rec/t.wal.1.bak"));  // the stray survived
  auto segs = fs->List("rec", "t.wal").ValueOrDie();
  EXPECT_EQ(segs.size(), 2u);  // the fresh base segment + the stray
}

// Group-commit crash point: a batch acknowledged BEFORE the crash (its group
// was written and synced) must survive replay in full; a later batch torn
// mid-write may vanish entirely — never a partial mix inside the acked batch.
TEST(Recovery, AckedBatchSurvivesTornFollowingBatch) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  std::vector<uint8_t> torn_wal;
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    std::vector<MemPutOp> batch_a;
    for (int64_t k = 1; k <= 4; ++k) batch_a.push_back({BtreeKey{k, 0}, "acked"});
    ASSERT_TRUE(t->InsertBatch(batch_a).ok());
    // Everything up to here was synced (cadence 1): the ack point.
    uint64_t acked_bytes = fs->FileSize("rec/t.wal").ValueOrDie();
    std::vector<MemPutOp> batch_b;
    for (int64_t k = 10; k <= 13; ++k) batch_b.push_back({BtreeKey{k, 0}, "torn"});
    ASSERT_TRUE(t->InsertBatch(batch_b).ok());
    // "Crash" between batch B's buffered write and its sync reaching the
    // platter: keep only a 7-byte sliver of B's first record header.
    torn_wal = ReadFileBytes(fs.get(), "rec/t.wal");
    ASSERT_GT(torn_wal.size(), acked_bytes + 7);
    torn_wal.resize(acked_bytes + 7);
  }
  WriteFileBytes(fs.get(), "rec/t.wal", torn_wal);
  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  for (int64_t k = 1; k <= 4; ++k) {
    EXPECT_EQ(S(*t->Get(BtreeKey{k, 0}).ValueOrDie()), "acked") << k;
  }
  for (int64_t k = 10; k <= 13; ++k) {
    EXPECT_FALSE(t->Get(BtreeKey{k, 0}).ValueOrDie().has_value()) << k;
  }
}

// ---------------------------------------------------------------------------
// Filter crash matrix: a crash or corruption anywhere around the bloom-filter
// pages and the v2 footer must never produce a wrong answer — the outcomes
// are (a) the unvalidated component is discarded, (b) the open fails with a
// clean Corruption status, or (c) the component loads filterless and serves
// correct (if slower) lookups.
// ---------------------------------------------------------------------------

// Crash after the data pages were written but before the filter pages and
// footer made it out: the truncated, never-validated component is removed on
// recovery and lookups stay correct.
TEST(RecoveryFilterMatrix, CrashBeforeFilterFooterDiscardsComponent) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "good").ok());
    ASSERT_TRUE(t->Flush().ok());
  }
  const std::string half = "rec/t.c00000007-00000007.btree";
  {
    auto b = BtreeComponentBuilder::Create(fs, half, 4096, nullptr).ValueOrDie();
    ASSERT_TRUE(b->Add(BtreeKey{9, 0}, false, "torn").ok());
    ASSERT_TRUE(b->Finish(7, 7, {}).ok());
    // No MarkValid, and the tail of the file (filter pages + footer) never
    // hit the disk: keep only the first data page.
    auto bytes = ReadFileBytes(fs.get(), half);
    ASSERT_GT(bytes.size(), 4096u);
    bytes.resize(4096);
    WriteFileBytes(fs.get(), half, bytes);
  }
  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  EXPECT_FALSE(fs->Exists(half));
  EXPECT_EQ(t->component_count(), 1u);
  EXPECT_FALSE(t->Get(BtreeKey{9, 0}).ValueOrDie().has_value());
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "good");
}

// A VALID component whose footer page was lost (page-aligned truncation)
// fails the reopen with a clean Corruption — never a silent wrong answer.
TEST(RecoveryFilterMatrix, TruncatedFooterOnValidComponentFailsCleanly) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  const std::string path = "rec/t.c00000001-00000001.btree";
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
    ASSERT_TRUE(t->Flush().ok());
  }
  ASSERT_TRUE(fs->Exists(path));
  auto bytes = ReadFileBytes(fs.get(), path);
  ASSERT_GT(bytes.size(), 4096u);
  auto truncated = bytes;
  truncated.resize(truncated.size() - 4096);
  WriteFileBytes(fs.get(), path, truncated);
  auto r = LsmTree::Open(BaseOptions(fs, &cache));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);

  // Non-page-aligned truncation (torn write) is caught one layer lower but
  // is just as clean.
  truncated = bytes;
  truncated.resize(truncated.size() - 100);
  WriteFileBytes(fs.get(), path, truncated);
  auto r2 = LsmTree::Open(BaseOptions(fs, &cache));
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kCorruption);
}

// A flipped byte inside the filter pages fails the filter's own CRC: the
// component loads FILTERLESS (degraded) and keeps answering correctly.
TEST(RecoveryFilterMatrix, CorruptedFilterPageLoadsFilterlessAndServes) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  const std::string path = "rec/t.c00000001-00000001.btree";
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    for (int64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(t->Insert(BtreeKey{k, 0}, "v" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(t->Flush().ok());
    ASSERT_TRUE(t->View().components()[0]->has_filter());
  }
  // Locate the filter pages through the v2 footer (filter_start lives right
  // after the v1 fixed fields, at offset 84) and flip one byte.
  auto bytes = ReadFileBytes(fs.get(), path);
  size_t footer_off = bytes.size() - 4096;
  uint32_t filter_start = GetFixed32(bytes.data() + footer_off + 84);
  ASSERT_NE(filter_start, UINT32_MAX);
  bytes[static_cast<size_t>(filter_start) * 4096 + 5] ^= 0xff;
  WriteFileBytes(fs.get(), path, bytes);

  auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
  auto view = t->View();
  ASSERT_EQ(view.component_count(), 1u);
  EXPECT_FALSE(view.components()[0]->has_filter());
  EXPECT_TRUE(view.components()[0]->filter_degraded());
  for (int64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(S(*t->Get(BtreeKey{k, 0}).ValueOrDie()), "v" + std::to_string(k));
  }
  EXPECT_FALSE(t->Get(BtreeKey{999, 0}).ValueOrDie().has_value());
  // Degraded components never consult a filter, so no counters move.
  EXPECT_EQ(t->stats().filter_checks, 0u);
}

// A flipped byte in the footer's filter-CRC field breaks the FOOTER checksum
// (it covers the filter locator too): clean Corruption on open.
TEST(RecoveryFilterMatrix, CorruptedFooterFilterCrcFailsCleanly) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  const std::string path = "rec/t.c00000001-00000001.btree";
  {
    auto t = LsmTree::Open(BaseOptions(fs, &cache)).ValueOrDie();
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
    ASSERT_TRUE(t->Flush().ok());
  }
  auto bytes = ReadFileBytes(fs.get(), path);
  size_t footer_off = bytes.size() - 4096;
  bytes[footer_off + 92] ^= 0xff;  // stored filter_crc field
  WriteFileBytes(fs.get(), path, bytes);
  auto r = LsmTree::Open(BaseOptions(fs, &cache));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

// Crash in the window after a transforming, recompressing merge installed its
// output but before the merge inputs were deleted (the state the reclaimer's
// deferred deletion leaves behind on power loss). Recovery must drop the
// contained inputs, open the heavy-codec merged component through its
// self-describing LAF, and reload the MERGE-inferred schema so the re-encoded
// records decode losslessly.
TEST(Recovery, CrashMidMergeRewriteRecoversTransformedHeavyComponent) {
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  DatasetType type = DatasetType::OpenWithPk("id");
  std::vector<AdmValue> records;
  auto payload_for = [&](int64_t id) {
    AdmValue rec =
        ParseAdm(R"({"id": )" + std::to_string(id) + R"(, "name": "user)" +
                 std::to_string(id) + R"(", "score": )" +
                 std::to_string(id * 7) + "}")
            .ValueOrDie();
    records.push_back(rec);
    Buffer b;
    TC_CHECK(EncodeVectorRecord(rec, type, &b).ok());
    return b;
  };
  // Phase 1: two components of UNCOMPACTED vector records (schemaless
  // ingest: no flush transformer), plain codec, no merging.
  {
    auto opts = BaseOptions(fs, &cache);
    opts.merge_policy = MakeNoMergePolicy();
    auto t = LsmTree::Open(std::move(opts)).ValueOrDie();
    for (int64_t id = 0; id < 8; ++id) {
      Buffer p = payload_for(id);
      ASSERT_TRUE(t->Insert(BtreeKey{id, 0}, S(p)).ok());
      if (id == 3) {
        ASSERT_TRUE(t->Flush().ok());
      }
    }
    ASSERT_TRUE(t->Flush().ok());
  }
  // Snapshot every component file (data, LAF sidecars, validity markers).
  std::vector<std::pair<std::string, std::vector<uint8_t>>> snapshot;
  for (const auto& f : fs->List("rec", "t.c").ValueOrDie()) {
    snapshot.emplace_back("rec/" + f, ReadFileBytes(fs.get(), "rec/" + f));
  }
  ASSERT_FALSE(snapshot.empty());
  // Phase 2: one more flush triggers the full-cascade merge, with the tuple
  // compactor as merge transformer and heavy recompression of the bottom
  // output. The merge re-encodes every schemaless survivor.
  {
    TupleCompactor compactor(&type);
    auto opts = BaseOptions(fs, &cache);
    opts.merge_policy = MakePrefixMergePolicy(UINT64_MAX, 1);
    opts.merge_transformer = &compactor;
    opts.merge_recompress = CompressionKind::kHeavy;
    auto t = LsmTree::Open(std::move(opts)).ValueOrDie();
    Buffer p = payload_for(8);
    ASSERT_TRUE(t->Insert(BtreeKey{8, 0}, S(p)).ok());
    ASSERT_TRUE(t->Flush().ok());  // caller-runs: flush then merge [0..8]
    LsmStats s = t->stats();
    ASSERT_EQ(s.merge_count, 1u);
    EXPECT_EQ(s.merge_records_recompacted, 9u);
    EXPECT_EQ(s.merge_components_recompressed, 1u);
  }
  // Simulate the crash: resurrect the (already deleted) merge inputs next to
  // the installed merged component.
  for (const auto& [path, bytes] : snapshot) {
    if (fs->Exists(path)) continue;
    auto f = fs->Create(path).ValueOrDie();
    ASSERT_TRUE(f->Write(0, bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(f->Sync().ok());
  }
  // Recovery with a FRESH compactor: contained inputs are dropped, the heavy
  // merged component opens via its LAF, and OnRecoveredSchema reloads the
  // merge-inferred schema.
  TupleCompactor fresh(&type);
  auto opts = BaseOptions(fs, &cache);
  opts.merge_policy = MakeNoMergePolicy();
  opts.transformer = &fresh;
  auto t = LsmTree::Open(std::move(opts)).ValueOrDie();
  auto view = t->View();
  ASSERT_EQ(view.component_count(), 1u);
  EXPECT_EQ(view.components()[0]->meta().cid_min, 1u);
  EXPECT_EQ(view.components()[0]->compression(), CompressionKind::kHeavy);
  Schema schema = fresh.Snapshot();
  for (const auto& rec : records) {
    int64_t id = rec.FindField("id")->int_value();
    auto got = t->Get(BtreeKey{id, 0}).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << id;
    VectorRecordView rv(got->data(), got->size());
    EXPECT_TRUE(rv.compacted()) << id;
    AdmValue decoded;
    ASSERT_TRUE(DecodeVectorRecord(rv, type, &schema, &decoded).ok()) << id;
    EXPECT_EQ(PrintAdm(decoded), PrintAdm(rec)) << id;
  }
}

}  // namespace
}  // namespace tc
