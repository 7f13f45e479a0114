#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <thread>

#include "adm/parser.h"
#include "adm/printer.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/ingest.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace tc {
namespace {

using testutil::DatasetFixture;
using testutil::SmallOptions;

AdmValue R(const std::string& text) { return ParseAdm(text).ValueOrDie(); }

class DatasetModes : public ::testing::TestWithParam<SchemaMode> {};

TEST_P(DatasetModes, InsertGetFlushGet) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(GetParam()), 2).ok());
  AdmValue rec = R(R"({"id": 11, "name": "Kim", "age": 26})");
  ASSERT_TRUE(fx.dataset->Insert(rec).ok());
  auto got = fx.dataset->Get(11).ValueOrDie();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(PrintAdm(*got), PrintAdm(rec));
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  got = fx.dataset->Get(11).ValueOrDie();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(PrintAdm(*got), PrintAdm(rec));
  EXPECT_FALSE(fx.dataset->Get(999).ValueOrDie().has_value());
}

TEST_P(DatasetModes, UpsertAndDeleteAcrossFlushes) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(GetParam()), 2).ok());
  ASSERT_TRUE(fx.dataset->Insert(R(R"({"id": 1, "v": "first"})")).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  ASSERT_TRUE(fx.dataset->Upsert(R(R"({"id": 1, "v": "second", "extra": 2})")).ok());
  auto got = fx.dataset->Get(1).ValueOrDie();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->FindField("v")->string_value(), "second");
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  ASSERT_TRUE(fx.dataset->Delete(1).ok());
  EXPECT_FALSE(fx.dataset->Get(1).ValueOrDie().has_value());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  EXPECT_FALSE(fx.dataset->Get(1).ValueOrDie().has_value());
}

TEST_P(DatasetModes, WorkloadRoundTripThroughFlushes) {
  // Every workload record survives encode -> flush (-> compact) -> decode in
  // every storage mode.
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(GetParam(), /*memtable_kb=*/256);
  auto gen = MakeTwitterGenerator(3);
  if (GetParam() == SchemaMode::kClosed) o.type = gen->ClosedType();
  ASSERT_TRUE(fx.Open(std::move(o), 2).ok());
  std::vector<AdmValue> records;
  for (int i = 0; i < 60; ++i) {
    records.push_back(gen->NextRecord());
    ASSERT_TRUE(fx.dataset->Insert(records.back()).ok()) << i;
  }
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  for (const auto& rec : records) {
    int64_t pk = rec.FindField("id")->int_value();
    auto got = fx.dataset->Get(pk).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << pk;
    if (GetParam() == SchemaMode::kClosed) {
      // Closed decode reorders fields to declared order; compare field sets.
      EXPECT_EQ(got->field_count(), rec.field_count()) << pk;
      for (size_t f = 0; f < rec.field_count(); ++f) {
        const AdmValue* v = got->FindField(rec.field_name(f));
        ASSERT_NE(v, nullptr) << rec.field_name(f);
        EXPECT_EQ(PrintAdm(*v), PrintAdm(rec.field_value(f)));
      }
    } else if (GetParam() == SchemaMode::kBson) {
      // BSON is lossy on exotic types; spot-check core fields.
      EXPECT_EQ(got->FindField("text")->string_value(),
                rec.FindField("text")->string_value());
    } else {
      EXPECT_EQ(PrintAdm(*got), PrintAdm(rec)) << pk;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, DatasetModes,
    ::testing::Values(SchemaMode::kOpen, SchemaMode::kClosed,
                      SchemaMode::kInferred, SchemaMode::kSchemalessVB,
                      SchemaMode::kBson),
    [](const auto& info) {
      std::string name = SchemaModeName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Dataset, InferredIsSmallestOnDisk) {
  // The Figure 16 ordering at miniature scale: inferred < closed < open.
  auto gen_seed = 77;
  uint64_t sizes[3];
  SchemaMode modes[3] = {SchemaMode::kOpen, SchemaMode::kClosed,
                         SchemaMode::kInferred};
  for (int m = 0; m < 3; ++m) {
    DatasetFixture fx;
    DatasetOptions o = SmallOptions(modes[m], 512);
    auto gen = MakeSensorsGenerator(gen_seed);
    if (modes[m] == SchemaMode::kClosed) o.type = gen->ClosedType();
    ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
    for (int i = 0; i < 40; ++i) ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
    ASSERT_TRUE(fx.dataset->FlushAll().ok());
    sizes[m] = fx.dataset->TotalPhysicalBytes();
  }
  EXPECT_LT(sizes[2], sizes[1]);  // inferred < closed
  EXPECT_LT(sizes[1], sizes[0]);  // closed < open
}

TEST(Dataset, CompressionShrinksFootprint) {
  uint64_t raw = 0, compressed = 0;
  for (bool comp : {false, true}) {
    DatasetFixture fx;
    DatasetOptions o = SmallOptions(SchemaMode::kOpen, 512);
    o.compression = comp;
    ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
    auto gen = MakeTwitterGenerator(5);
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
    ASSERT_TRUE(fx.dataset->FlushAll().ok());
    (comp ? compressed : raw) = fx.dataset->TotalPhysicalBytes();
  }
  EXPECT_LT(compressed, raw);
}

TEST(Dataset, FlushStageClocksReportedApartFromMerge) {
  // A compressed, transformed flush runs the transform/compress/write stage
  // clocks a merge runs, and reports them as flush_*_usecs, summed over the
  // partitions; the merge_*_usecs fields stay where they were.
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, /*memtable_kb=*/8192);
  o.compression = true;
  ASSERT_TRUE(fx.Open(std::move(o), 2).ok());
  auto gen = MakeTwitterGenerator(7);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
  }
  const LsmStats before = fx.dataset->AggregateStats();
  ASSERT_EQ(before.flush_count, 0u);
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  const LsmStats s = fx.dataset->AggregateStats();
  EXPECT_EQ(s.flush_count, 2u);
  EXPECT_EQ(s.merge_count, 0u);
  EXPECT_EQ(s.merge_read_usecs, before.merge_read_usecs);
  EXPECT_EQ(s.merge_transform_usecs, before.merge_transform_usecs);
  EXPECT_EQ(s.merge_compress_usecs, before.merge_compress_usecs);
  EXPECT_EQ(s.merge_write_usecs, before.merge_write_usecs);
  uint64_t transform = 0, compress = 0, write = 0;
  for (size_t p = 0; p < 2; ++p) {
    const LsmStats ps = fx.dataset->partition(p)->primary()->stats();
    EXPECT_GT(ps.flush_transform_usecs, 0u) << p;
    EXPECT_GT(ps.flush_compress_usecs, 0u) << p;
    EXPECT_GT(ps.flush_write_usecs, 0u) << p;
    transform += ps.flush_transform_usecs;
    compress += ps.flush_compress_usecs;
    write += ps.flush_write_usecs;
  }
  EXPECT_EQ(s.flush_transform_usecs, transform);
  EXPECT_EQ(s.flush_compress_usecs, compress);
  EXPECT_EQ(s.flush_write_usecs, write);
}

TEST(Dataset, PartitionSchemasEvolveIndependently) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred), 4).ok());
  // Craft records landing in specific partitions with disjoint field names.
  int placed = 0;
  for (int64_t pk = 0; placed < 8; ++pk) {
    size_t p = fx.dataset->PartitionOf(pk);
    AdmValue rec = AdmValue::Object();
    rec.AddField("id", AdmValue::BigInt(pk));
    rec.AddField("only_p" + std::to_string(p), AdmValue::BigInt(1));
    ASSERT_TRUE(fx.dataset->Insert(rec).ok());
    ++placed;
  }
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  // Each partition's schema contains only its own field names (§3.4.1).
  for (size_t p = 0; p < 4; ++p) {
    Schema s = fx.dataset->partition(p)->SchemaSnapshot();
    for (size_t q = 0; q < 4; ++q) {
      uint32_t id = s.dict().Lookup("only_p" + std::to_string(q));
      if (q == p) continue;  // own field may or may not exist (hash spread)
      EXPECT_EQ(id, FieldNameDictionary::kInvalidId)
          << "partition " << p << " leaked field of partition " << q;
    }
  }
}

// Point lookups decode outside the partition's lock, each against its own
// reference to the schema snapshot: readers on one partition race a writer
// whose flushes move the schema version, and every hit equals its input.
TEST(Dataset, ConcurrentGetsDecodeWhileSchemaEvolves) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, /*memtable_kb=*/32), 1).ok());
  auto gen = MakeTwitterGenerator(5);
  std::vector<AdmValue> records;
  for (int i = 0; i < 240; ++i) {
    records.push_back(gen->NextRecord());
    // A field new to the schema every few records, so flushes keep widening it.
    records.back().AddField("extra_" + std::to_string(i / 8), AdmValue::BigInt(i));
  }
  std::atomic<size_t> published{0};
  std::atomic<bool> writing{true};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + static_cast<uint64_t>(r));
      while (writing.load() || hits.load() == 0) {
        const size_t n = published.load();
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        const AdmValue& want = records[rng.Uniform(n)];
        auto got = fx.dataset->Get(want.FindField("id")->int_value());
        if (!got.ok() || !got.value().has_value() || *got.value() != want) {
          bad.fetch_add(1);
        } else {
          hits.fetch_add(1);
        }
      }
    });
  }
  Status st;
  for (size_t i = 0; i < records.size() && st.ok(); ++i) {
    st = fx.dataset->Insert(records[i]);
    if (st.ok() && i % 40 == 39) st = fx.dataset->FlushAll();
    published.store(i + 1);
  }
  writing.store(false);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
}

TEST(Dataset, RecoveryRestoresSchemaAndData) {
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred);
  o.wal_sync_every = 1;
  // One partition so the int-typed and string-typed "a" meet in one schema.
  ASSERT_TRUE(fx.Open(o, 1).ok());
  ASSERT_TRUE(fx.dataset->Insert(R(R"({"id": 1, "a": 5, "b": "x"})")).ok());
  ASSERT_TRUE(fx.dataset->Insert(R(R"({"id": 2, "a": "str"})")).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  ASSERT_TRUE(fx.dataset->Insert(R(R"({"id": 3, "c": true})")).ok());
  // "Crash" (no flush of record 3; it is in the WAL) and restart.
  ASSERT_TRUE(fx.Reopen(o, 1).ok());
  for (int64_t pk : {1, 2, 3}) {
    EXPECT_TRUE(fx.dataset->Get(pk).ValueOrDie().has_value()) << pk;
  }
  // Schema survived recovery: the union on "a" is still known (§3.1.2).
  std::string s = fx.dataset->partition(0)->SchemaSnapshot().ToString();
  EXPECT_NE(s.find("union"), std::string::npos) << s;
}

TEST(Dataset, BulkLoadProducesOneComponentPerPartition) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred), 2).ok());
  auto gen = MakeWosGenerator(9);
  std::vector<AdmValue> records;
  for (int i = 0; i < 30; ++i) records.push_back(gen->NextRecord());
  ASSERT_TRUE(fx.dataset->BulkLoad(records).ok());
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_LE(fx.dataset->partition(p)->primary()->component_count(), 1u);
  }
  for (const auto& rec : records) {
    int64_t pk = rec.FindField("id")->int_value();
    auto got = fx.dataset->Get(pk).ValueOrDie();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(PrintAdm(*got), PrintAdm(rec));
  }
}

TEST(Dataset, PrimaryKeyIndexReducesLookups) {
  // Upserting fresh keys with a PK index skips old-version point lookups
  // (paper §3.2.2 / Figure 17b setup).
  uint64_t with_index, without_index;
  for (bool use_pk : {false, true}) {
    DatasetFixture fx;
    DatasetOptions o = SmallOptions(SchemaMode::kInferred, 64);
    o.primary_key_index = use_pk;
    ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
    auto gen = MakeTwitterGenerator(13);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(fx.dataset->Upsert(gen->NextRecord()).ok());
    }
    (use_pk ? with_index : without_index) =
        fx.dataset->AggregateStats().old_version_lookups;
  }
  EXPECT_LT(with_index, without_index);
}

TEST(Dataset, MergePolicyReachesEveryTree) {
  // DatasetOptions::merge must reach every LSM tree of a partition: the
  // primary, the primary-key index, and the secondary-index tree.
  {
    DatasetFixture fx;
    DatasetOptions o;
    o.merge.kind = MergePolicyKind::kTiered;
    o.memtable_budget_bytes = 64 * 1024;
    o.wal_sync_every = 0;
    o.primary_key_index = true;
    o.secondary_index_field = "score";
    ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
    DatasetPartition* part = fx.dataset->partition(0);
    EXPECT_STREQ(part->primary()->merge_policy_name(), "tiered");
    EXPECT_STREQ(part->pk_index()->merge_policy_name(), "tiered");
    EXPECT_STREQ(part->secondary()->tree()->merge_policy_name(), "tiered");
    ASSERT_TRUE(fx.dataset->Insert(R(R"({"id": 1, "score": 10})")).ok());
    ASSERT_TRUE(fx.dataset->FlushAll().ok());
    EXPECT_EQ(fx.dataset->SecondaryRangeScan(0, 20).ValueOrDie(),
              (std::vector<int64_t>{1}));
  }
  {
    DatasetFixture fx;
    ASSERT_TRUE(fx.Open(DatasetOptions{}, 1).ok());
    EXPECT_STREQ(fx.dataset->partition(0)->primary()->merge_policy_name(),
                 "prefix");
  }
}

// Restores an env var on scope exit even when an ASSERT_* returns early.
struct ScopedEnv {
  const char* name;
  ScopedEnv(const char* n, const char* value) : name(n) {
    ::setenv(n, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name); }
};

TEST(EngineConfig, IgnoresEnvironment) {
  // The option structs are the engine's only configuration channel: TC_*
  // variables in the environment must change nothing.
  ScopedEnv policy("TC_MERGE_POLICY", "tiered");
  ScopedEnv bloom("TC_BLOOM_BITS_PER_KEY", "0");
  ScopedEnv budget("TC_MEMORY_BUDGET", "1048576");
  {
    DatasetFixture fx;
    ASSERT_TRUE(fx.Open(DatasetOptions{}, 1).ok());
    EXPECT_STREQ(fx.dataset->partition(0)->primary()->merge_policy_name(),
                 "prefix");
    EXPECT_EQ(fx.dataset->options().filter.bits_per_key, 10u);
  }
  {
    DatasetOptions o;
    BufferCache cache(o.page_size, 256);
    o.dir = "mem";
    o.fs = MakeMemFileSystem();
    o.cache = &cache;
    ClusterTopology topology;
    topology.executor_threads = 1;
    auto harness = ClusterHarness::Create(topology, std::move(o));
    ASSERT_TRUE(harness.ok());
    EXPECT_EQ(harness.value()->dataset()->partition(0)->options().arbiter,
              nullptr);
  }
}

TEST(Dataset, MissingPrimaryKeyRejected) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred), 1).ok());
  EXPECT_FALSE(fx.dataset->Insert(R(R"({"name": "nopk"})")).ok());
  EXPECT_FALSE(fx.dataset->InsertJson(R"({"id": "not-an-int"})").ok());
  EXPECT_TRUE(fx.dataset->InsertJson(R"({"id": 5, "ok": true})").ok());
}

TEST(Dataset, InsertBatchAppliesHealthyRecordsAndReportsBad) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred), 2).ok());
  std::vector<AdmValue> batch = {
      R(R"({"id": 1, "v": "a"})"),
      R(R"({"name": "nopk"})"),  // index 1: no primary key
      R(R"({"id": 3, "v": "c"})"),
      R(R"({"id": 4, "v": "d"})"),
  };
  BatchErrors errors;
  Status st = fx.dataset->InsertBatch(batch, &errors);
  EXPECT_FALSE(st.ok());  // first error doubles as the return status
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].first, 1u);  // attributed to the bad record's offset
  EXPECT_FALSE(errors[0].second.ok());
  // The healthy records landed despite the bad one.
  for (int64_t pk : {1, 3, 4}) {
    EXPECT_TRUE(fx.dataset->Get(pk).ValueOrDie().has_value()) << pk;
  }
}

TEST(Dataset, InsertBatchSurvivesFlushAndPartitioning) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, /*memtable_kb=*/16), 3).ok());
  std::vector<AdmValue> batch;
  for (int64_t k = 0; k < 300; ++k) {
    batch.push_back(R(R"({"id": )" + std::to_string(k) + R"(, "v": "payload-)" +
                      std::to_string(k) + R"("})"));
  }
  ASSERT_TRUE(fx.dataset->InsertBatch(batch).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  for (int64_t k = 0; k < 300; ++k) {
    auto got = fx.dataset->Get(k).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(got->FindField("v")->string_value(),
              "payload-" + std::to_string(k));
  }
}

TEST(Dataset, UpsertBatchOverwritesAndInsertsAcrossPartitions) {
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, /*memtable_kb=*/16);
  o.primary_key_index = true;  // exercise the pk-index leg of the batch path
  ASSERT_TRUE(fx.Open(std::move(o), 3).ok());
  std::vector<AdmValue> batch;
  for (int64_t k = 0; k < 100; ++k) {
    batch.push_back(R(R"({"id": )" + std::to_string(k) + R"(, "v": "old"})"));
  }
  ASSERT_TRUE(fx.dataset->InsertBatch(batch).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  // 0-99 overwrite, 100-149 are fresh inserts through the same batch.
  batch.clear();
  for (int64_t k = 0; k < 150; ++k) {
    batch.push_back(R(R"({"id": )" + std::to_string(k) + R"(, "v": "new"})"));
  }
  ASSERT_TRUE(fx.dataset->UpsertBatch(batch).ok());
  for (int64_t k = 0; k < 150; ++k) {
    auto got = fx.dataset->Get(k).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(got->FindField("v")->string_value(), "new") << k;
  }
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  for (int64_t k = 0; k < 150; ++k) {
    ASSERT_TRUE(fx.dataset->Get(k).ValueOrDie().has_value()) << k;
  }
}

TEST(Dataset, UpsertBatchReportsBadRecordsAndAppliesRest) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred), 2).ok());
  ASSERT_TRUE(fx.dataset->Insert(R(R"({"id": 1, "v": "a"})")).ok());
  std::vector<AdmValue> batch = {
      R(R"({"id": 1, "v": "b"})"),
      R(R"({"name": "nopk"})"),  // index 1: no primary key
      R(R"({"id": 2, "v": "c"})"),
  };
  BatchErrors errors;
  EXPECT_FALSE(fx.dataset->UpsertBatch(batch, &errors).ok());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].first, 1u);
  EXPECT_EQ(fx.dataset->Get(1).ValueOrDie()->FindField("v")->string_value(), "b");
  EXPECT_TRUE(fx.dataset->Get(2).ValueOrDie().has_value());
}

TEST(Dataset, UpsertBatchMovesSecondaryIndexEntries) {
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred);
  o.secondary_index_field = "ts";
  ASSERT_TRUE(fx.Open(std::move(o), 2).ok());
  std::vector<AdmValue> batch;
  for (int64_t k = 0; k < 20; ++k) {
    batch.push_back(R(R"({"id": )" + std::to_string(k) + R"(, "ts": )" +
                      std::to_string(100 + k) + "}"));
  }
  ASSERT_TRUE(fx.dataset->InsertBatch(batch).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  batch.clear();
  for (int64_t k = 0; k < 20; ++k) {
    batch.push_back(R(R"({"id": )" + std::to_string(k) + R"(, "ts": )" +
                      std::to_string(900 + k) + "}"));
  }
  ASSERT_TRUE(fx.dataset->UpsertBatch(batch).ok());
  // Every entry moved: the old key range is empty, the new one is full.
  EXPECT_TRUE(fx.dataset->SecondaryRangeScan(100, 119).ValueOrDie().empty());
  EXPECT_EQ(fx.dataset->SecondaryRangeScan(900, 919).ValueOrDie().size(), 20u);
}

TEST(Dataset, DeleteBatchRemovesRecordsAndIndexEntries) {
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred);
  o.secondary_index_field = "ts";
  o.primary_key_index = true;
  ASSERT_TRUE(fx.Open(std::move(o), 3).ok());
  std::vector<AdmValue> batch;
  for (int64_t k = 0; k < 30; ++k) {
    batch.push_back(R(R"({"id": )" + std::to_string(k) + R"(, "ts": )" +
                      std::to_string(100 + k) + "}"));
  }
  ASSERT_TRUE(fx.dataset->InsertBatch(batch).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  std::vector<int64_t> evens;
  for (int64_t k = 0; k < 30; k += 2) evens.push_back(k);
  ASSERT_TRUE(fx.dataset->DeleteBatch(evens).ok());
  for (int64_t k = 0; k < 30; ++k) {
    EXPECT_EQ(fx.dataset->Get(k).ValueOrDie().has_value(), k % 2 == 1) << k;
  }
  auto pks = fx.dataset->SecondaryRangeScan(100, 129).ValueOrDie();
  ASSERT_EQ(pks.size(), 15u);  // only the odd keys' entries survive
  for (int64_t pk : pks) EXPECT_EQ(pk % 2, 1) << pk;
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  for (int64_t k = 0; k < 30; k += 2) {
    EXPECT_FALSE(fx.dataset->Get(k).ValueOrDie().has_value()) << k;
  }
}

DatasetOptions ScoreIndexedOptions() {
  DatasetOptions o = SmallOptions(SchemaMode::kInferred);
  o.primary_key_index = true;
  o.secondary_index_field = "score";
  return o;
}

// The secondary key must be an integer (tinyint .. bigint), like the primary
// key, and a record whose key the index cannot take reaches no tree: not the
// primary, not its WAL, not the pk index — whichever entry point it came in.
TEST(Dataset, NonIntegerSecondaryKeyRejectedBeforeApply) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(ScoreIndexedOptions(), 2).ok());
  ASSERT_TRUE(fx.dataset->Insert(R(R"({"id": 1, "score": 10})")).ok());
  Status st = fx.dataset->Insert(R(R"({"id": 2, "score": "x"})"));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_FALSE(fx.dataset->Insert(R(R"({"id": 3, "score": 3.7})")).ok());
  EXPECT_FALSE(fx.dataset->Insert(R(R"({"id": 4})")).ok());
  EXPECT_FALSE(fx.dataset->Upsert(R(R"({"id": 5, "score": null})")).ok());
  EXPECT_FALSE(fx.dataset->Upsert(R(R"({"id": 1, "score": true})")).ok());
  BatchErrors errors;
  std::vector<AdmValue> batch = {R(R"({"id": 6, "score": 6})"),
                                 R(R"({"id": 7, "score": "7"})")};
  EXPECT_FALSE(fx.dataset->InsertBatch(batch, &errors).ok());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].first, 1u);
  {
    IngestFrontEnd fe(fx.dataset.get());
    std::vector<AdmValue> feed;
    feed.push_back(R(R"({"id": 8, "score": 1.5})"));
    IngestTicket ticket = fe.Submit(std::move(feed), WriteOp::kUpsert);
    EXPECT_FALSE(ticket.Wait().ok());
    ASSERT_EQ(ticket.errors().size(), 1u);
    EXPECT_EQ(ticket.errors()[0].first, 0u);
    EXPECT_TRUE(fe.Drain().ok());  // a rejection is not a batch failure
  }
  auto check_primary = [&] {
    for (int64_t pk : {2, 3, 4, 5, 7, 8}) {
      EXPECT_FALSE(fx.dataset->Get(pk).ValueOrDie().has_value()) << pk;
    }
    auto one = fx.dataset->Get(1).ValueOrDie();
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(one->FindField("score")->int_value(), 10);
    EXPECT_TRUE(fx.dataset->Get(6).ValueOrDie().has_value());
  };
  check_primary();
  auto all = fx.dataset->SecondaryRangeScan(INT64_MIN, INT64_MAX).ValueOrDie();
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<int64_t>{1, 6}));
  for (DatasetPartition* p : {fx.dataset->partition(0), fx.dataset->partition(1)}) {
    for (int64_t pk : {2, 3, 4, 5, 7, 8}) {
      EXPECT_FALSE(p->pk_index()->Get(BtreeKey{pk, 0}).ValueOrDie().has_value())
          << pk;
    }
  }
  // Restart without a flush: the primary WAL replays, and it never logged
  // the rejected records.
  ASSERT_TRUE(fx.Reopen(ScoreIndexedOptions(), 2).ok());
  check_primary();
}

TEST(Dataset, UpsertBatchKeepsOldVersionOfBadSecondaryKey) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(ScoreIndexedOptions(), 2).ok());
  std::vector<AdmValue> batch = {R(R"({"id": 1, "score": 10})"),
                                 R(R"({"id": 2, "score": 20})"),
                                 R(R"({"id": 3, "score": 30})")};
  ASSERT_TRUE(fx.dataset->InsertBatch(batch).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  batch = {R(R"({"id": 1, "score": 11})"), R(R"({"id": 2, "score": "bad"})"),
           R(R"({"id": 3, "score": 31})")};
  BatchErrors errors;
  EXPECT_FALSE(fx.dataset->UpsertBatch(batch, &errors).ok());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].first, 1u);
  EXPECT_EQ(errors[0].second.code(), StatusCode::kInvalidArgument);
  for (bool flushed : {false, true}) {
    EXPECT_EQ(fx.dataset->Get(1).ValueOrDie()->FindField("score")->int_value(), 11)
        << flushed;
    EXPECT_EQ(fx.dataset->Get(2).ValueOrDie()->FindField("score")->int_value(), 20)
        << flushed;
    EXPECT_EQ(fx.dataset->Get(3).ValueOrDie()->FindField("score")->int_value(), 31)
        << flushed;
    EXPECT_EQ(fx.dataset->SecondaryRangeScan(20, 20).ValueOrDie(),
              (std::vector<int64_t>{2}));
    EXPECT_TRUE(fx.dataset->SecondaryRangeScan(10, 10).ValueOrDie().empty());
    EXPECT_TRUE(fx.dataset->SecondaryRangeScan(30, 30).ValueOrDie().empty());
    auto all = fx.dataset->SecondaryRangeScan(INT64_MIN, INT64_MAX).ValueOrDie();
    EXPECT_EQ(all.size(), 3u);
    ASSERT_TRUE(fx.dataset->FlushAll().ok());
  }
}

TEST(Dataset, BulkLoadRejectsNonIntegerSecondaryKey) {
  for (const char* bad : {R"({"id": 2, "score": "x"})", R"({"id": 2})"}) {
    DatasetFixture fx;
    ASSERT_TRUE(fx.Open(ScoreIndexedOptions(), 2).ok());
    std::vector<AdmValue> records = {R(R"({"id": 1, "score": 1})"), R(bad),
                                     R(R"({"id": 3, "score": 3})")};
    Status st = fx.dataset->BulkLoad(std::move(records));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    // Rejected before any tree was built.
    EXPECT_FALSE(fx.dataset->Get(1).ValueOrDie().has_value()) << bad;
    EXPECT_TRUE(fx.dataset->SecondaryRangeScan(INT64_MIN, INT64_MAX)
                    .ValueOrDie()
                    .empty())
        << bad;
  }
}

/// Filesystem wrapper that (once armed) fails component creation for the
/// pk-index tree only — forces a batch-level pk-index failure while the
/// primary keeps working.
class PkIndexFailFs final : public FileSystem {
 public:
  explicit PkIndexFailFs(std::shared_ptr<FileSystem> inner)
      : inner_(std::move(inner)) {}

  std::atomic<bool> fail_pkidx{false};

  Result<std::unique_ptr<File>> Open(const std::string& path) override {
    return inner_->Open(path);
  }
  Result<std::unique_ptr<File>> Create(const std::string& path) override {
    if (fail_pkidx.load() && path.find(".pkidx") != std::string::npos) {
      return Status::IOError("injected pk-index create failure: " + path);
    }
    return inner_->Create(path);
  }
  Status Delete(const std::string& path) override { return inner_->Delete(path); }
  bool Exists(const std::string& path) const override {
    return inner_->Exists(path);
  }
  Result<std::vector<std::string>> List(const std::string& dir,
                                        const std::string& prefix) const override {
    return inner_->List(dir, prefix);
  }
  Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return inner_->FileSize(path);
  }

 private:
  std::shared_ptr<FileSystem> inner_;
};

std::vector<AdmValue> SequentialBatch(int64_t base, size_t n) {
  std::vector<AdmValue> batch;
  batch.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    batch.push_back(R(R"({"id": )" + std::to_string(base + static_cast<int64_t>(k)) +
                      R"(, "v": "x"})"));
  }
  return batch;
}

// Regression: a pk-index batch failure (here: its memtable flush cannot build
// a component) must mark EVERY record of the batch failed, exactly like a
// primary-tree batch failure — not return a bare status with `errors` empty.
TEST(Dataset, InsertBatchPkIndexFailureMarksEveryRecord) {
  DatasetFixture fx;
  auto fail_fs = std::make_shared<PkIndexFailFs>(fx.fs);
  fx.fs = fail_fs;
  DatasetOptions o = SmallOptions(SchemaMode::kOpen, /*memtable_kb=*/64);
  o.primary_key_index = true;
  ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
  fail_fs->fail_pkidx = true;
  constexpr size_t kBatch = 256;
  bool failed = false;
  // The partition's write budget (and flush floor) is 64 KiB: a few batches
  // in, the pk index (~1024 entries) clears the floor as the largest live
  // memtable and its caller-runs flush hits the injected failure.
  for (int64_t base = 0; base < 4096 && !failed; base += kBatch) {
    std::vector<AdmValue> batch = SequentialBatch(base, kBatch);
    BatchErrors errors;
    Status st = fx.dataset->InsertBatch(batch, &errors);
    if (st.ok()) {
      EXPECT_TRUE(errors.empty());
      continue;
    }
    failed = true;
    // Batch-level failure: every record attributed, each with the failure.
    ASSERT_EQ(errors.size(), kBatch);
    for (const auto& [idx, rec_st] : errors) {
      EXPECT_LT(idx, kBatch);
      EXPECT_FALSE(rec_st.ok());
    }
  }
  EXPECT_TRUE(failed) << "pk-index flush failure never surfaced";
}

// Regression: the same failure through the async front end must fail the
// ticket (Wait + per-record errors) AND latch the batch-level sticky error
// that Drain() reports — it is not a per-record rejection.
TEST(Dataset, IngestFrontEndSurfacesPkIndexBatchFailure) {
  DatasetFixture fx;
  auto fail_fs = std::make_shared<PkIndexFailFs>(fx.fs);
  fx.fs = fail_fs;
  DatasetOptions o = SmallOptions(SchemaMode::kOpen, /*memtable_kb=*/64);
  o.primary_key_index = true;
  ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
  fail_fs->fail_pkidx = true;
  GroupCommitConfig gc;
  gc.max_records = 256;
  gc.max_usecs = 1000;
  IngestFrontEnd front_end(fx.dataset.get(), gc, /*queue_capacity=*/2);
  constexpr size_t kBatch = 256;
  bool failed = false;
  for (int64_t base = 0; base < 4096 && !failed; base += kBatch) {
    IngestTicket ticket = front_end.Submit(SequentialBatch(base, kBatch));
    Status st = ticket.Wait();
    if (st.ok()) continue;
    failed = true;
    auto errors = ticket.errors();
    ASSERT_EQ(errors.size(), kBatch);
    for (const auto& [idx, rec_st] : errors) {
      EXPECT_LT(idx, kBatch);
      EXPECT_FALSE(rec_st.ok());
    }
  }
  ASSERT_TRUE(failed) << "pk-index flush failure never surfaced";
  EXPECT_FALSE(front_end.Drain().ok());  // batch-level failures latch
}

// A partition's primary, pk-index and secondary trees share one write budget
// (memtable_budget_bytes, owned by the partition): through a pooled upsert
// feed their live memtables together stay within the arbiter's 2x ceiling,
// the auxiliary trees flush when they grow largest, and nothing is lost.
TEST(Dataset, PartitionTreesShareOneWriteBudget) {
  constexpr size_t kBudget = 256 * 1024;
  constexpr size_t kPartitions = 2;
  TaskPool pool(2);
  auto options = [&] {
    DatasetOptions o = SmallOptions(SchemaMode::kInferred, kBudget / 1024);
    o.primary_key_index = true;
    o.secondary_index_field = "score";
    o.merge_pool = &pool;
    return o;
  };
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(options(), kPartitions).ok());

  auto live_bytes = [](const PartitionReadView& v) {
    return v.primary->memtable().approximate_bytes() +
           v.pk_index->memtable().approximate_bytes() +
           v.secondary->memtable().approximate_bytes();
  };
  std::atomic<bool> done{false};
  std::atomic<size_t> live_peak{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (size_t p = 0; p < kPartitions; ++p) {
        size_t live = live_bytes(fx.dataset->partition(p)->AcquireReadView());
        if (live > live_peak.load()) live_peak.store(live);
      }
      std::this_thread::yield();
    }
  });

  constexpr int64_t kKeys = 6000;
  constexpr size_t kBatch = 50;
  const std::string text(120, 't');
  std::map<int64_t, int64_t> score_of;  // the oracle: pk -> final score
  Rng rng(19);
  for (int round = 0; round < 2; ++round) {
    for (int64_t base = 0; base < kKeys; base += kBatch) {
      std::vector<AdmValue> batch;
      for (int64_t k = base; k < base + static_cast<int64_t>(kBatch); ++k) {
        int64_t score = static_cast<int64_t>(rng.Uniform(100000));
        score_of[k] = score;
        batch.push_back(R(R"({"id": )" + std::to_string(k) + R"(, "score": )" +
                          std::to_string(score) + R"(, "text": ")" + text +
                          R"("})"));
      }
      ASSERT_TRUE(fx.dataset->UpsertBatch(batch).ok());
    }
  }
  done.store(true, std::memory_order_release);
  sampler.join();
  // Slack: one batch lands in all three trees between the arbiter's checks.
  EXPECT_LE(live_peak.load(), 2 * kBudget + 64 * 1024);
  for (size_t p = 0; p < kPartitions; ++p) {
    DatasetPartition* part = fx.dataset->partition(p);
    EXPECT_GT(part->primary()->stats().flush_count, 0u) << "partition " << p;
    EXPECT_GT(part->pk_index()->stats().flush_count, 0u) << "partition " << p;
    EXPECT_GT(part->secondary()->tree()->stats().flush_count, 0u)
        << "partition " << p;
  }

  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  ASSERT_TRUE(fx.Reopen(options(), kPartitions).ok());
  for (const auto& [pk, score] : score_of) {
    auto got = fx.dataset->Get(pk).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << pk;
    EXPECT_EQ(got->FindField("score")->int_value(), score) << pk;
  }
  for (int64_t lo : {int64_t{0}, int64_t{25000}, int64_t{70000}}) {
    const int64_t hi = lo + 9999;
    std::vector<int64_t> expected;
    for (const auto& [pk, score] : score_of) {
      if (score >= lo && score <= hi) expected.push_back(pk);
    }
    auto pks = fx.dataset->SecondaryRangeScan(lo, hi).ValueOrDie();
    std::sort(pks.begin(), pks.end());
    EXPECT_EQ(pks, expected) << "[" << lo << ", " << hi << "]";
  }
}

// A feed interleaving inserts, upserts, and deletes through one front end:
// groups never mix operations and per-partition submission order is
// preserved, so the final state is exactly what the sequential ops dictate.
TEST(Dataset, IngestFrontEndMixedOperations) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 256), 2).ok());
  GroupCommitConfig gc;
  gc.max_records = 64;  // small groups: op boundaries + caps both close groups
  gc.max_usecs = 500;
  IngestFrontEnd fe(fx.dataset.get(), gc, /*queue_capacity=*/4);

  auto rec = [](int64_t id, int v) {
    return R(R"({"id": )" + std::to_string(id) + R"(, "v": )" +
             std::to_string(v) + "}");
  };
  std::vector<AdmValue> inserts;
  for (int64_t id = 0; id < 100; ++id) inserts.push_back(rec(id, 1));
  std::vector<AdmValue> upserts;
  for (int64_t id = 50; id < 150; ++id) upserts.push_back(rec(id, 2));
  std::vector<AdmValue> deletes;  // pk only: kDelete encodes no payload
  for (int64_t id = 0; id < 25; ++id) {
    deletes.push_back(R(R"({"id": )" + std::to_string(id) + "}"));
  }
  IngestTicket t1 = fe.Submit(std::move(inserts), WriteOp::kInsert);
  IngestTicket t2 = fe.Submit(std::move(upserts), WriteOp::kUpsert);
  IngestTicket t3 = fe.Submit(std::move(deletes), WriteOp::kDelete);
  EXPECT_TRUE(t1.Wait().ok());
  EXPECT_TRUE(t2.Wait().ok());
  EXPECT_TRUE(t3.Wait().ok());
  ASSERT_TRUE(fe.Drain().ok());

  for (int64_t id = 0; id < 150; ++id) {
    auto got = fx.dataset->Get(id);
    ASSERT_TRUE(got.ok()) << "id " << id;
    if (id < 25) {
      EXPECT_FALSE(got.value().has_value()) << "id " << id << " not deleted";
      continue;
    }
    ASSERT_TRUE(got.value().has_value()) << "id " << id;
    const AdmValue* v = got.value()->FindField("v");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->int_value(), id < 50 ? 1 : 2) << "id " << id;
  }
}

// One write path: the same seeded mix of inserts, upserts and deletes gives
// the same dataset whether it goes in record at a time, as *Batch chunks, or
// through the ingest front end — records, secondary index, inferred schemas
// (anti-schema processing included) and old-version lookups alike.
TEST(Dataset, WriteEntryPointsAgreeOnMixedOps) {
  constexpr int64_t kKeys = 300;
  constexpr int64_t kBaseKeys = 200;
  struct Op {
    WriteOp kind;
    AdmValue record;  // pk only for deletes
  };
  auto scored = [](Rng* rng, int64_t id) {
    AdmValue rec = testutil::RandomRecord(rng, id, /*depth=*/3);
    rec.AddField("score", AdmValue::BigInt(rng->Range(0, 40)));
    return rec;
  };
  Rng rng(20260417);
  std::vector<AdmValue> base;
  std::vector<bool> live(kKeys, false);
  for (int64_t id = 0; id < kBaseKeys; ++id) {
    base.push_back(scored(&rng, id));
    live[id] = true;
  }
  // Runs of one op kind, so the batched paths see repeated keys per batch;
  // inserts only target keys that are not live.
  std::vector<std::vector<Op>> chunks;
  for (int c = 0; c < 60; ++c) {
    WriteOp kind = static_cast<WriteOp>(rng.Uniform(3));
    std::vector<Op> chunk;
    size_t n = 1 + rng.Uniform(12);
    for (size_t i = 0; i < n; ++i) {
      int64_t id = rng.Range(0, kKeys - 1);
      if (kind == WriteOp::kInsert) {
        if (live[id]) continue;
        live[id] = true;
        chunk.push_back({kind, scored(&rng, id)});
      } else if (kind == WriteOp::kUpsert) {
        live[id] = true;
        chunk.push_back({kind, scored(&rng, id)});
      } else {
        live[id] = false;
        AdmValue pk_only = AdmValue::Object();
        pk_only.AddField("id", AdmValue::BigInt(id));
        chunk.push_back({kind, std::move(pk_only)});
      }
    }
    if (!chunk.empty()) chunks.push_back(std::move(chunk));
  }

  struct Outcome {
    std::vector<std::string> records;
    std::vector<int64_t> secondary;
    std::vector<Schema> schemas;
    uint64_t old_version_lookups = 0;
  };
  enum class Path { kSingle, kBatch, kFrontEnd };
  auto run = [&](Path path, Outcome* out) {
    DatasetFixture fx;
    DatasetOptions o = ScoreIndexedOptions();
    o.memtable_budget_bytes = 16 << 20;  // only the explicit flushes below
    ASSERT_TRUE(fx.Open(o, 2).ok());
    Dataset* ds = fx.dataset.get();
    ASSERT_TRUE(ds->InsertBatch(base).ok());
    ASSERT_TRUE(ds->FlushAll().ok());
    std::unique_ptr<IngestFrontEnd> fe;
    if (path == Path::kFrontEnd) {
      GroupCommitConfig gc;
      gc.max_records = 16;
      gc.max_usecs = 200;
      fe = std::make_unique<IngestFrontEnd>(ds, gc, /*queue_capacity=*/4);
    }
    std::vector<IngestTicket> tickets;
    for (const std::vector<Op>& chunk : chunks) {
      WriteOp kind = chunk.front().kind;
      std::vector<AdmValue> records;
      std::vector<int64_t> pks;
      for (const Op& op : chunk) {
        records.push_back(op.record);
        pks.push_back(op.record.FindField("id")->int_value());
      }
      switch (path) {
        case Path::kSingle:
          for (size_t i = 0; i < records.size(); ++i) {
            Status st = kind == WriteOp::kInsert   ? ds->Insert(records[i])
                        : kind == WriteOp::kUpsert ? ds->Upsert(records[i])
                                                   : ds->Delete(pks[i]);
            ASSERT_TRUE(st.ok()) << st.ToString();
          }
          break;
        case Path::kBatch: {
          Status st = kind == WriteOp::kInsert   ? ds->InsertBatch(records)
                      : kind == WriteOp::kUpsert ? ds->UpsertBatch(records)
                                                 : ds->DeleteBatch(pks);
          ASSERT_TRUE(st.ok()) << st.ToString();
          break;
        }
        case Path::kFrontEnd:
          tickets.push_back(fe->Submit(std::move(records), kind));
          break;
      }
    }
    for (IngestTicket& t : tickets) ASSERT_TRUE(t.Wait().ok());
    if (fe != nullptr) {
      ASSERT_TRUE(fe->Drain().ok());
      fe.reset();
    }
    ASSERT_TRUE(ds->FlushAll().ok());
    for (int64_t id = 0; id < kKeys; ++id) {
      auto got = ds->Get(id).ValueOrDie();
      out->records.push_back(got.has_value() ? PrintAdm(*got) : "<absent>");
    }
    out->secondary = ds->SecondaryRangeScan(INT64_MIN, INT64_MAX).ValueOrDie();
    for (size_t p = 0; p < ds->partition_count(); ++p) {
      out->schemas.push_back(ds->partition(p)->SchemaSnapshot());
    }
    out->old_version_lookups = ds->AggregateStats().old_version_lookups;
  };
  Outcome single, batch, front_end;
  run(Path::kSingle, &single);
  run(Path::kBatch, &batch);
  run(Path::kFrontEnd, &front_end);
  ASSERT_FALSE(HasFatalFailure());
  for (int64_t id = 0; id < kKeys; ++id) {
    EXPECT_EQ(live[id], single.records[id] != "<absent>") << id;
  }
  EXPECT_FALSE(single.secondary.empty());
  EXPECT_GT(single.old_version_lookups, 0u);
  for (const Outcome* other : {&batch, &front_end}) {
    EXPECT_EQ(other->records, single.records);
    EXPECT_EQ(other->secondary, single.secondary);
    ASSERT_EQ(other->schemas.size(), single.schemas.size());
    for (size_t p = 0; p < single.schemas.size(); ++p) {
      EXPECT_TRUE(other->schemas[p].Equals(single.schemas[p]))
          << "partition " << p << "\n"
          << other->schemas[p].ToString() << "\nvs\n"
          << single.schemas[p].ToString();
    }
    EXPECT_EQ(other->old_version_lookups, single.old_version_lookups);
  }
}

TEST(Dataset, InsertJsonBatchOffsetLocatesBadRecord) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred), 1).ok());
  Status st = fx.dataset->InsertJson(R"({"name": "nopk"})", /*batch_offset=*/4217);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message().find("record 4217: "), 0u) << st.message();
  // Without an offset the message stays unprefixed.
  Status bare = fx.dataset->InsertJson(R"({"name": "nopk"})");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.message().find("record 4217"), std::string::npos) << bare.message();
}

}  // namespace
}  // namespace tc
