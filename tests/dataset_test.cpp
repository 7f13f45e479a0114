#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "adm/parser.h"
#include "adm/printer.h"
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

// Restores an env var on scope exit even when an ASSERT_* returns early —
// a leaked TC_MERGE_POLICY would silently re-policy every later test, since
// DatasetOptions reads the environment in its default member initializer.
struct ScopedEnv {
  const char* name;
  ScopedEnv(const char* n, const char* value) : name(n) {
    ::setenv(n, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name); }
};

TEST(Dataset, MergePolicySelectedByEnvEndToEnd) {
  // TC_MERGE_POLICY must reach every LSM tree of a partition: the primary,
  // the primary-key index, and the secondary-index tree.
  {
    ScopedEnv env("TC_MERGE_POLICY", "tiered");
    DatasetFixture fx;
    DatasetOptions o;  // default options re-read the environment
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
  DatasetOptions o = SmallOptions(SchemaMode::kOpen, /*memtable_kb=*/1024);
  o.primary_key_index = true;
  ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
  fail_fs->fail_pkidx = true;
  constexpr size_t kBatch = 256;
  bool failed = false;
  // The pk-index memtable budget is 64 KiB (~1024 entries): a few batches in,
  // its caller-runs flush hits the injected failure.
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
  DatasetOptions o = SmallOptions(SchemaMode::kOpen, /*memtable_kb=*/1024);
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
  IngestTicket t1 = fe.Submit(std::move(inserts), IngestOp::kInsert);
  IngestTicket t2 = fe.Submit(std::move(upserts), IngestOp::kUpsert);
  IngestTicket t3 = fe.Submit(std::move(deletes), IngestOp::kDelete);
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
