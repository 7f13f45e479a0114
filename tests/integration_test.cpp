// End-to-end flows combining ingestion (feeds + updates), flush/merge,
// compression, schema evolution, recovery, queries, and the cluster harness.
#include <gtest/gtest.h>

#include "adm/parser.h"
#include "adm/printer.h"
#include "cluster/cluster.h"
#include "query/paper_queries.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace tc {
namespace {

using testutil::DatasetFixture;
using testutil::SmallOptions;

AdmValue R(const std::string& text) { return ParseAdm(text).ValueOrDie(); }

TEST(Integration, UpdateHeavyFeedKeepsSchemaExact) {
  // 50% updates that add/remove fields and change types (the Figure 17b
  // workload); the inferred schema must stay exactly consistent with the
  // live data (anti-schema processing at every flush).
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, 32);
  o.primary_key_index = true;
  ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
  Rng rng(2718);
  std::map<int64_t, AdmValue> model;
  for (int i = 0; i < 600; ++i) {
    int64_t pk = static_cast<int64_t>(rng.Uniform(150));
    AdmValue rec = AdmValue::Object();
    rec.AddField("id", AdmValue::BigInt(pk));
    // Rotating shapes: sometimes int, sometimes string, sometimes extra field.
    switch (rng.Uniform(3)) {
      case 0:
        rec.AddField("v", AdmValue::BigInt(static_cast<int64_t>(rng.Next() % 100)));
        break;
      case 1:
        rec.AddField("v", AdmValue::String(rng.AlphaString(6)));
        break;
      default:
        rec.AddField("v", AdmValue::BigInt(1));
        rec.AddField("extra", AdmValue::Double(0.5));
        break;
    }
    ASSERT_TRUE(fx.dataset->Upsert(rec).ok());
    model[pk] = std::move(rec);
  }
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  // Data correct.
  for (const auto& [pk, rec] : model) {
    auto got = fx.dataset->Get(pk).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << pk;
    EXPECT_EQ(PrintAdm(*got), PrintAdm(rec)) << pk;
  }
  // Schema counters exactly match the live records: re-infer from scratch.
  DatasetType type = DatasetType::OpenWithPk("id");
  Schema expected;
  for (const auto& [pk, rec] : model) {
    ASSERT_TRUE(testutil::EncodeAndApply(&expected, rec, type).ok());
  }
  Schema actual = fx.dataset->partition(0)->SchemaSnapshot();
  EXPECT_EQ(actual.ToString(), expected.ToString());
}

TEST(Integration, DeleteEverythingEmptiesSchema) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 16), 1).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fx.dataset
                    ->Insert(R(R"({"id": )" + std::to_string(i) +
                               R"(, "payload": "x"})"))
                    .ok());
  }
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(fx.dataset->Delete(i).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  EXPECT_EQ(fx.dataset->partition(0)->SchemaSnapshot().ToString(), "{}(0)");
  for (int i = 0; i < 100; i += 13) {
    EXPECT_FALSE(fx.dataset->Get(i).ValueOrDie().has_value());
  }
}

TEST(Integration, MergeKeepsNewestSchemaAndData) {
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, 16);
  o.merge.max_tolerance_count = 2;  // merge aggressively
  ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
  auto gen = MakeWosGenerator(55);
  std::vector<AdmValue> records;
  for (int i = 0; i < 60; ++i) {
    records.push_back(gen->NextRecord());
    ASSERT_TRUE(fx.dataset->Insert(records.back()).ok());
  }
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  LsmStats stats = fx.dataset->AggregateStats();
  EXPECT_GT(stats.merge_count, 0u);
  // All records decodable after merges (merged component carries the newest
  // schema, §3.1.1).
  for (const auto& rec : records) {
    int64_t pk = rec.FindField("id")->int_value();
    auto got = fx.dataset->Get(pk).ValueOrDie();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(PrintAdm(*got), PrintAdm(rec));
  }
}

TEST(Integration, CompressedInferredSurvivesRestart) {
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, 64);
  o.compression = true;
  o.wal_sync_every = 1;
  ASSERT_TRUE(fx.Open(o, 2).ok());
  auto gen = MakeSensorsGenerator(66);
  std::vector<AdmValue> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(gen->NextRecord());
    ASSERT_TRUE(fx.dataset->Insert(records.back()).ok());
  }
  // Restart without explicit flush: WAL replay + recovery flush.
  ASSERT_TRUE(fx.Reopen(o, 2).ok());
  for (const auto& rec : records) {
    int64_t pk = rec.FindField("id")->int_value();
    auto got = fx.dataset->Get(pk).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << pk;
    EXPECT_EQ(PrintAdm(*got), PrintAdm(rec));
  }
  // Queries still work after recovery.
  auto res = SensorsQ2(fx.dataset.get(), QueryOptions{}).ValueOrDie();
  EXPECT_FALSE(res.summary.empty());
}

TEST(Integration, ClusterHarnessIngestsAndQueries) {
  auto fs = MakeMemFileSystem();
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, 128);
  BufferCache cache(o.page_size, 4096);
  o.fs = fs;
  o.cache = &cache;
  o.dir = "cluster";
  auto harness =
      ClusterHarness::Create(ClusterTopology{2, 2}, std::move(o)).ValueOrDie();
  ASSERT_TRUE(harness->IngestParallel("twitter", 40, 7).ok());
  auto res = TwitterQ1(harness->dataset(), QueryOptions{}).ValueOrDie();
  EXPECT_EQ(res.summary, "count=80");  // 2 nodes x 40 records
  auto q2 = TwitterQ2(harness->dataset(), QueryOptions{}).ValueOrDie();
  EXPECT_FALSE(q2.summary.empty());
}

TEST(Integration, SlVbMatchesInferredResultsButLargerStorage) {
  // SL-VB (vector format without compaction) must produce identical query
  // results with a larger footprint (Figure 21).
  uint64_t inferred_bytes = 0, slvb_bytes = 0;
  std::string inferred_q2, slvb_q2;
  for (SchemaMode mode : {SchemaMode::kInferred, SchemaMode::kSchemalessVB}) {
    DatasetFixture fx;
    ASSERT_TRUE(fx.Open(SmallOptions(mode, 256), 1).ok());
    auto gen = MakeSensorsGenerator(88);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
    }
    ASSERT_TRUE(fx.dataset->FlushAll().ok());
    auto res = SensorsQ3(fx.dataset.get(), QueryOptions{}).ValueOrDie();
    if (mode == SchemaMode::kInferred) {
      inferred_bytes = fx.dataset->TotalPhysicalBytes();
      inferred_q2 = res.summary;
    } else {
      slvb_bytes = fx.dataset->TotalPhysicalBytes();
      slvb_q2 = res.summary;
    }
  }
  EXPECT_EQ(inferred_q2, slvb_q2);
  EXPECT_LT(inferred_bytes, slvb_bytes);
}

TEST(Integration, BulkLoadThenQueriesMatchFeedIngestion) {
  std::string fed, loaded;
  for (bool bulk : {false, true}) {
    DatasetFixture fx;
    ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 2).ok());
    auto gen = MakeWosGenerator(31);
    std::vector<AdmValue> records;
    for (int i = 0; i < 50; ++i) records.push_back(gen->NextRecord());
    if (bulk) {
      ASSERT_TRUE(fx.dataset->BulkLoad(std::move(records)).ok());
    } else {
      for (const auto& r : records) ASSERT_TRUE(fx.dataset->Insert(r).ok());
      ASSERT_TRUE(fx.dataset->FlushAll().ok());
    }
    auto res = WosQ3(fx.dataset.get(), QueryOptions{}).ValueOrDie();
    (bulk ? loaded : fed) = res.summary;
  }
  EXPECT_EQ(fed, loaded);
}

}  // namespace
}  // namespace tc
