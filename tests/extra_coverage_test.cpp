// Additional edge-case and property coverage on top of the per-module suites:
// walker structure invariants, iterator seeks, single-thread executor
// equivalence, bulk-load index maintenance, the benches' environment reader,
// and failure-injection around the component transformer.
#include <gtest/gtest.h>

#include <cstdlib>

#include "adm/parser.h"
#include "adm/printer.h"
#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "format/vector_format.h"
#include "query/field_access.h"
#include "query/paper_queries.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace tc {
namespace {

using testutil::DatasetFixture;
using testutil::SmallOptions;

AdmValue R(const std::string& text) { return ParseAdm(text).ValueOrDie(); }

TEST(EnvConfig, ParsesAndDefaults) {
  using bench::EnvInt64;
  ::setenv("TC_TEST_KNOB", "123", 1);
  EXPECT_EQ(EnvInt64("TC_TEST_KNOB", 7), 123);
  ::setenv("TC_TEST_KNOB", "garbage", 1);
  EXPECT_EQ(EnvInt64("TC_TEST_KNOB", 7), 7);
  ::unsetenv("TC_TEST_KNOB");
  EXPECT_EQ(EnvInt64("TC_TEST_KNOB", 7), 7);
}

TEST(Walker, EventStructureMatchesValueTree) {
  // Property: for any record, the walker emits exactly CountScalars() scalar
  // events, one enter per nested value, and balanced end-nest events.
  Rng rng(20240608);
  DatasetType type = DatasetType::OpenWithPk("id");
  for (int i = 0; i < 200; ++i) {
    AdmValue rec = testutil::RandomRecord(&rng, i, 5);
    Buffer b;
    ASSERT_TRUE(EncodeVectorRecord(rec, type, &b).ok());
    VectorRecordWalker walker{VectorRecordView(b.data(), b.size())};
    size_t scalars = 0, enters = 0, leaves = 0;
    VectorRecordWalker::Item it;
    bool done = false;
    while (true) {
      ASSERT_TRUE(walker.Next(&it, &done).ok());
      if (done) break;
      if (it.tag == AdmTag::kEndNest) {
        ++leaves;
      } else if (IsNested(it.tag)) {
        ++enters;
      } else {
        ++scalars;
      }
    }
    // Encoding drops missing-valued fields; count survivors in the tree.
    std::function<size_t(const AdmValue&)> live_scalars = [&](const AdmValue& v) {
      if (v.is_scalar()) return v.tag() == AdmTag::kMissing ? size_t{0} : size_t{1};
      size_t n = 0;
      if (v.is_object()) {
        for (size_t f = 0; f < v.field_count(); ++f) n += live_scalars(v.field_value(f));
      } else {
        for (size_t k = 0; k < v.size(); ++k) n += live_scalars(v.item(k));
      }
      return n;
    };
    EXPECT_EQ(scalars, live_scalars(rec)) << i;
    EXPECT_EQ(enters, leaves + 1) << i;  // root enter closed by EOV, not end-nest
  }
}

TEST(LsmIterator, SeekAcrossComponentsAndMemtable) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 16), 1).ok());
  // Spread keys 0..299 across multiple components and the memtable.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(fx.dataset
                    ->Insert(R(R"({"id": )" + std::to_string(i) + R"(, "v": ")" +
                               std::string(200, 'x') + R"("})"))
                    .ok());
  }
  LsmTree* tree = fx.dataset->partition(0)->primary();
  // The prefix policy may have merged the small flushed components back into
  // one; what matters is that the iterator merges disk component(s) with the
  // live memtable tail.
  EXPECT_GE(tree->component_count(), 1u);
  EXPECT_FALSE(tree->View().memtable().empty());
  LsmTree::Iterator it(tree);
  ASSERT_TRUE(it.Seek(BtreeKey{150, 0}).ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().a, 150);
  int count = 0;
  while (it.Valid()) {
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 150);
  ASSERT_TRUE(it.Seek(BtreeKey{1000, 0}).ok());
  EXPECT_FALSE(it.Valid());
}

TEST(Executor, SingleThreadMatchesParallel) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 4).ok());
  auto gen = MakeTwitterGenerator(3);
  for (int i = 0; i < 80; ++i) ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  QueryOptions par;
  QueryOptions seq;
  seq.max_threads = 1;
  for (int q = 1; q <= 4; ++q) {
    auto a = RunPaperQuery("twitter", q, fx.dataset.get(), par).ValueOrDie();
    auto b = RunPaperQuery("twitter", q, fx.dataset.get(), seq).ValueOrDie();
    EXPECT_EQ(a.summary, b.summary) << "Q" << q;
  }
}

TEST(Dataset, BulkLoadPopulatesPkIndex) {
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, 128);
  o.primary_key_index = true;
  ASSERT_TRUE(fx.Open(std::move(o), 2).ok());
  std::vector<AdmValue> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(R(R"({"id": )" + std::to_string(i) + R"(, "v": 1})"));
  }
  ASSERT_TRUE(fx.dataset->BulkLoad(std::move(records)).ok());
  // Upserting an existing key must find the old version (through the PK
  // index) so its anti-schema is processed — the schema count stays exact.
  ASSERT_TRUE(fx.dataset->Upsert(R(R"({"id": 5, "v": "now-a-string"})")).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  size_t p = fx.dataset->PartitionOf(5);
  std::string schema = fx.dataset->partition(p)->SchemaSnapshot().ToString();
  // If the old version leaked, v would be union(bigint(n)|string(1)) with a
  // bigint count including key 5's stale contribution.
  auto rec = fx.dataset->Get(5).ValueOrDie();
  EXPECT_EQ(rec->FindField("v")->string_value(), "now-a-string");
  EXPECT_NE(schema.find("union"), std::string::npos);
}

TEST(Dataset, SchemaCountersStayExactUnderBulkThenMutate) {
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, 64);
  o.primary_key_index = true;
  ASSERT_TRUE(fx.Open(std::move(o), 1).ok());
  std::vector<AdmValue> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back(R(R"({"id": )" + std::to_string(i) + R"(, "tag": "a"})"));
  }
  ASSERT_TRUE(fx.dataset->BulkLoad(std::move(records)).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(fx.dataset->Delete(i).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  EXPECT_EQ(fx.dataset->partition(0)->SchemaSnapshot().ToString(),
            "{tag:string(10)}(10)");
}

TEST(ComponentTransformer, CorruptPayloadFailsFlushSafely) {
  // A corrupt record payload must fail the flush with a Status (never abort),
  // and the dataset must remain usable.
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 64), 1).ok());
  LsmTree* tree = fx.dataset->partition(0)->primary();
  Buffer garbage(64, 0xAB);
  ASSERT_TRUE(tree->Insert(BtreeKey{1, 0},
                           std::string_view(reinterpret_cast<const char*>(
                                                garbage.data()),
                                            garbage.size()))
                  .ok());
  Status st = tree->Flush();
  EXPECT_FALSE(st.ok());
}

TEST(AdmParser, DeepNestingBounded) {
  // The decoder guards recursion depth; the parser builds what fits.
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 300; ++i) deep += "]";
  auto r = ParseAdm(deep);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Depth(), 301u);
}

TEST(VectorFormat, RecordWithOnlyDeclaredKey) {
  DatasetType type = DatasetType::OpenWithPk("id");
  AdmValue rec = R(R"({"id": 42})");
  Buffer b;
  ASSERT_TRUE(EncodeVectorRecord(rec, type, &b).ok());
  Schema schema;
  Buffer c;
  ASSERT_TRUE(InferAndCompactVectorRecord(VectorRecordView(b.data(), b.size()),
                                          type, &schema, &c)
                  .ok());
  EXPECT_EQ(schema.ToString(), "{}(1)");
  AdmValue out;
  ASSERT_TRUE(
      DecodeVectorRecord(VectorRecordView(c.data(), c.size()), type, &schema, &out)
          .ok());
  EXPECT_EQ(out, rec);
}

TEST(Queries, WildcardOverUnionFieldBothShapes) {
  // WoS-style union: the same path works whether address_name is an object
  // or an array (only arrays contribute, per the paper's is_array guard).
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 1).ok());
  ASSERT_TRUE(fx.dataset
                  ->Insert(R(R"({"id": 1, "addr":
                      {"name": [{"spec": {"c": "USA"}}, {"spec": {"c": "China"}}]}})"))
                  .ok());
  ASSERT_TRUE(fx.dataset
                  ->Insert(R(R"({"id": 2, "addr": {"name": {"spec": {"c": "Japan"}}}})"))
                  .ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  Schema snapshot = fx.dataset->partition(0)->SchemaSnapshot();
  RecordAccessor acc(SchemaMode::kInferred, &fx.dataset->options().type,
                     std::move(snapshot), /*consolidate=*/true);
  std::vector<FieldPath> paths = {FieldPath::Parse("addr.name[*].spec.c")};
  std::vector<AdmValue> out;
  for (int64_t pk : {1, 2}) {
    auto payload = fx.dataset->partition(0)->primary()->Get(BtreeKey{pk, 0});
    ASSERT_TRUE(payload.ok());
    ASSERT_TRUE(payload.value().has_value());
    const Buffer& bytes = *payload.value();
    ASSERT_TRUE(acc.GetValues(std::string_view(reinterpret_cast<const char*>(
                                                   bytes.data()),
                                               bytes.size()),
                              paths, &out)
                    .ok());
    if (pk == 1) {
      EXPECT_EQ(out[0].size(), 2u);
    } else {
      EXPECT_EQ(out[0].size(), 0u);  // object-shaped: [*] matches nothing
    }
  }
}

TEST(Workloads, ClusterReKeyingKeepsPksDisjoint) {
  auto fs = MakeMemFileSystem();
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, 256);
  BufferCache cache(o.page_size, 2048);
  o.fs = fs;
  o.cache = &cache;
  o.dir = "ck";
  auto harness =
      ClusterHarness::Create(ClusterTopology{3, 1}, std::move(o)).ValueOrDie();
  ASSERT_TRUE(harness->IngestParallel("sensors", 20, 5).ok());
  auto res = SensorsQ1(harness->dataset(), QueryOptions{}).ValueOrDie();
  // 3 nodes x 20 records, no pk collisions -> 60 x 117 readings.
  EXPECT_EQ(res.summary, "readings=" + std::to_string(60 * 117));
}

}  // namespace
}  // namespace tc
