#include <gtest/gtest.h>

#include "query/paper_queries.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace tc {
namespace {

using testutil::DatasetFixture;
using testutil::SmallOptions;

struct QueryFixture {
  DatasetFixture fx;

  void Load(SchemaMode mode, const std::string& workload, int n,
            size_t partitions = 2) {
    DatasetOptions o = SmallOptions(mode, 256);
    auto gen = MakeGenerator(workload, 1234);
    if (mode == SchemaMode::kClosed) o.type = gen->ClosedType();
    ASSERT_TRUE(fx.Open(std::move(o), partitions).ok());
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
    }
    ASSERT_TRUE(fx.dataset->FlushAll().ok());
  }
};

TEST(Operators, ScanCountsEverything) {
  QueryFixture q;
  q.Load(SchemaMode::kInferred, "twitter", 50);
  auto res = TwitterQ1(q.fx.dataset.get(), QueryOptions{}).ValueOrDie();
  EXPECT_EQ(res.summary, "count=50");
  EXPECT_EQ(res.stats.rows_scanned, 50u);
  EXPECT_GT(res.stats.bytes_scanned, 0u);
}

TEST(Operators, SensorsQ1CountsUnnestedReadings) {
  QueryFixture q;
  q.Load(SchemaMode::kInferred, "sensors", 10, 1);
  // SensorsQ1 counts unnested readings: 117 per record.
  auto res = SensorsQ1(q.fx.dataset.get(), QueryOptions{}).ValueOrDie();
  EXPECT_EQ(res.summary, "readings=" + std::to_string(10 * 117));
}

TEST(Operators, GroupMapTopK) {
  GroupMap m;
  m.Cell("a").Add(1);
  m.Cell("a").Add(3);
  m.Cell("b").Add(10);
  m.Cell("c").AddCount();
  GroupMap other;
  other.Cell("b").Add(20);
  m.Merge(other);
  auto top = m.TopK(2, [](const AggCell& c) { return c.avg(); });
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "b");  // avg 15
  EXPECT_DOUBLE_EQ(top[0].second.avg(), 15.0);
  EXPECT_EQ(top[1].first, "a");  // avg 2
}

TEST(AggCell, MinMaxMerge) {
  AggCell a;
  a.Add(5);
  a.Add(-2);
  AggCell b;
  b.Add(100);
  a.Merge(b);
  EXPECT_EQ(a.count, 3);
  EXPECT_DOUBLE_EQ(a.min, -2);
  EXPECT_DOUBLE_EQ(a.max, 100);
  AggCell empty;
  a.Merge(empty);
  EXPECT_EQ(a.count, 3);
}

// Every paper query must return identical results across storage
// configurations: open, closed, inferred, SL-VB, with and without the
// field-access optimization, compressed and uncompressed.
class QueryEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(QueryEquivalence, AllConfigurationsAgree) {
  auto [workload, qnum] = GetParam();
  std::string reference;
  struct Config {
    SchemaMode mode;
    bool compression;
    bool consolidate;
    bool deep = true;  // §3.4.2-deep scan-predicate pushdown
  };
  std::vector<Config> configs = {
      {SchemaMode::kOpen, false, true},   {SchemaMode::kClosed, false, true},
      {SchemaMode::kInferred, false, true}, {SchemaMode::kInferred, false, false},
      {SchemaMode::kInferred, true, true},  {SchemaMode::kSchemalessVB, false, true},
      {SchemaMode::kInferred, false, true, /*deep=*/false},
      {SchemaMode::kInferred, false, false, /*deep=*/false},
  };
  for (const Config& cfg : configs) {
    DatasetFixture fx;
    DatasetOptions o = SmallOptions(cfg.mode, 128);
    o.compression = cfg.compression;
    auto gen = MakeGenerator(workload, 42);
    if (cfg.mode == SchemaMode::kClosed) o.type = gen->ClosedType();
    ASSERT_TRUE(fx.Open(std::move(o), 2).ok());
    int n = workload == "sensors" ? 40 : 80;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
    }
    ASSERT_TRUE(fx.dataset->FlushAll().ok());
    QueryOptions qo;
    qo.consolidate_field_access = cfg.consolidate;
    qo.pushdown_scan_predicates = cfg.deep;
    auto res = RunPaperQuery(workload, qnum, fx.dataset.get(), qo);
    ASSERT_TRUE(res.ok()) << res.status().ToString() << " mode "
                          << SchemaModeName(cfg.mode);
    std::string got = res.value().summary;
    if (reference.empty()) {
      reference = got;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(got, reference)
          << workload << " Q" << qnum << " mode=" << SchemaModeName(cfg.mode)
          << " comp=" << cfg.compression << " consolidate=" << cfg.consolidate
          << " deep=" << cfg.deep;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, QueryEquivalence,
    ::testing::Combine(::testing::Values("twitter", "wos", "sensors"),
                       ::testing::Values(1, 2, 3, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_Q" + std::to_string(std::get<1>(info.param));
    });

TEST(SchemaBroadcast, CollectedOnlyForNonLocalExchange) {
  QueryFixture q;
  q.Load(SchemaMode::kInferred, "twitter", 30);
  SchemaRegistry none = SchemaRegistry::Collect(q.fx.dataset.get(), false);
  EXPECT_FALSE(none.collected());
  EXPECT_EQ(none.ForPartition(0), nullptr);
  SchemaRegistry reg = SchemaRegistry::Collect(q.fx.dataset.get(), true);
  EXPECT_TRUE(reg.collected());
  EXPECT_GT(reg.broadcast_bytes(), 0u);
  ASSERT_NE(reg.ForPartition(0), nullptr);
  ASSERT_NE(reg.ForPartition(1), nullptr);
  EXPECT_EQ(reg.ForPartition(5), nullptr);
  // Schemas are per-partition snapshots.
  EXPECT_EQ(reg.ForPartition(0)->ToString(),
            q.fx.dataset->partition(0)->SchemaSnapshot().ToString());
}

TEST(SchemaBroadcast, Q4DecodesForeignRecords) {
  // TwitterQ4 repartitions raw records and decodes them against the broadcast
  // schema of the source partition (§3.4.1).
  QueryFixture q;
  q.Load(SchemaMode::kInferred, "twitter", 60, 4);
  auto res = TwitterQ4(q.fx.dataset.get(), QueryOptions{}).ValueOrDie();
  EXPECT_EQ(res.summary, "ordered=60");
  EXPECT_GT(res.stats.schema_broadcast_bytes, 0u);
}

TEST(Queries, SelectiveWindowFiltersSensorsQ4) {
  QueryFixture q;
  q.Load(SchemaMode::kInferred, "sensors", 300, 1);
  auto q3 = SensorsQ3(q.fx.dataset.get(), QueryOptions{}).ValueOrDie();
  auto q4 = SensorsQ4(q.fx.dataset.get(), QueryOptions{}).ValueOrDie();
  // The window covers only the head of the generated time range.
  EXPECT_NE(q3.summary, q4.summary);
  EXPECT_FALSE(q4.summary.empty());
}

TEST(Queries, RunPaperQueryDispatch) {
  QueryFixture q;
  q.Load(SchemaMode::kInferred, "twitter", 10);
  EXPECT_TRUE(RunPaperQuery("twitter", 1, q.fx.dataset.get(), {}).ok());
  EXPECT_FALSE(RunPaperQuery("twitter", 5, q.fx.dataset.get(), {}).ok());
  EXPECT_FALSE(RunPaperQuery("nope", 1, q.fx.dataset.get(), {}).ok());
}

}  // namespace
}  // namespace tc
