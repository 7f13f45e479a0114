// Tests for the vectorized execution tier: ColumnVector storage adaptation
// (list columns included), paper queries on inferred data checked against the
// same records in ADM format (which never take the columnar fast path), the
// scan's columnar fast path checked against
// GetValuesVector on randomized records and path sets, and the partitioned
// hash join checked against a nested-loop reference under randomized
// partition counts, key skew, budget-forced multi-wave execution, and
// concurrent ingest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "query/executor.h"
#include "query/field_access.h"
#include "query/paper_queries.h"
#include "query/planner.h"
#include "query/vec/column_batch.h"
#include "query/vec/hash_join.h"
#include "query/vec/vec_operator.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace tc {
namespace {

using testutil::DatasetFixture;
using testutil::SmallOptions;

// ---------------------------------------------------------------------------
// ColumnVector storage adaptation
// ---------------------------------------------------------------------------

TEST(ColumnVector, IntFamilyStaysTyped) {
  ColumnVector c;
  c.AppendInt64(AdmTag::kBigInt, 42);
  c.AppendInt64(AdmTag::kSmallInt, -7);
  c.AppendInt64(AdmTag::kTinyInt, 3);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kInt64);
  EXPECT_EQ(c.Int64At(0), 42);
  EXPECT_EQ(c.Int64At(1), -7);
  // ValueAt reconstructs the exact original tag, not a widened one.
  EXPECT_EQ(c.ValueAt(1).tag(), AdmTag::kSmallInt);
  EXPECT_EQ(c.ValueAt(1).int_value(), -7);
  EXPECT_EQ(c.ValueAt(2).tag(), AdmTag::kTinyInt);
}

TEST(ColumnVector, ValuelessPrefixBackfillsIntoTypedStorage) {
  ColumnVector c;
  c.AppendMissing();
  c.AppendNull();
  c.AppendInt64(AdmTag::kBigInt, 9);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kInt64);
  EXPECT_FALSE(c.HasValueAt(0));
  EXPECT_FALSE(c.HasValueAt(1));
  EXPECT_TRUE(c.HasValueAt(2));
  EXPECT_EQ(c.ValueAt(0).tag(), AdmTag::kMissing);
  EXPECT_EQ(c.ValueAt(1).tag(), AdmTag::kNull);
  EXPECT_EQ(c.Int64At(2), 9);
}

TEST(ColumnVector, FamilyMismatchDemotesLosslessly) {
  ColumnVector c;
  c.AppendInt64(AdmTag::kBigInt, 1);
  c.AppendString(AdmTag::kString, "abc");
  c.AppendDouble(AdmTag::kDouble, 2.5);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kValue);
  EXPECT_EQ(c.ValueAt(0).tag(), AdmTag::kBigInt);
  EXPECT_EQ(c.ValueAt(0).int_value(), 1);
  EXPECT_EQ(c.ValueAt(1).string_value(), "abc");
  EXPECT_DOUBLE_EQ(c.ValueAt(2).double_value(), 2.5);
}

TEST(ColumnVector, StringArenaRoundTrip) {
  ColumnVector c;
  c.AppendString(AdmTag::kString, "hello");
  c.AppendMissing();
  c.AppendString(AdmTag::kString, "");
  c.AppendString(AdmTag::kString, "world!");
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kString);
  EXPECT_EQ(c.StringAt(0), "hello");
  EXPECT_EQ(c.StringAt(2), "");
  EXPECT_EQ(c.StringAt(3), "world!");
  EXPECT_EQ(c.ValueAt(3).string_value(), "world!");
}

TEST(ColumnVector, AppendValueNestedDemotes) {
  ColumnVector c;
  AdmValue obj = AdmValue::Object();
  obj.AddField("x", AdmValue::BigInt(5));
  c.AppendValue(obj);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kValue);
  AdmValue round_trip = c.ValueAt(0);
  const AdmValue* x = round_trip.FindField("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->int_value(), 5);
}

TEST(ColumnVector, AppendFromCopiesTypedRows) {
  ColumnVector src;
  src.AppendInt64(AdmTag::kBigInt, 10);
  src.AppendNull();
  src.AppendInt64(AdmTag::kInt, 20);
  ColumnVector dst;
  dst.AppendFrom(src, 2);
  dst.AppendFrom(src, 1);
  dst.AppendFrom(src, 0);
  EXPECT_EQ(dst.kind(), ColumnVector::Kind::kInt64);
  EXPECT_EQ(dst.Int64At(0), 20);
  EXPECT_EQ(dst.ValueAt(0).tag(), AdmTag::kInt);
  EXPECT_FALSE(dst.HasValueAt(1));
  EXPECT_EQ(dst.Int64At(2), 10);
}

AdmValue ArrayOf(std::vector<AdmValue> items) {
  AdmValue arr = AdmValue::Array();
  for (AdmValue& v : items) arr.Append(std::move(v));
  return arr;
}

TEST(ColumnVector, ListRowsKeepTypedItems) {
  ColumnVector c;
  c.AppendMissing();  // backfilled when the first list row arrives
  ColumnVector& items = c.BeginList();
  items.AppendDouble(AdmTag::kDouble, 1.5);
  items.AppendDouble(AdmTag::kFloat, 2.5);
  c.EndList();
  c.BeginList();
  c.EndList();  // an empty list
  c.AppendNull();
  ColumnVector& more = c.BeginList();
  more.AppendNull();
  more.AppendDouble(AdmTag::kDouble, -3);
  c.EndList();

  EXPECT_EQ(c.kind(), ColumnVector::Kind::kList);
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c.ListItems().kind(), ColumnVector::Kind::kDouble);
  EXPECT_EQ(c.ValueAt(0).tag(), AdmTag::kMissing);
  EXPECT_EQ(c.TagAt(1), AdmTag::kArray);
  EXPECT_EQ(c.ValueAt(1),
            ArrayOf({AdmValue::Double(1.5), AdmValue::Float(2.5f)}));
  EXPECT_EQ(c.ListBegin(2), c.ListEnd(2));
  EXPECT_EQ(c.ValueAt(2), AdmValue::Array());
  EXPECT_FALSE(c.HasValueAt(3));
  EXPECT_EQ(c.ValueAt(3).tag(), AdmTag::kNull);
  EXPECT_EQ(c.ValueAt(4), ArrayOf({AdmValue::Null(), AdmValue::Double(-3)}));
  // Items live in the child column, not in per-row AdmValues.
  EXPECT_EQ(c.ListItems().size(), 4u);
  EXPECT_GE(c.ByteSize(), c.ListItems().ByteSize());
}

TEST(ColumnVector, ListColumnDemotesLosslessly) {
  ColumnVector c;
  ColumnVector& items = c.BeginList();
  items.AppendString(AdmTag::kString, "a");
  items.AppendString(AdmTag::kString, "bc");
  c.EndList();
  EXPECT_EQ(c.ListItems().kind(), ColumnVector::Kind::kString);
  // A row the generic walk produced (here: an array of objects) demotes.
  AdmValue obj = AdmValue::Object();
  obj.AddField("x", AdmValue::BigInt(5));
  AdmValue nested = ArrayOf({obj});
  c.AppendValue(nested);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kValue);
  // A list row on a demoted column folds its items into one array value.
  ColumnVector& late = c.BeginList();
  late.AppendInt64(AdmTag::kBigInt, 7);
  late.AppendString(AdmTag::kString, "z");
  c.EndList();

  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.ValueAt(0),
            ArrayOf({AdmValue::String("a"), AdmValue::String("bc")}));
  EXPECT_EQ(c.ValueAt(1), nested);
  EXPECT_EQ(c.ValueAt(2), ArrayOf({AdmValue::BigInt(7), AdmValue::String("z")}));
  size_t want_bytes = 3 * sizeof(AdmTag);
  for (size_t i = 0; i < c.size(); ++i) want_bytes += EstimateAdmValueBytes(c.ValueAt(i));
  EXPECT_EQ(c.ByteSize(), want_bytes);
}

TEST(ColumnVector, AppendFromCopiesListRows) {
  ColumnVector src;
  ColumnVector& first = src.BeginList();
  first.AppendInt64(AdmTag::kBigInt, 1);
  first.AppendInt64(AdmTag::kInt, 2);
  src.EndList();
  src.AppendNull();
  src.BeginList().AppendInt64(AdmTag::kBigInt, 3);
  src.EndList();

  ColumnVector dst;
  dst.AppendFrom(src, 2);
  dst.AppendFrom(src, 1);
  dst.AppendFrom(src, 0);
  EXPECT_EQ(dst.kind(), ColumnVector::Kind::kList);
  EXPECT_EQ(dst.ListItems().kind(), ColumnVector::Kind::kInt64);
  EXPECT_EQ(dst.ValueAt(0), src.ValueAt(2));
  EXPECT_FALSE(dst.HasValueAt(1));
  EXPECT_EQ(dst.ValueAt(2), ArrayOf({AdmValue::BigInt(1), AdmValue::Int(2)}));

  // Into a column of another family: demotes, same values.
  ColumnVector mixed;
  mixed.AppendInt64(AdmTag::kBigInt, 9);
  mixed.AppendFrom(src, 0);
  EXPECT_EQ(mixed.kind(), ColumnVector::Kind::kValue);
  EXPECT_EQ(mixed.ValueAt(0), AdmValue::BigInt(9));
  EXPECT_EQ(mixed.ValueAt(1), src.ValueAt(0));
}

TEST(ColumnBatch, SelectionVectorDrivesActiveRows) {
  ColumnBatch b;
  b.Reset(1);
  for (int i = 0; i < 5; ++i) b.cols[0].AppendInt64(AdmTag::kBigInt, i);
  b.rows = 5;
  EXPECT_EQ(b.ActiveRows(), 5u);
  b.sel = {1, 3};
  b.sel_active = true;
  EXPECT_EQ(b.ActiveRows(), 2u);
  std::vector<int64_t> seen;
  b.ForEachActive([&](size_t r) { seen.push_back(b.cols[0].Int64At(r)); });
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3}));
}

// ---------------------------------------------------------------------------
// Paper-query equivalence against an independent reference: the same records
// loaded in kOpen (ADM) mode always go through the generic GetValues walk, so
// inferred-mode results (columnar fast path, list columns, predicates on
// packed vectors) must match them at every batch size (1 and 7 force many
// batch boundaries), and with consolidated field access off, whose Sensors
// plans fetch whole readings objects (and, without pushdown, filter above the
// scan before fetching them).
// ---------------------------------------------------------------------------

TEST(VecRowEquivalence, PaperQueriesAgree) {
  struct Case {
    const char* workload;
    int n;
  };
  struct Plan {
    bool consolidate;
    bool pushdown;
  };
  for (const Case& cs : {Case{"twitter", 60}, Case{"sensors", 24}, Case{"wos", 40}}) {
    auto load = [&cs](SchemaMode mode, DatasetFixture* fx) {
      auto gen = MakeGenerator(cs.workload, 42);
      ASSERT_TRUE(fx->Open(SmallOptions(mode, 128), 2).ok());
      for (int i = 0; i < cs.n; ++i) {
        ASSERT_TRUE(fx->dataset->Insert(gen->NextRecord()).ok());
      }
      ASSERT_TRUE(fx->dataset->FlushAll().ok());
    };
    DatasetFixture inferred, adm;
    load(SchemaMode::kInferred, &inferred);
    load(SchemaMode::kOpen, &adm);
    for (const Plan& plan : {Plan{true, true}, Plan{false, true}, Plan{false, false}}) {
      QueryOptions ref_opt;
      ref_opt.consolidate_field_access = plan.consolidate;
      ref_opt.pushdown_scan_predicates = plan.pushdown;
      for (int q = 1; q <= 4; ++q) {
        std::string where = std::string(cs.workload) + " q" + std::to_string(q) +
                            " consolidate=" + std::to_string(plan.consolidate) +
                            " pushdown=" + std::to_string(plan.pushdown);
        auto ref = RunPaperQuery(cs.workload, q, adm.dataset.get(), ref_opt);
        ASSERT_TRUE(ref.ok()) << where << ": " << ref.status().ToString();
        for (size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
          QueryOptions opt = ref_opt;
          opt.vec_batch_rows = batch_rows;
          auto got = RunPaperQuery(cs.workload, q, inferred.dataset.get(), opt);
          ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
          EXPECT_EQ(got.value().summary, ref.value().summary)
              << where << " batch_rows=" << batch_rows;
          EXPECT_EQ(got.value().result_hash, ref.value().result_hash)
              << where << " batch_rows=" << batch_rows;
          EXPECT_EQ(got.value().stats.rows_scanned, ref.value().stats.rows_scanned)
              << where << " batch_rows=" << batch_rows;
        }
      }
    }
  }
}

TEST(VecRowEquivalence, VectorizedRunsReportOperatorCounters) {
  DatasetFixture fx;
  auto gen = MakeGenerator("twitter", 7);
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 2).ok());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  auto res = TwitterQ2(fx.dataset.get(), QueryOptions{}).ValueOrDie();
  bool saw_scan = false, saw_sink = false;
  for (const QueryOpCounters& op : res.stats.operators) {
    if (op.name == "scan") {
      saw_scan = true;
      EXPECT_GT(op.batches, 0u);
      EXPECT_EQ(op.rows, 30u);
    } else if (op.name == "sink") {
      // The batch driver counts what reached the aggregate: every scanned
      // batch and row.
      saw_sink = true;
      EXPECT_GT(op.batches, 0u);
      EXPECT_EQ(op.rows, 30u);
    }
    EXPECT_NE(op.name, "bridge");
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_sink);
}

// IN-list predicates with and without pushdown: the lowered vector matcher
// and the batch filter must select the same rows.
TEST(VecRowEquivalence, InListPredicateAllPathsAgree) {
  DatasetFixture fx;
  auto gen = MakeGenerator("twitter", 11);
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 2).ok());
  std::vector<AdmValue> recs;
  for (int i = 0; i < 80; ++i) {
    AdmValue r = gen->NextRecord();
    RemapTweetUserId(&r, i % 11);  // small uid universe so the IN list hits
    recs.push_back(r);
    ASSERT_TRUE(fx.dataset->Insert(recs.back()).ok());
  }
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  auto pred = ScanPredicate::And({ScanPredicate::In(
      "user.id", {AdmValue::BigInt(2), AdmValue::BigInt(5), AdmValue::BigInt(7)})});
  size_t expected = 0;
  for (const AdmValue& r : recs) {
    const AdmValue* u = r.FindField("user");
    ASSERT_NE(u, nullptr);
    int64_t uid = u->FindField("id")->int_value();
    if (uid == 2 || uid == 5 || uid == 7) ++expected;
  }
  ASSERT_GT(expected, 0u);
  for (bool pushdown : {false, true}) {
    QueryOptions opt;
    opt.pushdown_scan_predicates = pushdown;
    opt.vec_batch_rows = 5;
    std::vector<uint64_t> counts(2, 0);
    auto sink = [&](int p) -> BatchSink {
      return [&counts, p](const ColumnBatch& batch) {
        counts[p] += batch.ActiveRows();
        return Status::OK();
      };
    };
    auto stats = RunPlannedScan(fx.dataset.get(), opt, {}, pred, sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(counts[0] + counts[1], expected) << "pushdown=" << pushdown;
  }
}

// ---------------------------------------------------------------------------
// The scan's columnar fast path vs GetValuesVector: every row's ValueAt must
// be exactly what the generic walk returns for the same record, for exact and
// [*] paths alike, on flushed (compacted) and memtable (uncompacted) records.
// ---------------------------------------------------------------------------

AdmValue MixedScalar(Rng* rng) {
  switch (rng->Uniform(6)) {
    case 0: return AdmValue::Null();
    case 1: return AdmValue::BigInt(rng->Range(-50, 50));
    case 2: return AdmValue::Int(static_cast<int32_t>(rng->Range(-5, 5)));
    case 3: return AdmValue::Double(rng->NextDouble());
    case 4: return AdmValue::String(rng->AlphaString(rng->Uniform(6)));
    default: return AdmValue::Boolean(rng->Bernoulli(0.5));
  }
}

AdmValue RandomCollection(Rng* rng) {
  return rng->Bernoulli(0.7) ? AdmValue::Array() : AdmValue::Multiset();
}

// `a`: absent, a scalar, an object, or a collection of scalars and
// {b: [{c}], x} objects; `t`: a collection of collections of scalars; `s`: a
// scalar, or now and then an object (the nested-terminal fallback).
AdmValue WildcardRecord(Rng* rng, int64_t id) {
  AdmValue rec = AdmValue::Object();
  rec.AddField("id", AdmValue::BigInt(id));
  switch (rng->Uniform(5)) {
    case 0:
      break;
    case 1:
      rec.AddField("a", MixedScalar(rng));
      break;
    case 2: {
      AdmValue o = AdmValue::Object();
      o.AddField("x", MixedScalar(rng));
      rec.AddField("a", std::move(o));
      break;
    }
    default: {
      AdmValue a = RandomCollection(rng);
      size_t n = rng->Uniform(6);
      for (size_t i = 0; i < n; ++i) {
        if (rng->Bernoulli(0.4)) {
          a.Append(MixedScalar(rng));
          continue;
        }
        AdmValue item = AdmValue::Object();
        if (rng->Bernoulli(0.8)) {
          AdmValue b = RandomCollection(rng);
          size_t m = rng->Uniform(4);
          for (size_t j = 0; j < m; ++j) {
            AdmValue bi = AdmValue::Object();
            if (rng->Bernoulli(0.85)) bi.AddField("c", MixedScalar(rng));
            b.Append(std::move(bi));
          }
          item.AddField("b", std::move(b));
        }
        if (rng->Bernoulli(0.7)) item.AddField("x", MixedScalar(rng));
        a.Append(std::move(item));
      }
      rec.AddField("a", std::move(a));
    }
  }
  if (rng->Bernoulli(0.8)) {
    AdmValue t = RandomCollection(rng);
    size_t n = rng->Uniform(4);
    for (size_t i = 0; i < n; ++i) {
      AdmValue inner = RandomCollection(rng);
      size_t m = rng->Uniform(4);
      for (size_t j = 0; j < m; ++j) inner.Append(MixedScalar(rng));
      t.Append(std::move(inner));
    }
    rec.AddField("t", std::move(t));
  }
  if (rng->Bernoulli(0.85)) {
    if (rng->Bernoulli(0.15)) {
      AdmValue o = AdmValue::Object();
      o.AddField("y", MixedScalar(rng));
      rec.AddField("s", std::move(o));
    } else {
      rec.AddField("s", MixedScalar(rng));
    }
  }
  return rec;
}

// Scans partition 0 with `paths` through VecScanOperator and checks every
// row against the decoded-record oracle (DecodeVectorRecord +
// NavigateAdmValue) on the same payload; returns the scan's counters.
VecOpCounters ScanAndCompare(DatasetPartition* p, const std::vector<FieldPath>& paths,
                             size_t batch_rows, const std::string& label) {
  RecordAccessor accessor(p->options().mode, &p->options().type, p->SchemaSnapshot(),
                          /*consolidate=*/true);
  ScanSpec spec;
  spec.paths = paths;
  spec.attach_record = true;
  ScanCounters sc;
  VecOpCounters oc;
  VecScanOperator scan(p, &accessor, spec, batch_rows, &sc, nullptr, &oc);
  EXPECT_TRUE(scan.Open().ok()) << label;
  ColumnBatch batch;
  std::vector<AdmValue> want;
  while (true) {
    auto more = scan.Next(&batch);
    EXPECT_TRUE(more.ok()) << label << ": " << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    EXPECT_LE(batch.rows, batch_rows);
    for (size_t r = 0; r < batch.rows; ++r) {
      const Buffer& rec = *batch.records[r];
      VectorRecordView view(rec.data(), rec.size());
      EXPECT_TRUE(testutil::DecodedPathValues(view, *accessor.type(), &accessor.schema(),
                                              paths, &want)
                      .ok());
      for (size_t c = 0; c < paths.size(); ++c) {
        EXPECT_EQ(batch.cols[c].ValueAt(r), want[c])
            << label << " path " << paths[c].ToString() << " batch_rows "
            << batch_rows << " row " << r;
      }
    }
  }
  EXPECT_EQ(oc.rows, sc.rows) << label;
  return oc;
}

TEST(VecFastPath, ExtractorMatchesGetValuesVector) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 1024), 1).ok());
  Rng rng(2024);
  for (int64_t id = 0; id < 400; ++id) {
    ASSERT_TRUE(fx.dataset->Insert(WildcardRecord(&rng, id)).ok());
    if (id == 259) {
      ASSERT_TRUE(fx.dataset->FlushAll().ok());  // the rest stay in the memtable
    }
  }
  DatasetPartition* p = fx.dataset->partition(0);

  // Paths the fast path extracts whole (no terminal is ever nested) ...
  const std::vector<std::string> clean = {
      "id", "s.y", "a[1].x", "no_such_field", "a[*].x", "a[*].b[*].c",
      "a[*].b[0].c", "t[*][*]", "a.x"};
  // ... and paths that end in a nested value for some records.
  const std::vector<std::string> nesting = {"a[*]", "t[*]", "a", "s", "a[*].b"};

  for (int trial = 0; trial < 24; ++trial) {
    std::vector<FieldPath> paths;
    std::string label = "trial " + std::to_string(trial) + " {";
    size_t n = 1 + rng.Uniform(5);
    bool clean_only = trial % 2 == 0;
    for (size_t i = 0; i < n; ++i) {
      const auto& pool = clean_only || rng.Bernoulli(0.6) ? clean : nesting;
      paths.push_back(FieldPath::Parse(pool[rng.Uniform(pool.size())]));
      label += paths.back().ToString() + " ";
    }
    label += "}";
    for (size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
      VecOpCounters oc = ScanAndCompare(p, paths, batch_rows, label);
      EXPECT_EQ(oc.rows, 400u) << label;
      if (clean_only) {
        EXPECT_EQ(oc.fallback_rows, 0u) << label;
      }
    }
  }
  // A path ending in an object for some records leaves the fast path for
  // exactly those records.
  VecOpCounters oc = ScanAndCompare(p, {FieldPath::Parse("s")}, 64, "s");
  EXPECT_GT(oc.fallback_rows, 0u);
  EXPECT_LT(oc.fallback_rows, oc.rows);
}

// Field-name matching edge cases of the extractor (query/path_walk.h), on
// a partition holding compacted (flushed) and inline-name (memtable) records.
TEST(VecFastPath, AbsentNamesReadMissingUnknownIdsAreCorruption) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 1024), 1).ok());
  Rng rng(77);
  for (int64_t id = 0; id < 120; ++id) {
    ASSERT_TRUE(fx.dataset->Insert(WildcardRecord(&rng, id)).ok());
    if (id == 69) {
      ASSERT_TRUE(fx.dataset->FlushAll().ok());  // the rest stay in the memtable
    }
  }
  DatasetPartition* p = fx.dataset->partition(0);
  Schema snapshot = p->SchemaSnapshot();
  for (const char* name : {"nope", "zz"}) {
    ASSERT_EQ(snapshot.dict().Lookup(name), FieldNameDictionary::kInvalidId);
  }

  // Names the dictionary never assigned read as missing (exact paths) or an
  // empty list (wildcard paths), on the fast path, in every row.
  std::vector<FieldPath> absent = {FieldPath::Parse("nope"), FieldPath::Parse("s.zz"),
                                   FieldPath::Parse("a[*].nope")};
  VecOpCounters oc = ScanAndCompare(p, absent, 16, "absent");
  EXPECT_EQ(oc.rows, 120u);
  EXPECT_EQ(oc.fallback_rows, 0u);

  // Every compacted record's FieldNameIDs are out of range for an empty
  // dictionary: the scan fails with Corruption instead of misreading.
  RecordAccessor blind(p->options().mode, &p->options().type, Schema(),
                       /*consolidate=*/true);
  ScanSpec spec;
  spec.paths = {FieldPath::Parse("s")};
  ScanCounters sc;
  VecScanOperator scan(p, &blind, spec, 16, &sc);
  ASSERT_TRUE(scan.Open().ok());
  ColumnBatch batch;
  Status st;
  while (st.ok()) {
    auto more = scan.Next(&batch);
    if (!more.ok()) st = more.status();
    if (more.ok() && !more.value()) break;
  }
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(VecFastPath, WildcardPaperQueriesReportNoFallbackRows) {
  struct Case {
    const char* workload;
    int n;
    std::vector<int> queries;
  };
  for (const Case& cs : {Case{"sensors", 24, {1, 2, 3, 4}}, Case{"twitter", 60, {3}}}) {
    DatasetFixture fx;
    auto gen = MakeGenerator(cs.workload, 42);
    ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 2).ok());
    for (int i = 0; i < cs.n; ++i) {
      ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
      if (i == cs.n / 2) {
        ASSERT_TRUE(fx.dataset->FlushAll().ok());
      }
    }
    for (int q : cs.queries) {
      auto res = RunPaperQuery(cs.workload, q, fx.dataset.get(), QueryOptions{});
      ASSERT_TRUE(res.ok()) << cs.workload << " q" << q;
      bool saw_scan = false;
      for (const QueryOpCounters& op : res.value().stats.operators) {
        if (op.name != "scan") continue;
        saw_scan = true;
        EXPECT_EQ(op.fallback_rows, 0u) << cs.workload << " q" << q;
      }
      EXPECT_TRUE(saw_scan) << cs.workload << " q" << q;
    }
  }
}

TEST(VecFastPath, ObjectTerminalFallbackIsVisibleInQueryStats) {
  DatasetFixture fx;
  auto gen = MakeGenerator("twitter", 5);
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 2).ok());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  auto stats = RunPartitionedBatches(
      fx.dataset.get(), QueryOptions{},
      [](const PartitionContext& ctx) -> Result<std::unique_ptr<VecOperator>> {
        ScanSpec spec;
        spec.paths = {FieldPath::Parse("user")};  // an object in every tweet
        return std::unique_ptr<VecOperator>(
            new VecScanOperator(ctx.partition, ctx.accessor, std::move(spec), 8,
                                ctx.counters, ctx.view, ctx.vec_counters->For("scan")));
      },
      [](int) -> BatchSink { return [](const ColumnBatch&) { return Status::OK(); }; });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The scan, then the batch driver's own "sink" cell (no fallback there).
  ASSERT_EQ(stats.value().operators.size(), 2u);
  EXPECT_EQ(stats.value().operators[0].name, "scan");
  EXPECT_EQ(stats.value().operators[0].fallback_rows, 30u);
  EXPECT_EQ(stats.value().operators[1].name, "sink");
  EXPECT_EQ(stats.value().operators[1].fallback_rows, 0u);
}

// ---------------------------------------------------------------------------
// Hash join vs a nested-loop reference
// ---------------------------------------------------------------------------

using JoinedRow = std::tuple<int64_t, std::string, int64_t, int64_t>;

struct JoinFixture {
  DatasetFixture users;
  DatasetFixture tweets;
  std::map<int64_t, std::string> country;            // uid -> country
  std::vector<std::pair<int64_t, int64_t>> probes;   // (tweet id, uid)
  std::vector<JoinedRow> reference;                  // sorted

  // skew: 0 = uniform over [0, n_users + 5) (some tweets find no author),
  //       1 = 80% of tweets hit the first 10% of users.
  void Load(int n_users, int n_tweets, size_t upar, size_t tpar, int skew,
            uint64_t seed) {
    ASSERT_TRUE(users.Open(SmallOptions(SchemaMode::kInferred, 128), upar).ok());
    auto ugen = MakeGenerator("twitter_users", seed);
    for (int i = 0; i < n_users; ++i) {
      AdmValue r = ugen->NextRecord();
      country[r.FindField("id")->int_value()] =
          r.FindField("country")->string_value();
      ASSERT_TRUE(users.dataset->Insert(r).ok());
    }
    ASSERT_TRUE(users.dataset->FlushAll().ok());

    ASSERT_TRUE(tweets.Open(SmallOptions(SchemaMode::kInferred, 128), tpar).ok());
    auto tgen = MakeGenerator("twitter", seed + 1);
    Rng rng(seed + 2);
    int hot = std::max(1, n_users / 10);
    for (int i = 0; i < n_tweets; ++i) {
      AdmValue t = tgen->NextRecord();
      int64_t uid = skew == 1 && rng.Bernoulli(0.8)
                        ? static_cast<int64_t>(rng.Uniform(hot))
                        : static_cast<int64_t>(rng.Uniform(n_users + 5));
      RemapTweetUserId(&t, uid);
      int64_t tid = t.FindField("id")->int_value();
      probes.emplace_back(tid, uid);
      ASSERT_TRUE(tweets.dataset->Insert(t).ok());
    }
    ASSERT_TRUE(tweets.dataset->FlushAll().ok());

    for (const auto& [tid, uid] : probes) {
      auto it = country.find(uid);
      if (it != country.end()) {
        reference.emplace_back(uid, it->second, uid, tid);
      }
    }
    std::sort(reference.begin(), reference.end());
  }

  // Runs the join and returns the sorted output rows
  // [build id, country, probe user.id, tweet id].
  Result<JoinStats> Run(JoinSpec spec, std::vector<JoinedRow>* out) {
    spec.build_key = "id";
    spec.probe_key = "user.id";
    spec.build_paths = {"country"};
    spec.probe_paths = {"id"};
    size_t tpar = tweets.dataset->partition_count();
    std::vector<std::vector<JoinedRow>> rows(tpar);
    auto factory = [&rows](int partition) {
      std::vector<JoinedRow>* mine = &rows[partition];
      return [mine](const ColumnBatch& b) {
        b.ForEachActive([&](size_t r) {
          mine->emplace_back(b.cols[0].ValueAt(r).int_value(),
                             std::string(b.cols[1].ValueAt(r).string_value()),
                             b.cols[2].ValueAt(r).int_value(),
                             b.cols[3].ValueAt(r).int_value());
        });
        return Status::OK();
      };
    };
    TC_ASSIGN_OR_RETURN(
        JoinStats stats,
        HashJoinDatasets(users.dataset.get(), tweets.dataset.get(), spec, factory));
    out->clear();
    for (auto& v : rows) out->insert(out->end(), v.begin(), v.end());
    std::sort(out->begin(), out->end());
    return stats;
  }
};

TEST(HashJoin, MatchesNestedLoopReferenceAcrossPartitionsAndSkew) {
  struct Config {
    size_t upar, tpar;
    int skew;
  };
  uint64_t seed = 900;
  for (const Config& cfg :
       {Config{1, 1, 0}, Config{2, 3, 0}, Config{3, 2, 1}, Config{2, 2, 1}}) {
    JoinFixture jf;
    jf.Load(40, 150, cfg.upar, cfg.tpar, cfg.skew, seed += 17);
    ASSERT_FALSE(jf.reference.empty());
    JoinSpec spec;
    spec.batch_rows = 9;  // force many output-batch flushes
    std::vector<JoinedRow> got;
    auto stats = jf.Run(spec, &got);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(got, jf.reference)
        << "upar=" << cfg.upar << " tpar=" << cfg.tpar << " skew=" << cfg.skew;
    EXPECT_EQ(stats.value().output_rows, jf.reference.size());
    EXPECT_EQ(stats.value().passes, 1u);
    EXPECT_EQ(stats.value().build_rows, 40u);
    EXPECT_EQ(stats.value().probe_rows, 150u);
  }
}

TEST(HashJoin, TinyBudgetForcesMultipleWavesSameResult) {
  JoinFixture jf;
  jf.Load(60, 200, /*upar=*/3, /*tpar=*/2, /*skew=*/0, 1234);
  JoinSpec spec;
  std::vector<JoinedRow> one_wave;
  ASSERT_TRUE(jf.Run(spec, &one_wave).ok());
  EXPECT_EQ(one_wave, jf.reference);

  // A 1-byte budget admits exactly the first (always-admitted) build partition
  // per wave: 3 build partitions -> 3 full probe passes.
  spec.build_budget_bytes = 1;
  std::vector<JoinedRow> waves;
  auto stats = jf.Run(spec, &waves);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().passes, 3u);
  EXPECT_EQ(stats.value().probe_rows, 3 * 200u);
  EXPECT_EQ(waves, jf.reference);
}

TEST(HashJoin, ProbePredicateFiltersBeforeJoin) {
  JoinFixture jf;
  jf.Load(30, 100, 2, 2, 0, 555);
  JoinSpec spec;
  spec.probe_predicate = ScanPredicate::And(
      {ScanPredicate::Term("user.id", CompareOp::kLt, AdmValue::BigInt(15))});
  std::vector<JoinedRow> got;
  ASSERT_TRUE(jf.Run(spec, &got).ok());
  std::vector<JoinedRow> expected;
  for (const JoinedRow& r : jf.reference) {
    if (std::get<2>(r) < 15) expected.push_back(r);
  }
  EXPECT_EQ(got, expected);
}

// Users self-joined on their string country: the nested-loop reference pairs
// many rows, so an OK status with zero rows would be a silent wrong answer —
// the join must refuse the key type instead. A key path missing from every
// record still joins nothing, with OK.
TEST(HashJoin, StringKeysRejectedMissingKeysNeverMatch) {
  JoinFixture jf;
  jf.Load(30, 40, 2, 2, 0, 4242);
  size_t reference = 0;
  for (const auto& [u1, c1] : jf.country) {
    for (const auto& [u2, c2] : jf.country) reference += c1 == c2 ? 1 : 0;
  }
  ASSERT_GT(reference, 0u);
  BatchSinkFactory sink = [](int) -> BatchSink {
    return [](const ColumnBatch&) { return Status::OK(); };
  };
  JoinSpec spec;
  spec.build_key = "country";
  spec.probe_key = "country";
  auto got = HashJoinDatasets(jf.users.dataset.get(), jf.users.dataset.get(), spec,
                              sink);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotSupported) << got.status().ToString();

  spec.build_key = "id";
  spec.probe_key = "no_such_field";
  auto none = HashJoinDatasets(jf.users.dataset.get(), jf.tweets.dataset.get(), spec,
                               sink);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none.value().output_rows, 0u);
  EXPECT_EQ(none.value().probe_rows, 40u);
}

// Joins repeatedly while tweets ingest concurrently: each join pins read views
// at start, so it must see a consistent prefix (every matched tweet existed,
// output never shrinks below the pre-ingest reference). Primarily a TSan
// target.
TEST(HashJoin, StormUnderConcurrentIngest) {
  JoinFixture jf;
  jf.Load(30, 80, 2, 2, 0, 321);
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    auto tgen = MakeGenerator("twitter", 999);
    // Skip ids already used by the fixture.
    for (int i = 0; i < 80; ++i) tgen->NextRecord();
    Rng rng(1000);
    while (!stop.load(std::memory_order_relaxed)) {
      AdmValue t = tgen->NextRecord();
      RemapTweetUserId(&t, static_cast<int64_t>(rng.Uniform(30)));
      ASSERT_TRUE(jf.tweets.dataset->Insert(t).ok());
    }
  });
  size_t baseline = jf.reference.size();
  std::vector<std::thread> joiners;
  std::atomic<int> failures{0};
  for (int t = 0; t < 2; ++t) {
    joiners.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        JoinSpec spec;
        spec.batch_rows = 16;
        std::vector<std::vector<JoinedRow>> rows(2);
        auto factory = [&rows](int partition) {
          std::vector<JoinedRow>* mine = &rows[partition];
          return [mine](const ColumnBatch& b) {
            b.ForEachActive([&](size_t r) {
              mine->emplace_back(b.cols[0].ValueAt(r).int_value(), "",
                                 b.cols[2].ValueAt(r).int_value(),
                                 b.cols[3].ValueAt(r).int_value());
            });
            return Status::OK();
          };
        };
        JoinSpec s = spec;
        s.build_key = "id";
        s.probe_key = "user.id";
        s.build_paths = {"country"};
        s.probe_paths = {"id"};
        auto stats = HashJoinDatasets(jf.users.dataset.get(),
                                      jf.tweets.dataset.get(), s, factory);
        if (!stats.ok() ||
            stats.value().output_rows < baseline) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : joiners) th.join();
  stop.store(true);
  feeder.join();
  EXPECT_EQ(failures.load(), 0);
}

// The join-backed paper query: group tweets per author country and agree with
// a reference computed from the generators' own output.
TEST(HashJoin, TwitterJoinTopCountriesMatchesReference) {
  JoinFixture jf;
  jf.Load(50, 200, 2, 2, /*skew=*/1, 777);
  std::map<std::string, uint64_t> ref_counts;
  for (const JoinedRow& r : jf.reference) ++ref_counts[std::get<1>(r)];
  std::vector<std::pair<uint64_t, std::string>> order;
  for (const auto& [c, n] : ref_counts) order.emplace_back(n, c);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  auto res = TwitterJoinTopCountries(jf.users.dataset.get(),
                                     jf.tweets.dataset.get(), QueryOptions{});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().stats.plan, "hash-join");
  // The summary renders "country=count" entries (%.4f counts); the top
  // reference entry must appear with its exact count.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "=%.4f", static_cast<double>(order[0].first));
  std::string want = order[0].second + buf;
  EXPECT_NE(res.value().summary.find(want), std::string::npos)
      << "summary: " << res.value().summary << " want " << want;
}

}  // namespace
}  // namespace tc
