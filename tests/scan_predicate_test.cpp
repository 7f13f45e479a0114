#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "adm/printer.h"
#include "query/paper_queries.h"
#include "query/scan_predicate.h"
#include "query/vec/vec_operator.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace tc {
namespace {

using testutil::DatasetFixture;
using testutil::SmallOptions;

// ---------------------------------------------------------------------------
// Scalar comparison semantics (the contract both evaluation paths share).
// ---------------------------------------------------------------------------

TEST(AdmScalarSatisfies, UnknownCollapsesToFalseForEveryOp) {
  const AdmValue lit = AdmValue::BigInt(5);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_FALSE(AdmScalarSatisfies(AdmValue::Missing(), op, lit));
    EXPECT_FALSE(AdmScalarSatisfies(AdmValue::Null(), op, lit));
    EXPECT_FALSE(AdmScalarSatisfies(AdmValue::Object(), op, lit));
    EXPECT_FALSE(AdmScalarSatisfies(AdmValue::String("5"), op, lit));  // family
    EXPECT_FALSE(AdmScalarSatisfies(AdmValue::BigInt(5), op, AdmValue::Null()));
  }
}

TEST(AdmScalarSatisfies, NumericFamilies) {
  EXPECT_TRUE(AdmScalarSatisfies(AdmValue::Int(3), CompareOp::kLt,
                                 AdmValue::BigInt(4)));
  EXPECT_TRUE(AdmScalarSatisfies(AdmValue::TinyInt(-2), CompareOp::kGe,
                                 AdmValue::Double(-2.0)));
  EXPECT_TRUE(AdmScalarSatisfies(AdmValue::Double(2.5), CompareOp::kGt,
                                 AdmValue::SmallInt(2)));
  // Int-family pairs compare exactly as int64 (no double rounding).
  int64_t big = (1ll << 53) + 1;
  EXPECT_TRUE(AdmScalarSatisfies(AdmValue::BigInt(big), CompareOp::kNe,
                                 AdmValue::BigInt(big - 1)));
  EXPECT_TRUE(AdmScalarSatisfies(AdmValue::DateTime(100), CompareOp::kEq,
                                 AdmValue::BigInt(100)));
}

TEST(AdmScalarSatisfies, StringsAndBooleans) {
  EXPECT_TRUE(AdmScalarSatisfies(AdmValue::String("abc"), CompareOp::kLt,
                                 AdmValue::String("abd")));
  EXPECT_TRUE(AdmScalarSatisfies(AdmValue::String("JoBs"), CompareOp::kEq,
                                 AdmValue::String("jobs"), /*fold_case=*/true));
  EXPECT_FALSE(AdmScalarSatisfies(AdmValue::String("JoBs"), CompareOp::kEq,
                                  AdmValue::String("jobs")));
  EXPECT_TRUE(AdmScalarSatisfies(AdmValue::Boolean(true), CompareOp::kNe,
                                 AdmValue::Boolean(false)));
  // Booleans have no ordering.
  EXPECT_FALSE(AdmScalarSatisfies(AdmValue::Boolean(false), CompareOp::kLt,
                                  AdmValue::Boolean(true)));
}

// ---------------------------------------------------------------------------
// Packed kernels == decoded semantics, per tag and operator.
// ---------------------------------------------------------------------------

TEST(TermScalarSatisfies, InListIsAnyLiteralDisjunction) {
  PredicateTerm in = ScanPredicate::In(
      "x", {AdmValue::BigInt(3), AdmValue::BigInt(7), AdmValue::String("a")});
  EXPECT_TRUE(TermScalarSatisfies(AdmValue::BigInt(3), in));
  EXPECT_TRUE(TermScalarSatisfies(AdmValue::BigInt(7), in));
  EXPECT_TRUE(TermScalarSatisfies(AdmValue::String("a"), in));
  EXPECT_FALSE(TermScalarSatisfies(AdmValue::BigInt(4), in));
  // Cross-family comparisons never satisfy, as for plain terms.
  EXPECT_FALSE(TermScalarSatisfies(AdmValue::String("3"), in));
  EXPECT_FALSE(TermScalarSatisfies(AdmValue::Null(), in));

  // Non-kEq ops give "matches any bound" semantics.
  PredicateTerm lt_any = ScanPredicate::In(
      "x", {AdmValue::BigInt(5), AdmValue::BigInt(10)});
  lt_any.op = CompareOp::kLt;
  EXPECT_TRUE(TermScalarSatisfies(AdmValue::BigInt(7), lt_any));   // < 10
  EXPECT_FALSE(TermScalarSatisfies(AdmValue::BigInt(12), lt_any));

  // Case folding applies per listed literal.
  PredicateTerm folded = ScanPredicate::In(
      "x", {AdmValue::String("ABC")}, /*fold_case=*/true);
  EXPECT_TRUE(TermScalarSatisfies(AdmValue::String("abc"), folded));
  EXPECT_FALSE(TermScalarSatisfies(AdmValue::String("abd"), folded));
}

TEST(PackedKernels, LeafCompareMatchesDecodedCompare) {
  Rng rng(7);
  DatasetType type = DatasetType::OpenWithPk("id");
  for (int round = 0; round < 200; ++round) {
    AdmValue rec = AdmValue::Object();
    rec.AddField("id", AdmValue::BigInt(round));
    rec.AddField("v", testutil::RandomScalar(&rng));
    Buffer buf;
    ASSERT_TRUE(EncodeVectorRecord(rec, type, &buf).ok());
    VectorRecordView view(buf.data(), buf.size());
    VectorRecordWalker walker(view);
    VectorRecordWalker::Item it;
    bool done = false;
    while (true) {
      ASSERT_TRUE(walker.Next(&it, &done).ok());
      if (done) break;
      if (IsNested(it.tag) || it.tag == AdmTag::kEndNest) continue;
      AdmValue decoded = DecodeVectorScalarItem(it);
      for (int l = 0; l < 6; ++l) {
        AdmValue lit = testutil::RandomScalar(&rng);
        for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
          EXPECT_EQ(PackedLeafSatisfies(it, op, lit),
                    AdmScalarSatisfies(decoded, op, lit))
              << AdmTagName(it.tag) << " " << CompareOpName(op) << " "
              << AdmTagName(lit.tag());
        }
      }
    }
  }
}

TEST(PackedKernels, FixedRunKernelMatchesPerItemCompare) {
  Rng rng(11);
  DatasetType type = DatasetType::OpenWithPk("id");
  for (int round = 0; round < 100; ++round) {
    // An array of same-typed fixed-width scalars — the vectorized-run shape.
    AdmValue arr = AdmValue::Array();
    size_t n = 1 + rng.Uniform(40);
    int kind = static_cast<int>(rng.Uniform(3));
    for (size_t i = 0; i < n; ++i) {
      if (kind == 0) arr.Append(AdmValue::BigInt(rng.Range(-50, 50)));
      if (kind == 1) arr.Append(AdmValue::Double(rng.NextDouble() * 100 - 50));
      if (kind == 2) arr.Append(AdmValue::Int(static_cast<int32_t>(rng.Range(-50, 50))));
    }
    AdmValue rec = AdmValue::Object();
    rec.AddField("id", AdmValue::BigInt(round));
    rec.AddField("vals", arr);
    Buffer buf;
    ASSERT_TRUE(EncodeVectorRecord(rec, type, &buf).ok());
    VectorRecordView view(buf.data(), buf.size());

    PredicateTerm term = ScanPredicate::Term(
        "vals[*]", static_cast<CompareOp>(rng.Uniform(6)),
        rng.Bernoulli(0.5) ? AdmValue::BigInt(rng.Range(-50, 50))
                           : AdmValue::Double(rng.NextDouble() * 100 - 50));
    ScanPredicate pred;
    pred.terms.push_back(term);
    auto got = MatchVectorRecord(view, type, nullptr, pred);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), EvalPredicateTerm(arr, term));
  }
}

TEST(PackedKernels, WalkerFixedRunOnlyInsideCollections) {
  DatasetType type = DatasetType::OpenWithPk("id");
  AdmValue rec = AdmValue::Object();
  rec.AddField("id", AdmValue::BigInt(1));
  AdmValue arr = AdmValue::Array();
  for (int i = 0; i < 5; ++i) arr.Append(AdmValue::Double(i));
  rec.AddField("vals", arr);
  Buffer buf;
  ASSERT_TRUE(EncodeVectorRecord(rec, type, &buf).ok());
  VectorRecordView view(buf.data(), buf.size());
  VectorRecordWalker walker(view);
  VectorRecordWalker::Item it;
  bool done = false;
  AdmTag run_tag;
  const uint8_t* base = nullptr;
  ASSERT_TRUE(walker.Next(&it, &done).ok());  // root object
  EXPECT_EQ(walker.TryFixedRun(&run_tag, &base), 0u);  // object scope: refuse
  ASSERT_TRUE(walker.Next(&it, &done).ok());  // id (named field)
  ASSERT_TRUE(walker.Next(&it, &done).ok());  // vals (enters array scope)
  ASSERT_EQ(it.tag, AdmTag::kArray);
  ASSERT_EQ(walker.TryFixedRun(&run_tag, &base), 5u);
  EXPECT_EQ(run_tag, AdmTag::kDouble);
  ASSERT_NE(base, nullptr);
  EXPECT_TRUE(AnyPackedFixedSatisfies(run_tag, base, 5, 8, CompareOp::kEq,
                                      AdmValue::Double(3)));
  EXPECT_FALSE(AnyPackedFixedSatisfies(run_tag, base, 5, 8, CompareOp::kGt,
                                       AdmValue::Double(4)));
  ASSERT_TRUE(walker.Next(&it, &done).ok());  // end-nest: run consumed cleanly
  EXPECT_EQ(it.tag, AdmTag::kEndNest);
  ASSERT_TRUE(walker.Next(&it, &done).ok());
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// Randomized equivalence: the scan with its predicate lowered, and the scan
// with a batch filter above it, both equal an unlowered reference that walks
// each partition's read view through RecordAccessor::GetValues and
// EvalPredicateRow — across storage modes, union-typed/missing/null leaves,
// and multi-component trees with deletes and shape-changing upserts.
// ---------------------------------------------------------------------------

AdmValue ChurnRecord(Rng* rng, int64_t id) {
  AdmValue r = AdmValue::Object();
  r.AddField("id", AdmValue::BigInt(id));
  // "a": union-typed leaf (bigint | string | double), sometimes null/absent.
  switch (rng->Uniform(5)) {
    case 0: break;  // absent -> missing on access
    case 1: r.AddField("a", AdmValue::Null()); break;
    case 2: r.AddField("a", AdmValue::BigInt(rng->Range(0, 40))); break;
    case 3: r.AddField("a", AdmValue::String(rng->AlphaString(3))); break;
    default: r.AddField("a", AdmValue::Double(rng->NextDouble() * 40)); break;
  }
  if (rng->Bernoulli(0.8)) r.AddField("b", AdmValue::Double(rng->NextDouble() * 10));
  if (rng->Bernoulli(0.7)) r.AddField("s", AdmValue::String(rng->AlphaString(4)));
  if (rng->Bernoulli(0.6)) {
    AdmValue n = AdmValue::Object();
    n.AddField("x", rng->Bernoulli(0.8) ? AdmValue::BigInt(rng->Range(0, 20))
                                        : AdmValue::String("x"));
    if (rng->Bernoulli(0.5)) n.AddField("y", AdmValue::String(rng->AlphaString(2)));
    r.AddField("n", std::move(n));
  }
  if (rng->Bernoulli(0.7)) {
    AdmValue vals = AdmValue::Array();  // scalar run for the vectorized kernel
    size_t c = rng->Uniform(12);
    for (size_t i = 0; i < c; ++i) {
      vals.Append(AdmValue::Double(rng->NextDouble() * 20));
    }
    r.AddField("vals", std::move(vals));
  }
  if (rng->Bernoulli(0.6)) {
    AdmValue tags = AdmValue::Array();  // array of objects for existential [*]
    size_t c = rng->Uniform(4);
    for (size_t i = 0; i < c; ++i) {
      AdmValue t = AdmValue::Object();
      t.AddField("t", AdmValue::String(rng->AlphaString(2)));
      if (rng->Bernoulli(0.5)) t.AddField("k", AdmValue::BigInt(rng->Range(0, 9)));
      tags.Append(std::move(t));
    }
    r.AddField("tags", std::move(tags));
  }
  return r;
}

std::shared_ptr<const ScanPredicate> RandomPredicate(Rng* rng) {
  auto pick_path = [&]() -> std::string {
    switch (rng->Uniform(8)) {
      case 0: return "a";
      case 1: return "b";
      case 2: return "s";
      case 3: return "n.x";
      case 4: return "vals[*]";
      case 5: return "tags[*].t";
      case 6: return "n";          // nested value: never satisfies
      default: return "zzz";       // never present: missing
    }
  };
  auto pick_literal = [&]() -> AdmValue {
    switch (rng->Uniform(5)) {
      case 0: return AdmValue::BigInt(rng->Range(0, 40));
      case 1: return AdmValue::Double(rng->NextDouble() * 40);
      case 2: return AdmValue::String(rng->AlphaString(rng->Bernoulli(0.5) ? 3 : 4));
      case 3: return AdmValue::String(rng->AlphaString(2));
      default: return AdmValue::Null();  // incomparable literal
    }
  };
  std::vector<PredicateTerm> terms;
  size_t n = 1 + rng->Uniform(2);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.25)) {
      // IN-list term (any-literal disjunction): mixed-type lists included —
      // non-matching families must fall out identically on both paths.
      std::vector<AdmValue> literals;
      size_t k = 1 + rng->Uniform(4);
      for (size_t j = 0; j < k; ++j) literals.push_back(pick_literal());
      terms.push_back(
          ScanPredicate::In(pick_path(), std::move(literals), rng->Bernoulli(0.2)));
      continue;
    }
    terms.push_back(ScanPredicate::Term(pick_path(),
                                        static_cast<CompareOp>(rng->Uniform(6)),
                                        pick_literal(), rng->Bernoulli(0.2)));
  }
  return ScanPredicate::And(std::move(terms));
}

struct ScanResult {
  std::vector<std::string> rows;  // rendered, later sorted
  QueryStats stats;
};

// The sink-visible columns: the key, then the predicate's paths.
std::vector<FieldPath> ScanPaths(const ScanPredicate& pred) {
  std::vector<FieldPath> paths = {FieldPath::Parse("id")};
  for (const auto& p : pred.Paths()) paths.push_back(p);
  return paths;
}

std::string RenderRow(const std::vector<AdmValue>& cols) {
  std::string s;
  for (const auto& c : cols) {
    s += PrintAdm(c);
    s += "|";
  }
  return s;
}

// The batch's live rows, rendered like RenderRow.
std::vector<std::string> RenderRows(const ColumnBatch& batch) {
  std::vector<std::string> rows;
  std::vector<AdmValue> cols;
  batch.ForEachActive([&](size_t r) {
    cols.clear();
    for (const ColumnVector& c : batch.cols) cols.push_back(c.ValueAt(r));
    rows.push_back(RenderRow(cols));
  });
  return rows;
}

// Runs the scan over `fx` through MakeVecScan, with the predicate either
// pushed into the scan or tested by a batch filter above it.
ScanResult RunScan(DatasetFixture* fx, const QueryOptions& qo,
                   std::shared_ptr<const ScanPredicate> pred, bool push) {
  std::vector<FieldPath> paths = ScanPaths(*pred);
  ScanResult out;
  std::mutex mu;
  auto stats = RunPartitionedBatches(
      fx->dataset.get(), qo,
      [&](const PartitionContext& ctx) -> Result<std::unique_ptr<VecOperator>> {
        return MakeVecScan(ctx, ScanSpec{paths, false, pred}, push, /*batch_rows=*/7)
            .op;
      },
      [&](int) -> BatchSink {
        return [&](const ColumnBatch& batch) -> Status {
          std::vector<std::string> rendered = RenderRows(batch);
          std::lock_guard<std::mutex> lock(mu);
          out.rows.insert(out.rows.end(), rendered.begin(), rendered.end());
          return Status::OK();
        };
      });
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (stats.ok()) out.stats = stats.value();
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

// The unlowered reference: every surviving record of every partition's read
// view, extracted with RecordAccessor::GetValues and kept when
// EvalPredicateRow holds. Counts rows/bytes the way a scan does.
ScanResult ReferenceScan(DatasetFixture* fx, bool consolidate,
                         const ScanPredicate& pred) {
  std::vector<FieldPath> paths = ScanPaths(pred);
  ScanResult out;
  for (size_t i = 0; i < fx->dataset->partition_count(); ++i) {
    DatasetPartition* part = fx->dataset->partition(i);
    PartitionReadView view = part->AcquireReadView();
    RecordAccessor accessor(part->options().mode, &part->options().type,
                            part->SchemaSnapshot(), consolidate);
    LsmTree::Iterator it(view.primary);
    std::vector<AdmValue> cols;
    Status st = it.SeekToFirst();
    for (; st.ok() && it.Valid(); st = it.Next()) {
      std::string_view payload = it.payload();
      ++out.stats.rows_scanned;
      out.stats.bytes_scanned += payload.size();
      cols.clear();
      Status got = accessor.GetValues(payload, paths, &cols);
      EXPECT_TRUE(got.ok()) << got.ToString();
      if (got.ok() && EvalPredicateRow(cols, pred, 1)) {
        out.rows.push_back(RenderRow(cols));
      }
    }
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

TEST(LoweredPredicateEquivalence, RandomizedAcrossModesAndChurn) {
  struct Config {
    SchemaMode mode;
    bool consolidate;
  };
  const Config configs[] = {
      {SchemaMode::kInferred, true},
      {SchemaMode::kInferred, false},
      {SchemaMode::kSchemalessVB, true},
      {SchemaMode::kOpen, true},
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Config& cfg : configs) {
      Rng rng(seed * 7919);
      DatasetFixture fx;
      // Small memtable: the load below crosses several flushes, so scans merge
      // multiple on-disk components plus live memtable entries.
      ASSERT_TRUE(fx.Open(SmallOptions(cfg.mode, 16), 2).ok());
      int64_t next_id = 0;
      for (int i = 0; i < 120; ++i) {
        ASSERT_TRUE(fx.dataset->Insert(ChurnRecord(&rng, next_id++)).ok());
      }
      // Deletes leave anti-matter that must annihilate across components
      // before (not after) predicate evaluation.
      for (int i = 0; i < 25; ++i) {
        ASSERT_TRUE(fx.dataset->Delete(rng.Range(0, next_id - 1)).ok());
      }
      // Shape-changing upserts: union widening + anti-schema on the old shape.
      for (int i = 0; i < 25; ++i) {
        ASSERT_TRUE(
            fx.dataset->Upsert(ChurnRecord(&rng, rng.Range(0, next_id - 1))).ok());
      }
      for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(fx.dataset->Insert(ChurnRecord(&rng, next_id++)).ok());
      }
      ASSERT_TRUE(fx.dataset->FlushAll().ok());

      QueryOptions qo;
      qo.consolidate_field_access = cfg.consolidate;
      for (int p = 0; p < 12; ++p) {
        auto pred = RandomPredicate(&rng);
        ScanResult ref = ReferenceScan(&fx, cfg.consolidate, *pred);
        ScanResult lowered = RunScan(&fx, qo, pred, /*push=*/true);
        ScanResult filtered = RunScan(&fx, qo, pred, /*push=*/false);
        std::string where = std::string("mode=") + SchemaModeName(cfg.mode) +
                            " consolidate=" + std::to_string(cfg.consolidate) +
                            " seed=" + std::to_string(seed) +
                            " pred#" + std::to_string(p);
        EXPECT_EQ(lowered.rows, ref.rows) << where;
        EXPECT_EQ(filtered.rows, ref.rows) << where;
        // Skipped rows are scanned-but-filtered, never dropped from stats.
        for (const ScanResult* r : {&lowered, &filtered}) {
          EXPECT_EQ(r->stats.rows_scanned, ref.stats.rows_scanned) << where;
          EXPECT_EQ(r->stats.bytes_scanned, ref.stats.bytes_scanned) << where;
        }
        EXPECT_EQ(lowered.stats.rows_filtered_pre_assembly,
                  lowered.stats.rows_scanned - lowered.rows.size());
        EXPECT_EQ(filtered.stats.rows_filtered_pre_assembly, 0u);
      }
    }
  }
}

// The point-lookup source (the secondary-index query path) places its
// residual like the scan does: pushed into VecLookupOperator, or as a batch
// filter above it. Both must return the EvalPredicateRow reference's rows,
// over pks deleted since they were indexed and records still in the
// memtable.
TEST(LoweredPredicateEquivalence, VecLookupOperatorHonorsPredicate) {
  Rng rng(99);
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 32), 1).ok());
  std::vector<int64_t> pks;
  for (int64_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(fx.dataset->Insert(ChurnRecord(&rng, i)).ok());
    pks.push_back(i);
    if (i == 59) {
      ASSERT_TRUE(fx.dataset->FlushAll().ok());  // 60..79 stay in the memtable
    }
  }
  for (int64_t pk : {3, 17, 42, 65}) ASSERT_TRUE(fx.dataset->Delete(pk).ok());
  auto pred = ScanPredicate::And(
      {ScanPredicate::Term("a", CompareOp::kLe, AdmValue::BigInt(20))});
  std::vector<FieldPath> paths = {FieldPath::Parse("id"), FieldPath::Parse("a")};

  DatasetPartition* part = fx.dataset->partition(0);
  ASSERT_GT(part->primary()->AcquireView()->memtable().entry_count(), 0u);
  RecordAccessor accessor(SchemaMode::kInferred, &part->options().type,
                          part->SchemaSnapshot(), true);

  // Reference: every pk's live record, extracted and tested row by row.
  std::vector<std::string> reference;
  uint64_t live = 0;
  {
    PartitionReadView view = part->AcquireReadView();
    std::vector<AdmValue> cols;
    for (int64_t pk : pks) {
      auto got = view.primary->Get(BtreeKey{pk, 0});
      ASSERT_TRUE(got.ok());
      if (!got.value().has_value()) continue;
      ++live;
      const Buffer& rec = *got.value();
      cols.clear();
      ASSERT_TRUE(accessor
                      .GetValues(std::string_view(
                                     reinterpret_cast<const char*>(rec.data()),
                                     rec.size()),
                                 paths, &cols)
                      .ok());
      if (EvalPredicateRow(cols, *pred, 1)) reference.push_back(RenderRow(cols));
    }
  }
  std::sort(reference.begin(), reference.end());
  ASSERT_EQ(live, pks.size() - 4);

  auto run = [&](bool push, ScanCounters* counters) {
    PartitionContext ctx;
    ctx.partition = part;
    ctx.accessor = &accessor;
    ctx.counters = counters;
    VecScanPipeline lookup = MakeVecLookup(ctx, pks, ScanSpec{paths, false, pred},
                                           push, /*batch_rows=*/7);
    EXPECT_TRUE(lookup.op->Open().ok());
    std::vector<std::string> rows;
    ColumnBatch batch;
    while (true) {
      auto more = lookup.op->Next(&batch);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !more.value()) break;
      EXPECT_EQ(batch.cols.size(), paths.size());
      std::vector<std::string> got = RenderRows(batch);
      rows.insert(rows.end(), got.begin(), got.end());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  ScanCounters pushed_counters, filtered_counters;
  auto pushed = run(true, &pushed_counters);
  auto filtered = run(false, &filtered_counters);
  EXPECT_EQ(pushed, reference);
  EXPECT_EQ(filtered, reference);
  EXPECT_FALSE(reference.empty());
  EXPECT_LT(reference.size(), live);
  // Deleted pks are not reads; every live record is, filtered or not.
  EXPECT_EQ(pushed_counters.rows, live);
  EXPECT_EQ(filtered_counters.rows, live);
  EXPECT_EQ(pushed_counters.filtered_pre_assembly, live - reference.size());
  EXPECT_EQ(filtered_counters.filtered_pre_assembly, 0u);
}

// End-to-end: the deep-pushdown SensorsQ4 plan returns the same result as the
// row-level plan and reports the skipped rows in the new counter.
TEST(LoweredPredicateEquivalence, SensorsQ4DeepPushdownStats) {
  DatasetFixture fx;
  DatasetOptions o = SmallOptions(SchemaMode::kInferred, 256);
  ASSERT_TRUE(fx.Open(std::move(o), 2).ok());
  auto gen = MakeGenerator("sensors", 77);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
  }
  ASSERT_TRUE(fx.dataset->FlushAll().ok());

  QueryOptions deep;
  QueryOptions shallow;
  shallow.pushdown_scan_predicates = false;
  auto with = RunPaperQuery("sensors", 4, fx.dataset.get(), deep);
  auto without = RunPaperQuery("sensors", 4, fx.dataset.get(), shallow);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with.value().summary, without.value().summary);
  EXPECT_EQ(with.value().stats.rows_scanned, 120u);
  EXPECT_EQ(without.value().stats.rows_scanned, 120u);
  EXPECT_GT(with.value().stats.rows_filtered_pre_assembly, 0u);
  EXPECT_EQ(without.value().stats.rows_filtered_pre_assembly, 0u);
}

// ---------------------------------------------------------------------------
// Field-name matching edge cases of the lowered walk (query/path_walk.h).
// ---------------------------------------------------------------------------

// {"id": 5, "user": {"name": "Zoe"}, "tags": [{"t": "a"}]} compacted against
// its own fresh schema.
struct CompactedRecord {
  DatasetType type = DatasetType::OpenWithPk("id");
  Schema schema;
  Buffer bytes;

  explicit CompactedRecord(const AdmValue& rec) {
    Buffer raw;
    TC_CHECK(EncodeVectorRecord(rec, type, &raw).ok());
    TC_CHECK(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()),
                                         type, &schema, &bytes)
                 .ok());
  }
  VectorRecordView view() const { return VectorRecordView(bytes.data(), bytes.size()); }
};

AdmValue ZoeRecord() {
  AdmValue user = AdmValue::Object();
  user.AddField("name", AdmValue::String("Zoe"));
  AdmValue tag = AdmValue::Object();
  tag.AddField("t", AdmValue::String("a"));
  AdmValue tags = AdmValue::Array();
  tags.Append(std::move(tag));
  AdmValue rec = AdmValue::Object();
  rec.AddField("id", AdmValue::BigInt(5));
  rec.AddField("user", std::move(user));
  rec.AddField("tags", std::move(tags));
  return rec;
}

TEST(LoweredMatcher, NameAbsentFromDictionaryReadsMissing) {
  CompactedRecord c(ZoeRecord());
  ASSERT_TRUE(c.view().compacted());
  ASSERT_EQ(c.schema.dict().Lookup("nope"), FieldNameDictionary::kInvalidId);
  auto match = [&c](std::vector<PredicateTerm> terms) {
    return MatchVectorRecord(c.view(), c.type, &c.schema,
                             *ScanPredicate::And(std::move(terms)));
  };
  auto zoe = ScanPredicate::Term("user.name", CompareOp::kEq, AdmValue::String("Zoe"));
  auto yes = match({zoe});
  ASSERT_TRUE(yes.ok()) << yes.status().ToString();
  EXPECT_TRUE(yes.value());
  // Missing never satisfies, whatever the operator.
  for (const char* path : {"nope", "user.nope", "tags[*].nope"}) {
    auto got = match({ScanPredicate::Term(path, CompareOp::kNe, AdmValue::String("x"))});
    ASSERT_TRUE(got.ok()) << path << ": " << got.status().ToString();
    EXPECT_FALSE(got.value()) << path;
    got = match({zoe, ScanPredicate::Term(path, CompareOp::kNe, AdmValue::String("x"))});
    ASSERT_TRUE(got.ok()) << path << ": " << got.status().ToString();
    EXPECT_FALSE(got.value()) << path;
  }
}

TEST(LoweredMatcher, UnknownFieldNameIdIsCorruption) {
  CompactedRecord c(ZoeRecord());
  AdmValue id_only = AdmValue::Object();
  id_only.AddField("id", AdmValue::BigInt(1));
  CompactedRecord small(id_only);  // knows "id" only
  ASSERT_LT(small.schema.dict().size(), c.schema.dict().size());
  for (const char* path : {"user.name", "tags[*].t", "nope"}) {
    auto pred = ScanPredicate::And(
        {ScanPredicate::Term(path, CompareOp::kEq, AdmValue::String("Zoe"))});
    auto got = MatchVectorRecord(c.view(), c.type, &small.schema, *pred);
    EXPECT_TRUE(!got.ok() && got.status().IsCorruption()) << path;
    got = MatchVectorRecord(c.view(), c.type, nullptr, *pred);
    EXPECT_TRUE(!got.ok() && got.status().IsCorruption()) << path;
  }
}

// A matcher reused against one live schema whose dictionary grows between
// calls: a step name absent at the first call must still match once a later
// record brings it in.
TEST(LoweredMatcher, ReusedMatcherSeesNamesAddedToTheSchema) {
  DatasetType type = DatasetType::OpenWithPk("id");
  Schema schema;
  auto compact = [&](const AdmValue& rec, Buffer* out) {
    Buffer raw;
    ASSERT_TRUE(EncodeVectorRecord(rec, type, &raw).ok());
    ASSERT_TRUE(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()),
                                            type, &schema, out)
                    .ok());
  };
  AdmValue without_x = AdmValue::Object();
  without_x.AddField("id", AdmValue::BigInt(1));
  without_x.AddField("y", AdmValue::BigInt(1));
  AdmValue with_x = AdmValue::Object();
  with_x.AddField("id", AdmValue::BigInt(2));
  with_x.AddField("x", AdmValue::BigInt(1));
  Buffer a, b;
  compact(without_x, &a);
  auto pred = ScanPredicate::And(
      {ScanPredicate::Term("x", CompareOp::kEq, AdmValue::BigInt(1))});
  ScanPredicateMatcher matcher;
  auto got = matcher.MatchVector(VectorRecordView(a.data(), a.size()), type, &schema,
                                 *pred);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got.value());
  ASSERT_EQ(schema.dict().Lookup("x"), FieldNameDictionary::kInvalidId);
  compact(with_x, &b);  // assigns "x" its FieldNameID
  ASSERT_NE(schema.dict().Lookup("x"), FieldNameDictionary::kInvalidId);
  got = matcher.MatchVector(VectorRecordView(b.data(), b.size()), type, &schema, *pred);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value());
}

// Flushed (compacted) and memtable (inline-name) records in one partition:
// a matcher reused across every record — and switched between two live
// predicates — decides each record exactly as EvalPredicateRow over the
// decoded-record oracle (DecodeVectorRecord + NavigateAdmValue) does.
TEST(LoweredMatcher, MemtableAndFlushedRecordsMatchGetValuesVector) {
  Rng rng(4242);
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 1024), 1).ok());
  for (int64_t id = 0; id < 200; ++id) {
    ASSERT_TRUE(fx.dataset->Insert(ChurnRecord(&rng, id)).ok());
    if (id == 119) {
      ASSERT_TRUE(fx.dataset->FlushAll().ok());
    }
  }
  DatasetPartition* part = fx.dataset->partition(0);
  PartitionReadView view = part->AcquireReadView();
  Schema schema = part->SchemaSnapshot();
  const DatasetType& type = part->options().type;
  for (int round = 0; round < 16; ++round) {
    std::shared_ptr<const ScanPredicate> preds[2] = {RandomPredicate(&rng),
                                                     RandomPredicate(&rng)};
    ScanPredicateMatcher shared;
    size_t compacted = 0, inline_names = 0;
    LsmTree::Iterator it(view.primary);
    Status st = it.SeekToFirst();
    for (size_t row = 0; st.ok() && it.Valid(); st = it.Next(), ++row) {
      std::string_view payload = it.payload();
      VectorRecordView rec(reinterpret_cast<const uint8_t*>(payload.data()),
                           payload.size());
      ++(rec.compacted() ? compacted : inline_names);
      const ScanPredicate& pred = *preds[row % 2];
      std::vector<AdmValue> cols;
      ASSERT_TRUE(
          testutil::DecodedPathValues(rec, type, &schema, pred.Paths(), &cols).ok());
      auto got = shared.MatchVector(rec, type, &schema, pred);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), EvalPredicateRow(cols, pred))
          << "round " << round << " row " << row;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(compacted, 120u);
    EXPECT_EQ(inline_names, 80u);
  }
}

}  // namespace
}  // namespace tc
