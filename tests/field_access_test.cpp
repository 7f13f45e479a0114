#include <gtest/gtest.h>

#include "adm/parser.h"
#include "adm/printer.h"
#include "query/field_access.h"
#include "query/scan_predicate.h"
#include "tests/fuzz/fuzz_targets.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace tc {
namespace {

AdmValue R(const std::string& text) { return ParseAdm(text).ValueOrDie(); }
DatasetType PkType() { return DatasetType::OpenWithPk("id"); }

TEST(FieldPath, ParseAndPrint) {
  FieldPath p = FieldPath::Parse("entities.hashtags[*].text");
  ASSERT_EQ(p.steps.size(), 4u);
  EXPECT_EQ(p.steps[0].kind, PathStep::kField);
  EXPECT_EQ(p.steps[0].name, "entities");
  EXPECT_EQ(p.steps[2].kind, PathStep::kWildcard);
  EXPECT_EQ(p.steps[3].name, "text");
  EXPECT_TRUE(p.HasWildcard());
  EXPECT_EQ(p.ToString(), "entities.hashtags[*].text");

  FieldPath q = FieldPath::Parse("a.b[2].c");
  EXPECT_EQ(q.steps[2].kind, PathStep::kIndex);
  EXPECT_EQ(q.steps[2].index, 2u);
  EXPECT_FALSE(q.HasWildcard());
  EXPECT_EQ(q.ToString(), "a.b[2].c");
}

TEST(NavigateAdmValue, AllStepKinds) {
  AdmValue v = R(R"({"a": {"b": [{"c": 1}, {"c": 2}, {"d": 3}]}})");
  EXPECT_EQ(NavigateAdmValue(v, FieldPath::Parse("a.b[0].c").steps).int_value(), 1);
  EXPECT_EQ(NavigateAdmValue(v, FieldPath::Parse("a.b[9]").steps).tag(),
            AdmTag::kMissing);
  AdmValue wc = NavigateAdmValue(v, FieldPath::Parse("a.b[*].c").steps);
  ASSERT_EQ(wc.tag(), AdmTag::kArray);
  ASSERT_EQ(wc.size(), 2u);  // third item has no "c"
  EXPECT_EQ(wc.item(1).int_value(), 2);
  // A wildcard path always yields an array, [] when [*] has nothing to range
  // over, and the matches of nested [*] steps land in one flat list.
  EXPECT_EQ(PrintAdm(NavigateAdmValue(v, FieldPath::Parse("a[*].c").steps)), "[]");
  EXPECT_EQ(PrintAdm(NavigateAdmValue(v, FieldPath::Parse("x.y[*]").steps)), "[]");
  AdmValue nested = R(R"({"t": [[1, 2], 7, [], [3]],
                          "u": [{"v": [{"w": 1}, {"w": 2}]}, {"v": [{"w": 3}]}]})");
  EXPECT_EQ(PrintAdm(NavigateAdmValue(nested, FieldPath::Parse("t[*][*]").steps)),
            "[1, 2, 3]");
  EXPECT_EQ(PrintAdm(NavigateAdmValue(nested, FieldPath::Parse("t[*]").steps)),
            "[[1, 2], 7, [], [3]]");
  EXPECT_EQ(PrintAdm(NavigateAdmValue(nested, FieldPath::Parse("u[*].v[*].w").steps)),
            "[1, 2, 3]");
  EXPECT_EQ(PrintAdm(NavigateAdmValue(nested, FieldPath::Parse("u[*].v[1].w").steps)),
            "[2]");
}

struct Encoded {
  Buffer vb;
  Buffer adm;
  DatasetType type = PkType();

  explicit Encoded(const AdmValue& rec) {
    TC_CHECK(EncodeVectorRecord(rec, type, &vb).ok());
    TC_CHECK(EncodeAdmRecord(rec, type, &adm).ok());
  }

  std::vector<AdmValue> Vb(const std::vector<std::string>& paths,
                           bool consolidate = true) {
    std::vector<FieldPath> fps;
    for (const auto& p : paths) fps.push_back(FieldPath::Parse(p));
    std::vector<AdmValue> out;
    VectorRecordView view(vb.data(), vb.size());
    Status st = consolidate
                    ? GetValuesVector(view, type, nullptr, fps, &out)
                    : GetValuesVectorUnconsolidated(view, type, nullptr, fps, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  }

  std::vector<AdmValue> Adm(const std::vector<std::string>& paths) {
    std::vector<FieldPath> fps;
    for (const auto& p : paths) fps.push_back(FieldPath::Parse(p));
    std::vector<AdmValue> out;
    EXPECT_TRUE(GetValuesAdm(adm.data(), adm.size(), type, fps, &out).ok());
    return out;
  }
};

TEST(GetValues, ScalarsAndNested) {
  Encoded e(R(R"({"id": 1, "user": {"name": "Ann", "age": 26},
                 "tags": ["a", "b", "c"], "geo": point(1.0, 2.0)})"));
  for (bool vb : {true, false}) {
    auto out = vb ? e.Vb({"user.name", "user.age", "tags[1]", "geo", "nope.x"})
                  : e.Adm({"user.name", "user.age", "tags[1]", "geo", "nope.x"});
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0].string_value(), "Ann");
    EXPECT_EQ(out[1].int_value(), 26);
    EXPECT_EQ(out[2].string_value(), "b");
    EXPECT_EQ(out[3].tag(), AdmTag::kPoint);
    EXPECT_EQ(out[4].tag(), AdmTag::kMissing);
  }
}

TEST(GetValues, WildcardThroughArrayOfObjects) {
  Encoded e(R(R"({"id": 2, "deps": [{"n": "Bob", "a": 6}, {"n": "Carol", "a": 10},
                                    "skipme", {"a": 99}]})"));
  for (bool vb : {true, false}) {
    auto out = vb ? e.Vb({"deps[*].n"}) : e.Adm({"deps[*].n"});
    ASSERT_EQ(out[0].tag(), AdmTag::kArray);
    ASSERT_EQ(out[0].size(), 2u);  // string item and n-less object don't match
    EXPECT_EQ(out[0].item(0).string_value(), "Bob");
    EXPECT_EQ(out[0].item(1).string_value(), "Carol");
  }
}

TEST(GetValues, WildcardOverNonArrayYieldsEmpty) {
  // The WoS union case: address_name may be a single object.
  Encoded e(R(R"({"id": 3, "addr": {"spec": {"country": "USA"}}})"));
  for (bool vb : {true, false}) {
    auto out = vb ? e.Vb({"addr[*].spec.country"}) : e.Adm({"addr[*].spec.country"});
    ASSERT_EQ(out[0].tag(), AdmTag::kArray);
    EXPECT_EQ(out[0].size(), 0u);
  }
}

TEST(GetValues, SubtreeMaterialization) {
  Encoded e(R(R"({"id": 4, "readings": [{"t": 1.5, "ts": 10}, {"t": 2.5, "ts": 20}]})"));
  for (bool vb : {true, false}) {
    auto out = vb ? e.Vb({"readings"}) : e.Adm({"readings"});
    ASSERT_EQ(out[0].tag(), AdmTag::kArray);
    ASSERT_EQ(out[0].size(), 2u);
    EXPECT_EQ(PrintAdm(out[0].item(0)), PrintAdm(R(R"({"t": 1.5, "ts": 10})")));
  }
}

TEST(GetValues, ConsolidatedEqualsUnconsolidated) {
  Rng rng(271828);
  DatasetType type = PkType();
  for (int i = 0; i < 100; ++i) {
    AdmValue rec = testutil::RandomRecord(&rng, i, 4);
    Encoded e(rec);
    std::vector<std::string> paths = {"f0", "f1.f0_abc", "f2[*].f1", "f3[0]",
                                      "f4.f2"};
    auto consolidated = e.Vb(paths, true);
    auto unconsolidated = e.Vb(paths, false);
    ASSERT_EQ(consolidated.size(), unconsolidated.size());
    for (size_t k = 0; k < consolidated.size(); ++k) {
      EXPECT_EQ(PrintAdm(consolidated[k]), PrintAdm(unconsolidated[k])) << i;
    }
  }
}

TEST(GetValues, VectorMatchesAdmOracle) {
  // Byte-level accessors agree with navigation over the decoded tree.
  Rng rng(314159);
  DatasetType type = PkType();
  std::vector<std::string> paths = {"f0",      "f1[*].f0_xyz", "f2.f1.f0_q",
                                    "f3[1]",   "f5[*]",        "f6.f3[*].f2"};
  std::vector<FieldPath> fps;
  for (const auto& p : paths) fps.push_back(FieldPath::Parse(p));
  for (int i = 0; i < 120; ++i) {
    AdmValue rec = testutil::RandomRecord(&rng, i, 5);
    Encoded e(rec);
    auto vb = e.Vb(paths);
    auto adm = e.Adm(paths);
    for (size_t k = 0; k < paths.size(); ++k) {
      AdmValue oracle = NavigateAdmValue(rec, fps[k].steps);
      EXPECT_EQ(PrintAdm(vb[k]), PrintAdm(oracle)) << i << " path " << paths[k];
      EXPECT_EQ(PrintAdm(adm[k]), PrintAdm(oracle)) << i << " path " << paths[k];
    }
  }
}

TEST(GetValues, CompactedRecordsResolveNamesViaSchema) {
  DatasetType type = PkType();
  AdmValue rec = R(R"({"id": 5, "user": {"name": "Zoe"}, "n": 7})");
  Buffer raw;
  ASSERT_TRUE(EncodeVectorRecord(rec, type, &raw).ok());
  Schema schema;
  Buffer compacted;
  ASSERT_TRUE(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()),
                                          type, &schema, &compacted)
                  .ok());
  std::vector<AdmValue> out;
  ASSERT_TRUE(GetValuesVector(VectorRecordView(compacted.data(), compacted.size()),
                              type, &schema,
                              {FieldPath::Parse("user.name"), FieldPath::Parse("n")},
                              &out)
                  .ok());
  EXPECT_EQ(out[0].string_value(), "Zoe");
  EXPECT_EQ(out[1].int_value(), 7);
}

TEST(GetValues, DeclaredFieldAccessInVectorRecords) {
  DatasetType type;
  type.primary_key_field = "id";
  type.root = TypeDescriptor::Object(true);
  type.root->AddField("id", TypeDescriptor::Scalar(AdmTag::kBigInt));
  type.root->AddField("title", TypeDescriptor::Scalar(AdmTag::kString));
  AdmValue rec = R(R"({"id": 6, "title": "declared!", "open_f": 1})");
  Buffer vb;
  ASSERT_TRUE(EncodeVectorRecord(rec, type, &vb).ok());
  std::vector<AdmValue> out;
  ASSERT_TRUE(GetValuesVector(VectorRecordView(vb.data(), vb.size()), type, nullptr,
                              {FieldPath::Parse("title"), FieldPath::Parse("id")},
                              &out)
                  .ok());
  EXPECT_EQ(out[0].string_value(), "declared!");
  EXPECT_EQ(out[1].int_value(), 6);
}

// ---------------------------------------------------------------------------
// Field-name matching edge cases (query/path_walk.h): compacted fields
// match by FieldNameID, declared and inline fields by name.
// ---------------------------------------------------------------------------

// One record compacted against its own fresh schema.
struct CompactedRecord {
  DatasetType type = PkType();
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

std::vector<FieldPath> Paths(const std::vector<std::string>& texts) {
  std::vector<FieldPath> out;
  for (const auto& t : texts) out.push_back(FieldPath::Parse(t));
  return out;
}

TEST(GetValues, NameAbsentFromDictionaryReadsMissing) {
  CompactedRecord c(R(R"({"id": 5, "user": {"name": "Zoe"}, "tags": [{"t": "a"}]})"));
  ASSERT_TRUE(c.view().compacted());
  ASSERT_EQ(c.schema.dict().Lookup("nope"), FieldNameDictionary::kInvalidId);
  std::vector<AdmValue> out;
  ASSERT_TRUE(GetValuesVector(c.view(), c.type, &c.schema,
                              Paths({"nope", "user.nope", "tags[*].nope", "user.name",
                                     "tags[*].t"}),
                              &out)
                  .ok());
  EXPECT_EQ(out[0].tag(), AdmTag::kMissing);
  EXPECT_EQ(out[1].tag(), AdmTag::kMissing);
  EXPECT_EQ(PrintAdm(out[2]), PrintAdm(AdmValue::Array()));
  EXPECT_EQ(out[3].string_value(), "Zoe");
  EXPECT_EQ(PrintAdm(out[4]), PrintAdm(R(R"(["a"])")));
}

TEST(GetValues, UnknownFieldNameIdIsCorruption) {
  CompactedRecord c(R(R"({"id": 5, "user": {"name": "Zoe"}, "tags": [{"t": "a"}]})"));
  // A dictionary that knows "id" only: the record's later FieldNameIDs are
  // out of its range.
  CompactedRecord small(R(R"({"id": 1})"));
  ASSERT_LT(small.schema.dict().size(), c.schema.dict().size());
  for (const char* path : {"user.name", "tags[*].t", "nope"}) {
    std::vector<AdmValue> out;
    Status st = GetValuesVector(c.view(), c.type, &small.schema, Paths({path}), &out);
    EXPECT_TRUE(st.IsCorruption()) << path << ": " << st.ToString();
    st = GetValuesVector(c.view(), c.type, nullptr, Paths({path}), &out);
    EXPECT_TRUE(st.IsCorruption()) << path << ": " << st.ToString();
  }
}

TEST(GetValues, DeclaredIndexWithoutDescriptorIsCorruption) {
  DatasetType declared;
  declared.primary_key_field = "id";
  declared.root = TypeDescriptor::Object(true);
  declared.root->AddField("id", TypeDescriptor::Scalar(AdmTag::kBigInt));
  declared.root->AddField("title", TypeDescriptor::Scalar(AdmTag::kString));
  Buffer vb;
  ASSERT_TRUE(EncodeVectorRecord(R(R"({"id": 6, "title": "t"})"), declared, &vb).ok());
  // Walked against a type that declares nothing.
  std::vector<AdmValue> out;
  Status st = GetValuesVector(VectorRecordView(vb.data(), vb.size()), PkType(), nullptr,
                              Paths({"title"}), &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// Records that break the unique-field-name contract read like the decoded
// record's FindField: a field step matches the first field of its name only,
// so an exact path keeps its first match and later paths still resolve.
TEST(GetValues, DuplicateFieldNameFirstOccurrenceWins) {
  const std::vector<std::string> paths = {"a", "b", "s.x", "s.y", "arr[*].x"};
  Encoded e(R(R"({"id": 1, "a": 1, "a": 2, "b": 3,
                 "s": {"x": 4}, "s": {"x": 5, "y": 6},
                 "arr": [{"x": 7, "x": 8}, {"x": 9}]})"));
  AdmValue decoded;
  ASSERT_TRUE(
      DecodeVectorRecord(VectorRecordView(e.vb.data(), e.vb.size()), e.type, nullptr,
                         &decoded)
          .ok());
  for (bool consolidate : {true, false}) {
    SCOPED_TRACE(consolidate ? "consolidated" : "unconsolidated");
    std::vector<AdmValue> out = e.Vb(paths, consolidate);
    ASSERT_EQ(out.size(), paths.size());
    EXPECT_EQ(PrintAdm(out[0]), "1");
    EXPECT_EQ(PrintAdm(out[1]), "3");
    EXPECT_EQ(PrintAdm(out[2]), "4");
    EXPECT_EQ(out[3].tag(), AdmTag::kMissing);  // the first "s" has no "y"
    EXPECT_EQ(PrintAdm(out[4]), "[7, 9]");
    for (size_t k = 0; k < paths.size(); ++k) {
      EXPECT_EQ(PrintAdm(out[k]),
                PrintAdm(NavigateAdmValue(decoded, FieldPath::Parse(paths[k]).steps)))
          << paths[k];
    }
  }
}

// Flushed records are compacted (FieldNameIDs), memtable records are not
// (inline names): GetValuesVector must agree with navigation over the
// decoded record on both, under the partition's schema snapshot.
TEST(GetValues, MemtableAndFlushedRecordsMatchDecodedOracle) {
  testutil::DatasetFixture fx;
  ASSERT_TRUE(fx.Open(testutil::SmallOptions(SchemaMode::kInferred, 1024), 1).ok());
  Rng rng(1618);
  for (int64_t id = 0; id < 160; ++id) {
    ASSERT_TRUE(fx.dataset->Insert(testutil::RandomRecord(&rng, id, 4)).ok());
    if (id == 99) {
      ASSERT_TRUE(fx.dataset->FlushAll().ok());
    }
  }
  DatasetPartition* p = fx.dataset->partition(0);
  PartitionReadView view = p->AcquireReadView();
  Schema schema = p->SchemaSnapshot();
  const DatasetType& type = p->options().type;
  std::vector<FieldPath> paths = Paths({"f0", "f1.f0_abc", "f2[*].f1", "f3[0]",
                                        "f4.f2", "f1[*]", "absent", "f0.absent"});
  size_t compacted = 0, inline_names = 0;
  LsmTree::Iterator it(view.primary);
  Status st = it.SeekToFirst();
  for (; st.ok() && it.Valid(); st = it.Next()) {
    std::string_view payload = it.payload();
    VectorRecordView rec(reinterpret_cast<const uint8_t*>(payload.data()),
                         payload.size());
    ++(rec.compacted() ? compacted : inline_names);
    std::vector<AdmValue> oracle;
    ASSERT_TRUE(testutil::DecodedPathValues(rec, type, &schema, paths, &oracle).ok());
    std::vector<AdmValue> got;
    ASSERT_TRUE(GetValuesVector(rec, type, &schema, paths, &got).ok());
    for (size_t k = 0; k < paths.size(); ++k) {
      EXPECT_EQ(PrintAdm(got[k]), PrintAdm(oracle[k])) << paths[k].ToString();
    }
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(compacted, 100u);
  EXPECT_EQ(inline_names, 60u);
}

// What one partition's primary answers, in key order: every path's GetValues
// and every predicate's match per record, each line naming its row and
// path or predicate. The predicate result is ScanPredicateMatcher::Matches,
// the lowered walk for consolidated vector records; BSON, which takes no
// scan predicate, filters on its extracted values (EvalPredicateRow).
std::vector<std::string> PartitionAnswers(DatasetPartition* p, bool consolidate,
                                          const std::vector<FieldPath>& paths) {
  PartitionReadView view = p->AcquireReadView();
  RecordAccessor accessor(p->options().mode, &p->options().type, p->SchemaSnapshot(),
                          consolidate);
  ScanPredicateMatcher matcher;
  std::vector<std::string> out;
  LsmTree::Iterator it(view.primary);
  Status st = it.SeekToFirst();
  for (size_t row = 0; st.ok() && it.Valid(); st = it.Next(), ++row) {
    const std::string where = "row " + std::to_string(row) + " ";
    std::vector<AdmValue> values;
    EXPECT_TRUE(accessor.GetValues(it.payload(), paths, &values).ok());
    for (size_t k = 0; k < values.size(); ++k) {
      out.push_back(where + paths[k].ToString() + " = " + PrintAdm(values[k]));
    }
    const auto& preds = PathWalkPredicates();
    for (size_t i = 0; i < preds.size(); ++i) {
      const std::vector<FieldPath> pred_paths = preds[i]->Paths();
      bool match = false;
      if (accessor.SupportsScanPredicate()) {
        auto got = matcher.Matches(accessor, it.payload(), *preds[i], pred_paths);
        EXPECT_TRUE(got.ok()) << got.status().ToString();
        match = got.ok() && got.value();
      } else {
        EXPECT_TRUE(accessor.GetValues(it.payload(), pred_paths, &values).ok());
        match = EvalPredicateRow(values, *preds[i]);
      }
      out.push_back(where + "predicate " + std::to_string(i) + " on " +
                    pred_paths[0].ToString() + " = " + (match ? "true" : "false"));
    }
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

// One answer per question, whatever the record format: GetValues and the
// scan predicates read each record alike as ADM (open and closed types),
// BSON and vector-based records (consolidated and unconsolidated access),
// in the memtable and flushed. Nested [*] steps flatten into one list.
TEST(GetValues, EveryRecordFormatAnswersAlike) {
  std::vector<FieldPath> paths;
  for (const char* p : kPathWalkLeafPaths) paths.push_back(FieldPath::Parse(p));
  struct RecordSet {
    std::string name;
    std::vector<AdmValue> records;
    DatasetType closed_type;  // unset: no closed form
  };
  std::vector<RecordSet> sets;
  for (const char* dataset : {"twitter", "wos", "sensors"}) {
    auto gen = MakeGenerator(dataset, /*seed=*/5);
    sets.push_back({dataset, {}, gen->ClosedType()});
    for (int i = 0; i < 6; ++i) sets.back().records.push_back(gen->NextRecord());
  }
  sets.push_back({"handwritten",
                  {R(R"({"id": 1, "t": [[1, 2], [3]],
                         "u": [{"v": [{"w": 1}, {"w": 2}]}, {"v": [{"w": 3}]}]})")},
                  {}});
  struct Form {
    const char* name;
    SchemaMode mode;
    bool closed;
  };
  const Form forms[] = {{"vector", SchemaMode::kInferred, false},
                        {"adm_open", SchemaMode::kOpen, false},
                        {"adm_closed", SchemaMode::kClosed, true},
                        {"bson", SchemaMode::kBson, false}};
  for (const RecordSet& set : sets) {
    std::vector<std::string> want;  // vector records, consolidated, memtable
    for (const Form& form : forms) {
      if (form.closed && set.closed_type.root == nullptr) continue;
      testutil::DatasetFixture fx;
      DatasetOptions options = testutil::SmallOptions(form.mode, 1024);
      if (form.closed) options.type = set.closed_type;
      ASSERT_TRUE(fx.Open(options, 1).ok());
      for (const AdmValue& r : set.records) {
        ASSERT_TRUE(fx.dataset->Insert(r).ok());
      }
      for (bool flushed : {false, true}) {
        if (flushed) {
          ASSERT_TRUE(fx.dataset->FlushAll().ok());
        }
        for (bool consolidate : {true, false}) {
          if (!consolidate && form.mode != SchemaMode::kInferred) continue;
          SCOPED_TRACE(set.name + " " + form.name + (flushed ? " flushed" : " memtable") +
                       (consolidate ? "" : " unconsolidated"));
          std::vector<std::string> got =
              PartitionAnswers(fx.dataset->partition(0), consolidate, paths);
          if (want.empty()) want = got;
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
        }
      }
    }
    EXPECT_EQ(want.size(),
              set.records.size() * (paths.size() + PathWalkPredicates().size()));
  }
}

}  // namespace
}  // namespace tc
