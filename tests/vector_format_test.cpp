#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adm/parser.h"
#include "adm/printer.h"
#include "format/vector_format.h"
#include "query/field_access.h"
#include "query/scan_predicate.h"
#include "query/vec/vec_operator.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace tc {
namespace {

AdmValue R(const std::string& text) { return ParseAdm(text).ValueOrDie(); }
DatasetType PkType() { return DatasetType::OpenWithPk("id"); }

Buffer Encode(const AdmValue& rec, const DatasetType& type) {
  Buffer out;
  Status st = EncodeVectorRecord(rec, type, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(VectorFormat, HeaderAndValidate) {
  DatasetType type = PkType();
  Buffer b = Encode(R(R"({"id": 6, "name": "Ann", "salaries": [70000, 90000], "age": 26})"),
                    type);
  VectorRecordView view(b.data(), b.size());
  ASSERT_TRUE(view.Validate().ok());
  EXPECT_EQ(view.total_length(), b.size());
  // Paper Figure 13: object,int,string,array,int,int,end,int,EOV = 9 tags.
  EXPECT_EQ(view.tag_count(), 9u);
  EXPECT_FALSE(view.compacted());
}

TEST(VectorFormat, DecodeRoundTripSimple) {
  DatasetType type = PkType();
  AdmValue rec = R(R"({"id": 6, "name": "Ann", "salaries": [70000, 90000], "age": 26})");
  Buffer b = Encode(rec, type);
  AdmValue out;
  ASSERT_TRUE(
      DecodeVectorRecord(VectorRecordView(b.data(), b.size()), type, nullptr, &out)
          .ok());
  EXPECT_EQ(out, rec);
}

TEST(VectorFormat, DecodeRoundTripPaperAppendixB) {
  DatasetType type = PkType();
  AdmValue rec = R(R"({
    "id": 1, "name": "Ann",
    "dependents": {{ {"name": "Bob", "age": 6}, {"name": "Carol", "age": 10},
                     "Not_Available" }},
    "employment_date": date("2018-09-20"),
    "branch_location": point(24.0, -56.12)
  })");
  Buffer b = Encode(rec, type);
  AdmValue out;
  ASSERT_TRUE(
      DecodeVectorRecord(VectorRecordView(b.data(), b.size()), type, nullptr, &out)
          .ok());
  EXPECT_EQ(out, rec);
}

TEST(VectorFormat, MissingFieldsAreDropped) {
  DatasetType type = PkType();
  AdmValue rec = AdmValue::Object();
  rec.AddField("id", AdmValue::BigInt(5));
  rec.AddField("gone", AdmValue::Missing());
  rec.AddField("kept", AdmValue::BigInt(1));
  Buffer b = Encode(rec, type);
  AdmValue out;
  ASSERT_TRUE(
      DecodeVectorRecord(VectorRecordView(b.data(), b.size()), type, nullptr, &out)
          .ok());
  EXPECT_EQ(out.field_count(), 2u);
  EXPECT_EQ(out.FindField("gone"), nullptr);
}

TEST(VectorFormat, PropertyRandomRoundTrip) {
  DatasetType type = PkType();
  Rng rng(2024);
  for (int i = 0; i < 400; ++i) {
    AdmValue rec = testutil::RandomRecord(&rng, i, 5);
    Buffer b;
    ASSERT_TRUE(EncodeVectorRecord(rec, type, &b).ok());
    VectorRecordView view(b.data(), b.size());
    ASSERT_TRUE(view.Validate().ok());
    AdmValue out;
    ASSERT_TRUE(DecodeVectorRecord(view, type, nullptr, &out).ok())
        << PrintAdm(rec);
    // Missing-valued fields are dropped on encode; re-encode to normalize.
    AdmValue normalized = rec;
    EXPECT_EQ(PrintAdm(out), PrintAdm(normalized)) << i;
  }
}

TEST(VectorFormat, CompactionShrinksAndRoundTrips) {
  DatasetType type = PkType();
  AdmValue rec = R(R"({"id": 6, "name": "Ann", "salaries": [70000, 90000], "age": 26})");
  Buffer raw = Encode(rec, type);
  Schema schema;
  Buffer compacted;
  ASSERT_TRUE(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()),
                                          type, &schema, &compacted)
                  .ok());
  // Paper Figure 14: compaction replaces inline names with FieldNameIDs.
  EXPECT_LT(compacted.size(), raw.size());
  VectorRecordView cview(compacted.data(), compacted.size());
  ASSERT_TRUE(cview.Validate().ok());
  EXPECT_TRUE(cview.compacted());
  AdmValue out;
  ASSERT_TRUE(DecodeVectorRecord(cview, type, &schema, &out).ok());
  EXPECT_EQ(out, rec);
  // Dictionary got name/salaries/age (ids 1..3), not the declared id.
  EXPECT_EQ(schema.dict().size(), 3u);
  EXPECT_EQ(schema.dict().Lookup("id"), FieldNameDictionary::kInvalidId);
}

TEST(VectorFormat, RemovingASubsetMatchesFreshInference) {
  // The anti-schema undoes inference exactly: inferring records and then
  // removing a subset leaves what inferring only the survivors gives, when
  // the removed versions are memtable (uncompacted) bytes and when they are
  // on-disk (compacted) bytes, under open and closed types.
  struct Case {
    std::string name;
    DatasetType type;
    std::vector<AdmValue> records;
  };
  std::vector<Case> cases;
  Rng rng(31337);
  cases.push_back({"random_open", PkType(), {}});
  for (int i = 0; i < 120; ++i) {
    cases.back().records.push_back(testutil::RandomRecord(&rng, i, 4));
  }
  for (const char* dataset : {"twitter", "wos", "sensors"}) {
    for (bool closed : {false, true}) {
      auto gen = MakeGenerator(dataset, /*seed=*/3);
      cases.push_back({std::string(dataset) + (closed ? "_closed" : "_open"),
                       closed ? gen->ClosedType() : gen->OpenType(),
                       {}});
      for (int i = 0; i < 40; ++i) cases.back().records.push_back(gen->NextRecord());
    }
  }
  for (const Case& c : cases) {
    for (testutil::SchemaOp op :
         {testutil::SchemaOp::kRemove, testutil::SchemaOp::kRemoveCompacted}) {
      SCOPED_TRACE(c.name + (op == testutil::SchemaOp::kRemove ? " uncompacted"
                                                              : " compacted"));
      Schema full;
      for (const AdmValue& r : c.records) {
        ASSERT_TRUE(testutil::EncodeAndApply(&full, r, c.type).ok());
      }
      // Remove about half of the records, in a random order.
      std::vector<size_t> order(c.records.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Uniform(i)]);
      }
      Schema fresh;
      for (size_t k = 0; k < order.size(); ++k) {
        const AdmValue& r = c.records[order[k]];
        if (k % 2 == 0) {
          Status st = testutil::EncodeAndApply(&full, r, c.type, op);
          ASSERT_TRUE(st.ok()) << st.ToString();
        } else {
          ASSERT_TRUE(testutil::EncodeAndApply(&fresh, r, c.type).ok());
        }
      }
      EXPECT_EQ(testutil::CanonicalSchemaString(full),
                testutil::CanonicalSchemaString(fresh));
    }
  }
}

TEST(VectorFormat, PropertyCompactionRoundTrip) {
  DatasetType type = PkType();
  Rng rng(777);
  Schema schema;
  std::vector<AdmValue> records;
  std::vector<Buffer> compacted;
  for (int i = 0; i < 300; ++i) {
    records.push_back(testutil::RandomRecord(&rng, i, 5));
    Buffer raw;
    ASSERT_TRUE(EncodeVectorRecord(records.back(), type, &raw).ok());
    Buffer c;
    ASSERT_TRUE(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()),
                                            type, &schema, &c)
                    .ok());
    compacted.push_back(std::move(c));
  }
  // Every record decodes identically under the final (superset) schema.
  for (size_t i = 0; i < records.size(); ++i) {
    AdmValue out;
    ASSERT_TRUE(DecodeVectorRecord(
                    VectorRecordView(compacted[i].data(), compacted[i].size()),
                    type, &schema, &out)
                    .ok());
    EXPECT_EQ(PrintAdm(out), PrintAdm(records[i])) << i;
  }
}

TEST(VectorFormat, RemoveVectorRecordMirrorsInference) {
  DatasetType type = PkType();
  Rng rng(55);
  Schema schema;
  std::vector<Buffer> raws;
  for (int i = 0; i < 50; ++i) {
    AdmValue rec = testutil::RandomRecord(&rng, i, 4);
    Buffer b;
    ASSERT_TRUE(EncodeVectorRecord(rec, type, &b).ok());
    ASSERT_TRUE(
        InferVectorRecord(VectorRecordView(b.data(), b.size()), type, &schema).ok());
    raws.push_back(std::move(b));
  }
  for (const Buffer& b : raws) {
    ASSERT_TRUE(
        RemoveVectorRecord(VectorRecordView(b.data(), b.size()), type, &schema).ok());
  }
  EXPECT_EQ(schema.ToString(), "{}(0)");
}

TEST(VectorFormat, RemoveLeavesSchemaUntouchedOnUndecodableBytes) {
  // The anti-schema walk decrements as it goes, so it checks the whole record
  // first: bytes the decoder rejects late in the record must not have given
  // back the occurrences of the fields before the damage.
  DatasetType type = PkType();
  Schema schema;
  AdmValue rec = R(R"({"id": 1, "a": 1, "b": {"c": "x"}, "d": [1, 2]})");
  Buffer raw = Encode(rec, type);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(InferVectorRecord(VectorRecordView(raw.data(), raw.size()), type,
                                  &schema)
                    .ok());
  }
  const Schema before = schema.Clone();
  auto expect_rejected = [&](const Buffer& bytes) {
    VectorRecordView view(bytes.data(), bytes.size());
    AdmValue decoded;
    EXPECT_TRUE(DecodeVectorRecord(view, type, &schema, &decoded).IsCorruption());
    EXPECT_TRUE(RemoveVectorRecord(view, type, &schema).IsCorruption());
    EXPECT_TRUE(schema.Equals(before)) << schema.ToString();
  };
  // A bad tag byte on the last item of "d".
  Buffer bad_tag = raw;
  const VectorRecordView view(raw.data(), raw.size());
  bad_tag[kVectorHeaderSize + view.tag_count() - 3] = 0xEE;
  expect_rejected(bad_tag);
  // A compacted record whose last field's FieldNameID the schema never
  // assigned (it was compacted against a schema that had seen "zz").
  Schema other = schema.Clone();
  Buffer with_zz = Encode(R(R"({"id": 1, "a": 1, "b": {"c": "x"}, "zz": 2})"), type);
  Buffer compacted;
  ASSERT_TRUE(InferAndCompactVectorRecord(
                  VectorRecordView(with_zz.data(), with_zz.size()), type, &other,
                  &compacted)
                  .ok());
  expect_rejected(compacted);
  // The undamaged record still removes.
  ASSERT_TRUE(RemoveVectorRecord(view, type, &schema).ok());
  EXPECT_EQ(schema.ToString(),
            "{a:bigint(1), b:{c:string(1)}(1), d:array(1)<bigint(2)>}(1)");
}

TEST(VectorFormat, RemoveIsAllOrNothingOnSchemaMismatch) {
  // A decodable record the schema does not cover fails the anti-schema
  // before its first decrement: neither the fields before a field the
  // schema lacks nor the items an array holds beyond the schema's counter
  // may have been given back.
  DatasetType type = PkType();
  struct Case {
    std::vector<const char*> inferred;  // builds the schema
    const char* removed_first;          // removed before the mismatch
    const char* mismatch;
  };
  const Case cases[] = {
      // "b" was never seen (compacted, its FieldNameID is not the schema's).
      {{R"({"id": 1, "a": 1})"}, nullptr, R"({"id": 2, "a": 1, "b": 2})"},
      // "b" is in the dictionary (compacted IDs resolve) but not the schema.
      {{R"({"id": 1, "a": 1, "b": 2})", R"({"id": 1, "a": 1})"},
       R"({"id": 1, "a": 1, "b": 2})",
       R"({"id": 2, "a": 1, "b": 2})"},
      // Three items against a counter of one.
      {{R"({"id": 1, "x": [1]})"}, nullptr, R"({"id": 1, "x": [1, 2, 3]})"},
  };
  for (const Case& c : cases) {
    for (bool compacted : {false, true}) {
      SCOPED_TRACE(std::string(c.mismatch) + (compacted ? " compacted" : ""));
      Schema schema;
      for (const char* text : c.inferred) {
        Buffer raw = Encode(R(text), type);
        ASSERT_TRUE(
            InferVectorRecord(VectorRecordView(raw.data(), raw.size()), type, &schema)
                .ok());
      }
      if (c.removed_first != nullptr) {
        Buffer raw = Encode(R(c.removed_first), type);
        ASSERT_TRUE(
            RemoveVectorRecord(VectorRecordView(raw.data(), raw.size()), type, &schema)
                .ok());
      }
      Buffer bytes = Encode(R(c.mismatch), type);
      if (compacted) {
        // Compacted against a copy, so the FieldNameIDs are the schema's own.
        Schema other = schema.Clone();
        Buffer out;
        ASSERT_TRUE(InferAndCompactVectorRecord(
                        VectorRecordView(bytes.data(), bytes.size()), type, &other,
                        &out)
                        .ok());
        bytes = std::move(out);
      }
      const Schema before = schema.Clone();
      Status st =
          RemoveVectorRecord(VectorRecordView(bytes.data(), bytes.size()), type, &schema);
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      EXPECT_TRUE(schema.Equals(before)) << schema.ToString();
    }
  }
}

TEST(VectorFormat, CompactedSavesVersusAdmNames) {
  // A record dominated by field names must shrink substantially on compaction
  // (the "semantic" savings of §4.2).
  DatasetType type = PkType();
  AdmValue rec = AdmValue::Object();
  rec.AddField("id", AdmValue::BigInt(1));
  for (int i = 0; i < 50; ++i) {
    rec.AddField("a_rather_long_field_name_" + std::to_string(i),
                 AdmValue::BigInt(i));
  }
  Buffer raw = Encode(rec, type);
  Schema schema;
  Buffer compacted;
  ASSERT_TRUE(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()),
                                          type, &schema, &compacted)
                  .ok());
  EXPECT_LT(compacted.size() * 2, raw.size());
}

TEST(VectorFormat, ValidateRejectsCorruption) {
  DatasetType type = PkType();
  Buffer b = Encode(R(R"({"id": 1, "x": "y"})"), type);
  // Truncated.
  EXPECT_FALSE(VectorRecordView(b.data(), b.size() - 1).Validate().ok());
  // Length mismatch.
  Buffer bad = b;
  OverwriteFixed32(&bad, 0, static_cast<uint32_t>(bad.size() + 4));
  EXPECT_FALSE(VectorRecordView(bad.data(), bad.size()).Validate().ok());
  // Bad offset ordering.
  bad = b;
  OverwriteFixed32(&bad, 10, 0);
  EXPECT_FALSE(VectorRecordView(bad.data(), bad.size()).Validate().ok());
}

// Missing is never stored (fields drop it, collections reject it) and union
// is a schema-only kind: a tag byte holding either is Corruption for the
// walker, its fixed-run fast path and the decoder alike.
TEST(VectorFormat, StoredMissingOrUnionTagIsCorruption) {
  DatasetType type = PkType();
  // Tags: object, bigint, array, null, null, end-nest, EOV.
  Buffer b = Encode(R(R"({"id": 1, "r": [null, null]})"), type);
  ASSERT_EQ(VectorRecordView(b.data(), b.size()).tag_count(), 7u);
  for (AdmTag bad : {AdmTag::kMissing, AdmTag::kUnion}) {
    SCOPED_TRACE(AdmTagName(bad));
    Buffer field = b;  // the id field's value
    field[kVectorHeaderSize + 1] = static_cast<uint8_t>(bad);
    Buffer items = b;  // both collection items
    items[kVectorHeaderSize + 3] = static_cast<uint8_t>(bad);
    items[kVectorHeaderSize + 4] = static_cast<uint8_t>(bad);
    for (const Buffer* corrupt : {&field, &items}) {
      VectorRecordView view(corrupt->data(), corrupt->size());
      ASSERT_TRUE(view.Validate().ok());
      AdmValue out;
      EXPECT_TRUE(DecodeVectorRecord(view, type, nullptr, &out).IsCorruption());
    }
    VectorRecordWalker walker(VectorRecordView(items.data(), items.size()));
    VectorRecordWalker::Item it;
    bool done = false;
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(walker.Next(&it, &done).ok());
    ASSERT_EQ(it.tag, AdmTag::kArray);
    AdmTag run_tag;
    const uint8_t* run_base = nullptr;
    EXPECT_EQ(walker.TryFixedRun(&run_tag, &run_base), 0u);
    EXPECT_TRUE(walker.Next(&it, &done).IsCorruption());
  }
}

TEST(VectorFormat, AnalyzeRegions) {
  DatasetType type = PkType();
  Buffer b = Encode(R(R"({"id": 6, "name": "Ann", "salaries": [70000, 90000], "age": 26})"),
                    type);
  auto stats = AnalyzeVectorRecord(VectorRecordView(b.data(), b.size()));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().header, kVectorHeaderSize);
  EXPECT_EQ(stats.value().tags, 9u);
  // Fixed values: id(8) + two salaries(16) + age(8) = 32 bytes.
  EXPECT_EQ(stats.value().fixed, 32u);
  EXPECT_EQ(stats.value().var_values, 3u);  // "Ann"
  EXPECT_GT(stats.value().name_values, 0u);
  size_t total = stats.value().header + stats.value().tags + stats.value().fixed +
                 stats.value().var_lengths + stats.value().var_values +
                 stats.value().name_slots + stats.value().name_values;
  EXPECT_EQ(total, b.size());
}

TEST(VectorFormat, DeclaredIndexFlagBit) {
  // Two declared fields: id and name; only "extra" is inferred.
  DatasetType type;
  type.primary_key_field = "id";
  type.root = TypeDescriptor::Object(true);
  type.root->AddField("id", TypeDescriptor::Scalar(AdmTag::kBigInt));
  type.root->AddField("name", TypeDescriptor::Scalar(AdmTag::kString));
  AdmValue rec = R(R"({"id": 9, "name": "Zoe", "extra": true})");
  Buffer b = Encode(rec, type);
  Schema schema;
  Buffer c;
  ASSERT_TRUE(InferAndCompactVectorRecord(VectorRecordView(b.data(), b.size()),
                                          type, &schema, &c)
                  .ok());
  EXPECT_EQ(schema.dict().size(), 1u);  // only "extra"
  EXPECT_EQ(schema.ToString(), "{extra:boolean(1)}(1)");
  AdmValue out;
  ASSERT_TRUE(DecodeVectorRecord(VectorRecordView(c.data(), c.size()), type,
                                 &schema, &out)
                  .ok());
  EXPECT_EQ(out, rec);
}

TEST(VectorFormat, EmptyContainers) {
  DatasetType type = PkType();
  AdmValue rec = R(R"({"id": 1, "empty_arr": [], "empty_obj": {}, "empty_ms": {{}}})");
  Buffer b = Encode(rec, type);
  AdmValue out;
  ASSERT_TRUE(
      DecodeVectorRecord(VectorRecordView(b.data(), b.size()), type, nullptr, &out)
          .ok());
  EXPECT_EQ(out, rec);
}

TEST(VectorFormat, LongStringsUseWiderLengthBits) {
  DatasetType type = PkType();
  AdmValue rec = AdmValue::Object();
  rec.AddField("id", AdmValue::BigInt(1));
  rec.AddField("s", AdmValue::String(std::string(100000, 'x')));  // > 64 KiB
  Buffer b = Encode(rec, type);
  VectorRecordView view(b.data(), b.size());
  ASSERT_TRUE(view.Validate().ok());
  EXPECT_GT(view.var_len_bits(), 16);
  AdmValue out;
  ASSERT_TRUE(DecodeVectorRecord(view, type, nullptr, &out).ok());
  EXPECT_EQ(out, rec);
}

// ---------------------------------------------------------------------------
// The nesting-depth bound (kMaxNestingDepth) and shape runs
// ---------------------------------------------------------------------------

/// {"a": [[...[]...]]} with its deepest value at nesting level `levels`,
/// encoded uncompacted: the root object (level 1), then `levels - 1` arrays.
/// Built as bytes, so no AdmValue of that depth ever exists.
Buffer NestedArrayRecord(size_t levels) {
  Buffer shallow = Encode(R(R"({"a": []})"), PkType());  // object array end EOV
  const size_t extra = levels - 2;                       // arrays to add
  const uint8_t* h = shallow.data();
  Buffer tags(extra + 2, static_cast<uint8_t>(AdmTag::kArray));
  tags.resize(2 * extra + 3, static_cast<uint8_t>(AdmTag::kEndNest));
  tags.front() = static_cast<uint8_t>(AdmTag::kObject);
  tags.push_back(static_cast<uint8_t>(AdmTag::kEov));
  Buffer out(shallow.begin(), shallow.begin() + kVectorHeaderSize);
  out.insert(out.end(), tags.begin(), tags.end());
  out.insert(out.end(), shallow.begin() + kVectorHeaderSize + 4,
             shallow.end());  // the name slot and "a"
  OverwriteFixed32(&out, 0, static_cast<uint32_t>(out.size()));
  OverwriteFixed32(&out, 4, static_cast<uint32_t>(4 + 2 * extra));
  for (int i = 0; i < 5; ++i) {
    size_t at = 10 + 4 * static_cast<size_t>(i);
    OverwriteFixed32(&out, at, static_cast<uint32_t>(GetFixed32(h + at) + 2 * extra));
  }
  return out;
}

/// {"a": [[...[1]...]]} whose scalar sits at nesting level `levels`.
AdmValue NestedArrayValue(size_t levels) {
  AdmValue v = AdmValue::BigInt(1);
  for (size_t l = levels; l > 2; --l) {
    AdmValue arr = AdmValue::Array();
    arr.Append(std::move(v));
    v = std::move(arr);
  }
  AdmValue rec = AdmValue::Object();
  rec.AddField("a", std::move(v));
  return rec;
}

TEST(VectorFormat, NestingDepthBoundIsCorruptionForEveryReader) {
  DatasetType type = PkType();
  Schema schema;
  const std::vector<FieldPath> paths = {FieldPath::Parse("b"), FieldPath::Parse("a[*]")};
  const std::vector<FieldPath> unmatched = {paths[0]};
  auto pred = ScanPredicate::And({ScanPredicate::Term("b", CompareOp::kEq,
                                                      AdmValue::BigInt(1))});
  for (size_t levels : {size_t{513}, size_t{100000}}) {
    SCOPED_TRACE(levels);
    Buffer b = NestedArrayRecord(levels);
    VectorRecordView view(b.data(), b.size());
    ASSERT_TRUE(view.Validate().ok());
    AdmValue decoded;
    EXPECT_TRUE(DecodeVectorRecord(view, type, &schema, &decoded).IsCorruption());
    std::vector<AdmValue> got;
    EXPECT_TRUE(GetValuesVector(view, type, &schema, paths, &got).IsCorruption());
    VecPathExtractor extractor(unmatched, &schema);  // walks the whole record
    EXPECT_TRUE(extractor.Extract(view, type).status().IsCorruption());
    ScanPredicateMatcher matcher;
    EXPECT_TRUE(matcher.MatchVector(view, type, &schema, *pred).status().IsCorruption());
    EXPECT_TRUE(InferVectorRecord(view, type, &schema).IsCorruption());
  }
  // The deepest record the parser accepts is exactly as deep as the deepest
  // one the format stores and reads back.
  for (size_t levels : {size_t{512}, size_t{513}}) {
    SCOPED_TRACE(levels);
    const bool fits = levels <= static_cast<size_t>(kMaxNestingDepth);
    AdmValue rec = NestedArrayValue(levels);
    ASSERT_EQ(rec.Depth(), levels);
    EXPECT_EQ(ParseAdm(PrintAdm(rec)).ok(), fits);
    Buffer b;
    Status st = EncodeVectorRecord(rec, type, &b);
    if (!fits) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      continue;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    AdmValue out;
    ASSERT_TRUE(DecodeVectorRecord(VectorRecordView(b.data(), b.size()), type, nullptr,
                                   &out)
                    .ok());
    EXPECT_EQ(out, rec);
    Buffer empty_innermost = NestedArrayRecord(levels);
    ASSERT_TRUE(DecodeVectorRecord(
                    VectorRecordView(empty_innermost.data(), empty_innermost.size()),
                    type, nullptr, &out)
                    .ok());
  }
}

// Sensors-like records: `readings` holds `n` {temp: double, timestamp:
// bigint} objects, and item `at` (when < n) breaks that shape one way. A
// renamed field keeps the tag bytes: only the name slots differ.
enum class ShapeBreak { kMissingField, kExtraField, kReordered, kRenamed, kTypeChange,
                        kNested, kString, kNone };
constexpr ShapeBreak kShapeBreaks[] = {
    ShapeBreak::kMissingField, ShapeBreak::kExtraField, ShapeBreak::kReordered,
    ShapeBreak::kRenamed,      ShapeBreak::kTypeChange, ShapeBreak::kNested,
    ShapeBreak::kString};

AdmValue Reading(double temp, int64_t ts, ShapeBreak how) {
  AdmValue r = AdmValue::Object();
  switch (how) {
    case ShapeBreak::kMissingField:
      r.AddField("temp", AdmValue::Double(temp));
      break;
    case ShapeBreak::kReordered:
      r.AddField("timestamp", AdmValue::BigInt(ts));
      r.AddField("temp", AdmValue::Double(temp));
      break;
    case ShapeBreak::kRenamed:
      r.AddField("temp", AdmValue::Double(temp));
      r.AddField("sensor_id", AdmValue::BigInt(ts));
      break;
    case ShapeBreak::kTypeChange:
      r.AddField("temp", AdmValue::BigInt(static_cast<int64_t>(temp)));
      r.AddField("timestamp", AdmValue::BigInt(ts));
      break;
    case ShapeBreak::kNested: {
      AdmValue at = AdmValue::Array();
      at.Append(AdmValue::BigInt(ts));
      r.AddField("temp", AdmValue::Double(temp));
      r.AddField("timestamp", std::move(at));
      break;
    }
    case ShapeBreak::kString:
      r.AddField("temp", AdmValue::String("hot"));
      r.AddField("timestamp", AdmValue::BigInt(ts));
      break;
    default:  // kNone, kExtraField
      r.AddField("temp", AdmValue::Double(temp));
      r.AddField("timestamp", AdmValue::BigInt(ts));
      if (how == ShapeBreak::kExtraField) r.AddField("sensor_id", AdmValue::BigInt(7));
      break;
  }
  return r;
}

AdmValue SensorsLikeRecord(Rng* rng, int64_t id, size_t n,
                           const std::vector<std::pair<size_t, ShapeBreak>>& breaks) {
  AdmValue rec = AdmValue::Object();
  rec.AddField("id", AdmValue::BigInt(id));
  rec.AddField("sensor_id", AdmValue::BigInt(id % 5));
  AdmValue readings = AdmValue::Array();
  for (size_t i = 0; i < n; ++i) {
    ShapeBreak how = ShapeBreak::kNone;
    for (const auto& b : breaks) {
      if (b.first == i) how = b.second;
    }
    double temp = 15.0 + 20.0 * rng->NextDouble();
    readings.Append(Reading(temp, 1000 * static_cast<int64_t>(i), how));
  }
  rec.AddField("readings", std::move(readings));
  return rec;
}

/// The Sensors closed type's shape: every reading field declared.
DatasetType SensorsLikeClosedType() {
  DatasetType d;
  d.primary_key_field = "id";
  d.root = TypeDescriptor::Object(false);
  d.root->AddField("id", TypeDescriptor::Scalar(AdmTag::kBigInt));
  d.root->AddField("sensor_id", TypeDescriptor::Scalar(AdmTag::kBigInt));
  auto reading = TypeDescriptor::Object(false);
  reading->AddField("temp", TypeDescriptor::Scalar(AdmTag::kDouble));
  reading->AddField("timestamp", TypeDescriptor::Scalar(AdmTag::kBigInt));
  d.root->AddField("readings", TypeDescriptor::Collection(AdmTag::kArray, reading));
  return d;
}

/// One stored form of a record: uncompacted as in the memtable, or
/// compacted as a flush writes it (FieldNameIDs from `schema`).
Buffer StoredForm(const AdmValue& rec, const DatasetType& type, bool compacted,
                  Schema* schema) {
  Buffer b = Encode(rec, type);
  if (!compacted) return b;
  Buffer c;
  Status st = InferAndCompactVectorRecord(VectorRecordView(b.data(), b.size()), type,
                                          schema, &c);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return c;
}

/// Walks `readings` (the record's last field) the way the path walk does —
/// one item through Next, then shape runs while they last — and returns how
/// many items Next visited; `*items` gets the total.
size_t ReadingsVisitedByNext(const VectorRecordView& view, size_t* items) {
  VectorRecordWalker walker(view);
  VectorRecordWalker::Item it;
  bool done = false;
  do {
    if (!walker.Next(&it, &done).ok() || done) return 0;
  } while (!(it.tag == AdmTag::kArray && it.depth == 1));
  size_t visited = 0;
  *items = 0;
  while (true) {
    VectorRecordWalker::ShapeRun run;
    size_t n = walker.TryShapeRun(&run);
    if (n > 0) {
      EXPECT_EQ(run.count, n);
      *items += n;
      continue;
    }
    if (!walker.Next(&it, &done).ok()) return visited;
    if (it.tag == AdmTag::kEndNest && it.depth == 1) return visited;
    ++visited;
    ++*items;
    while (walker.depth() > 2) {  // to the item's end, inside the array
      if (!walker.Next(&it, &done).ok()) return visited;
    }
  }
}

TEST(VectorFormat, ShapeRunStopsAtFirstDifference) {
  Rng rng(5);
  const size_t n = 8;
  for (bool closed : {false, true}) {
    DatasetType type = closed ? SensorsLikeClosedType() : PkType();
    for (bool compacted : {false, true}) {
      // Inline names decline runs; declared and FieldNameID names take them.
      const bool runs = closed || compacted;
      for (ShapeBreak how : kShapeBreaks) {
        for (size_t at = 0; at <= n; ++at) {
          SCOPED_TRACE(::testing::Message() << "closed=" << closed << " compacted="
                                            << compacted << " break="
                                            << static_cast<int>(how) << " at=" << at);
          Schema schema;
          AdmValue rec = SensorsLikeRecord(&rng, 1, n, {{at, how}});
          Buffer b = StoredForm(rec, type, compacted, &schema);
          size_t items = 0;
          size_t visited = ReadingsVisitedByNext(VectorRecordView(b.data(), b.size()),
                                                 &items);
          EXPECT_EQ(items, n);
          // Next visits the first item, the break and the item after it;
          // runs cover the rest.
          size_t want = at >= n ? 1 : (at == 0 ? 2 : (at + 1 < n ? 3 : 2));
          EXPECT_EQ(visited, runs ? want : n);
        }
      }
    }
  }
}

// The extractor and the matcher take shape runs; the decoded record stays
// their oracle on arrays that break the run at every position, one way or
// several, in the memtable's and a flush's record forms, under an open and a
// closed type.
TEST(VectorFormat, ShapeRunWalksMatchDecodedRecord) {
  Rng rng(2024);
  const std::vector<std::vector<FieldPath>> path_sets = {
      {FieldPath::Parse("readings[*].temp")},
      {FieldPath::Parse("readings[*].temp"), FieldPath::Parse("readings[*].timestamp")},
      {FieldPath::Parse("sensor_id"), FieldPath::Parse("readings[*].sensor_id"),
       FieldPath::Parse("readings[*].timestamp")},
      {FieldPath::Parse("readings[*].temp"), FieldPath::Parse("readings[2].timestamp")},
  };
  auto preds = [](double lit, int64_t ts) {
    return std::vector<std::shared_ptr<const ScanPredicate>>{
        ScanPredicate::And({ScanPredicate::Term("readings[*].temp", CompareOp::kGt,
                                                AdmValue::Double(lit))}),
        ScanPredicate::And({ScanPredicate::Term("readings[*].timestamp", CompareOp::kEq,
                                                AdmValue::BigInt(ts))}),
        ScanPredicate::And({ScanPredicate::Term("sensor_id", CompareOp::kGe,
                                                AdmValue::BigInt(0)),
                            ScanPredicate::Term("readings[*].temp", CompareOp::kLt,
                                                AdmValue::Double(lit))}),
        ScanPredicate::And({ScanPredicate::In("readings[*].temp",
                                              {AdmValue::BigInt(20), AdmValue::String("hot")}),
                            ScanPredicate::Term("readings[*].sensor_id", CompareOp::kEq,
                                                AdmValue::BigInt(7))}),
    };
  };
  // The matcher binds a predicate by address: every one stays alive.
  std::vector<std::shared_ptr<const ScanPredicate>> all_preds;
  size_t checked = 0;
  for (bool closed : {false, true}) {
    DatasetType type = closed ? SensorsLikeClosedType() : PkType();
    for (bool compacted : {false, true}) {
      Schema schema;
      std::vector<AdmValue> records;
      std::vector<Buffer> stored;
      for (int r = 0; r < 150; ++r) {
        size_t n = r == 0 ? 117 : 1 + rng.Uniform(12);
        std::vector<std::pair<size_t, ShapeBreak>> breaks;
        size_t nbreaks = rng.Uniform(3);
        for (size_t k = 0; k < nbreaks; ++k) {
          breaks.push_back({rng.Uniform(n), kShapeBreaks[rng.Uniform(std::size(kShapeBreaks))]});
        }
        records.push_back(SensorsLikeRecord(&rng, r, n, breaks));
        stored.push_back(StoredForm(records.back(), type, compacted, &schema));
      }
      ScanPredicateMatcher matcher;
      for (size_t r = 0; r < records.size(); ++r) {
        SCOPED_TRACE(::testing::Message() << "closed=" << closed
                                          << " compacted=" << compacted << " r=" << r);
        VectorRecordView view(stored[r].data(), stored[r].size());
        AdmValue decoded;
        ASSERT_TRUE(DecodeVectorRecord(view, type, &schema, &decoded).ok());
        for (const auto& paths : path_sets) {
          VecPathExtractor extractor(paths, &schema);
          Result<bool> fast = extractor.Extract(view, type);
          ASSERT_TRUE(fast.ok()) << fast.status().ToString();
          bool nested = false;
          std::vector<AdmValue> want;
          for (const FieldPath& p : paths) {
            want.push_back(NavigateAdmValue(decoded, p.steps));
            const AdmValue& w = want.back();
            for (size_t i = 0; p.HasWildcard() && i < w.size(); ++i) {
              nested = nested || IsNested(w.item(i).tag());
            }
            nested = nested || (!p.HasWildcard() && IsNested(w.tag()));
          }
          ASSERT_EQ(fast.value(), !nested);
          if (nested) continue;
          std::vector<ColumnVector> cols(paths.size());
          extractor.AppendRow(cols.data());
          for (size_t k = 0; k < paths.size(); ++k) {
            EXPECT_EQ(PrintAdm(cols[k].ValueAt(0)), PrintAdm(want[k])) << k;
          }
          ++checked;
        }
        const AdmValue& readings = *decoded.FindField("readings");
        const AdmValue& some = readings.item(rng.Uniform(readings.size()));
        const AdmValue* ts = some.FindField("timestamp");
        for (const auto& pred : preds(15.0 + 20.0 * rng.NextDouble(),
                                      ts != nullptr && ts->tag() == AdmTag::kBigInt
                                          ? ts->int_value()
                                          : -1)) {
          all_preds.push_back(pred);
          std::vector<AdmValue> cols;
          for (const PredicateTerm& t : pred->terms) {
            cols.push_back(NavigateAdmValue(decoded, t.path.steps));
          }
          Result<bool> got = matcher.MatchVector(view, type, &schema, *pred);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got.value(), EvalPredicateRow(cols, *pred));
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 4000u);
}

// Golden bytes: hashes of the encoder's and the flush compactor's output for
// seeded workload records, taken before the encoders reused per-thread
// buffers. Both outputs are on-disk bytes (the encoder's in every kInferred
// and schemaless memtable flush, the compactor's in every inferred
// component), so a change that moves a hash changes the format.
struct GoldenRecords {
  const char* workload;
  bool closed;  // the workload's closed type, or the pk-only open type
  uint64_t encoded;
  uint64_t compacted;
};

void PrintTo(const GoldenRecords& g, std::ostream* os) {
  *os << g.workload << (g.closed ? "/closed" : "/open");
}

class VectorGoldenBytes : public ::testing::TestWithParam<GoldenRecords> {};

TEST_P(VectorGoldenBytes, EncodeAndCompactMatchPinnedHashes) {
  const GoldenRecords& g = GetParam();
  auto gen = MakeGenerator(g.workload, /*seed=*/7);
  const DatasetType type = g.closed ? gen->ClosedType() : gen->OpenType();
  Schema schema;
  Buffer encoded;    // every record appended to one buffer
  Buffer compacted;
  for (int i = 0; i < 64; ++i) {
    const size_t at = encoded.size();
    ASSERT_TRUE(EncodeVectorRecord(gen->NextRecord(), type, &encoded).ok());
    ASSERT_TRUE(InferAndCompactVectorRecord(
                    VectorRecordView(encoded.data() + at, encoded.size() - at), type,
                    &schema, &compacted)
                    .ok());
  }
  EXPECT_EQ(testutil::Fnv1a(encoded), g.encoded)
      << std::hex << "encoded 0x" << testutil::Fnv1a(encoded);
  EXPECT_EQ(testutil::Fnv1a(compacted), g.compacted)
      << std::hex << "compacted 0x" << testutil::Fnv1a(compacted);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, VectorGoldenBytes,
    ::testing::Values(
        GoldenRecords{"twitter", false, 0x66f239cf244b264full, 0xdd8475978604d062ull},
        GoldenRecords{"twitter", true, 0xbd8fd144aaa08e08ull, 0x6f04450ddcdd4fc7ull},
        GoldenRecords{"wos", false, 0x7e3d20663f40e702ull, 0x1c0f4dfdac29ee22ull},
        GoldenRecords{"wos", true, 0xc2203cafb27ec998ull, 0xb5301ae4ad341834ull},
        GoldenRecords{"sensors", false, 0xb69034bc9c88d3a9ull, 0x61b1c4ff1b38605dull},
        GoldenRecords{"sensors", true, 0x428d3b9380fd31d5ull, 0x69eaf886f96709ull}),
    [](const auto& info) {
      return std::string(info.param.workload) + (info.param.closed ? "Closed" : "Open");
    });

// The decoder reserves each container from the child counts of the tag
// vector and builds every value in its slot: the tree must still equal the
// input on every workload and storage form, decoding into one reused value.
TEST(VectorFormat, DecodeMatchesInputOnEveryWorkload) {
  for (const char* workload : {"twitter", "wos", "sensors"}) {
    for (bool closed : {false, true}) {
      for (bool compacted : {false, true}) {
        SCOPED_TRACE(::testing::Message() << workload << " closed=" << closed
                                          << " compacted=" << compacted);
        auto gen = MakeGenerator(workload, /*seed=*/7);
        const DatasetType type = closed ? gen->ClosedType() : gen->OpenType();
        Schema schema;
        AdmValue decoded;
        for (int i = 0; i < 64; ++i) {
          const AdmValue rec = gen->NextRecord();
          Buffer stored = Encode(rec, type);
          if (compacted) {
            Buffer out;
            ASSERT_TRUE(InferAndCompactVectorRecord(
                            VectorRecordView(stored.data(), stored.size()), type,
                            &schema, &out)
                            .ok());
            stored = std::move(out);
          }
          ASSERT_TRUE(DecodeVectorRecord(VectorRecordView(stored.data(), stored.size()),
                                         type, &schema, &decoded)
                          .ok());
          EXPECT_EQ(decoded, rec) << i;
        }
      }
    }
  }
}

/// `rec` (uncompacted) with its tag vector replaced by `tags`, every region
/// after it shifted to match.
Buffer WithTags(const Buffer& rec, const std::vector<AdmTag>& tags) {
  VectorRecordView view(rec.data(), rec.size());
  const int64_t delta = static_cast<int64_t>(tags.size()) - view.tag_count();
  Buffer out(rec.begin(), rec.begin() + kVectorHeaderSize);
  for (AdmTag t : tags) out.push_back(static_cast<uint8_t>(t));
  out.insert(out.end(), rec.begin() + view.offset(0), rec.end());
  OverwriteFixed32(&out, 0, static_cast<uint32_t>(out.size()));
  OverwriteFixed32(&out, 4, static_cast<uint32_t>(tags.size()));
  for (int i = 0; i < 5; ++i) {
    OverwriteFixed32(&out, 10 + 4 * static_cast<size_t>(i),
                     static_cast<uint32_t>(view.offset(i) + delta));
  }
  return out;
}

// The decoder's child pre-count runs before the walk and rejects nothing:
// malformed scopes fail with the walk's message, as before the pre-count.
TEST(VectorFormat, DecodeRejectsMalformedScopesAsBefore) {
  const DatasetType type = PkType();
  const Buffer good = Encode(R(R"({"a": [1, 2]})"), type);
  using T = AdmTag;
  const Buffer extra_end_nest = WithTags(
      good, {T::kObject, T::kArray, T::kBigInt, T::kBigInt, T::kEndNest, T::kEndNest,
             T::kEov});
  const Buffer unclosed =
      WithTags(good, {T::kObject, T::kArray, T::kBigInt, T::kBigInt, T::kEov});
  const Buffer eov_mid_scope = WithTags(
      good, {T::kObject, T::kArray, T::kBigInt, T::kEov, T::kBigInt, T::kEndNest,
             T::kEov});
  const Buffer too_deep = NestedArrayRecord(static_cast<size_t>(kMaxNestingDepth) + 1);
  const std::pair<const Buffer*, const char*> cases[] = {
      {&extra_end_nest, "vb: scope underflow"},
      {&unclosed, "vb: EOV inside open scope"},
      {&eov_mid_scope, "vb: EOV inside open scope"},
      {&too_deep, "vb: nesting exceeds depth limit"},
  };
  for (const auto& [bytes, message] : cases) {
    SCOPED_TRACE(message);
    VectorRecordView view(bytes->data(), bytes->size());
    ASSERT_TRUE(view.Validate().ok());
    AdmValue out;
    Status st = DecodeVectorRecord(view, type, nullptr, &out);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_EQ(st.message(), message);
  }
  AdmValue out;
  ASSERT_TRUE(DecodeVectorRecord(VectorRecordView(good.data(), good.size()), type,
                                 nullptr, &out)
                  .ok());
  EXPECT_EQ(out, R(R"({"a": [1, 2]})"));
}

// Each thread reuses one set of encoder buffers. A record that fails
// partway, with the buffers already holding most of its parts, must leave
// nothing behind:
// the next record on that thread encodes exactly as on a fresh thread.
TEST(VectorFormat, FailedEncodeLeavesNothingBehind) {
  auto gen = MakeGenerator("twitter", /*seed=*/7);
  const DatasetType type = gen->OpenType();
  const AdmValue good = gen->NextRecord();
  Buffer fresh;
  std::thread([&] { fresh = Encode(good, type); }).join();

  AdmValue missing_item = AdmValue::Array();
  missing_item.Append(AdmValue::BigInt(1));
  missing_item.Append(AdmValue::Missing());
  const AdmValue bad_fields[] = {
      NestedArrayValue(static_cast<size_t>(kMaxNestingDepth) + 1).field_value(0),
      missing_item};
  for (const AdmValue& bad_field : bad_fields) {
    AdmValue bad = good;
    bad.AddField("zz_last", bad_field);
    Buffer after;
    std::thread([&] {
      Buffer junk;
      EXPECT_EQ(EncodeVectorRecord(bad, type, &junk).code(), StatusCode::kInvalidArgument);
      after = Encode(good, type);
    }).join();
    EXPECT_EQ(after, fresh);
  }

  // The same for the flush compactor's buffers, failing on a stored record
  // nested past the depth bound.
  Buffer compact_fresh;
  std::thread([&] {
    Schema schema;
    ASSERT_TRUE(InferAndCompactVectorRecord(VectorRecordView(fresh.data(), fresh.size()),
                                            type, &schema, &compact_fresh)
                    .ok());
  }).join();
  Buffer compact_after;
  std::thread([&] {
    const Buffer deep = NestedArrayRecord(static_cast<size_t>(kMaxNestingDepth) + 1);
    Schema failed_schema;
    Buffer junk;
    EXPECT_TRUE(InferAndCompactVectorRecord(VectorRecordView(deep.data(), deep.size()),
                                            type, &failed_schema, &junk)
                    .IsCorruption());
    Schema schema;
    ASSERT_TRUE(InferAndCompactVectorRecord(VectorRecordView(fresh.data(), fresh.size()),
                                            type, &schema, &compact_after)
                    .ok());
  }).join();
  EXPECT_EQ(compact_after, compact_fresh);
}

}  // namespace
}  // namespace tc
