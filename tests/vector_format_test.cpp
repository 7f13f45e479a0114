#include <gtest/gtest.h>

#include "adm/parser.h"
#include "adm/printer.h"
#include "format/vector_format.h"
#include "schema/inference.h"
#include "tests/test_util.h"

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

TEST(VectorFormat, InferMatchesAdmValueInference) {
  // Flush-path inference over bytes must equal inference over the tree.
  DatasetType type = PkType();
  Rng rng(31337);
  Schema from_bytes, from_tree;
  for (int i = 0; i < 200; ++i) {
    AdmValue rec = testutil::RandomRecord(&rng, i, 4);
    Buffer b;
    ASSERT_TRUE(EncodeVectorRecord(rec, type, &b).ok());
    ASSERT_TRUE(
        InferVectorRecord(VectorRecordView(b.data(), b.size()), type, &from_bytes)
            .ok());
    ASSERT_TRUE(InferRecord(&from_tree, rec, type.root.get()).ok());
  }
  EXPECT_EQ(from_bytes.ToString(), from_tree.ToString());
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

}  // namespace
}  // namespace tc
