#include <gtest/gtest.h>

#include "adm/parser.h"
#include "schema/schema_io.h"
#include "schema/schema_tree.h"
#include "tests/test_util.h"

namespace tc {
namespace {

AdmValue R(const std::string& text) { return ParseAdm(text).ValueOrDie(); }

DatasetType PkType() { return DatasetType::OpenWithPk("id"); }

using testutil::CanonicalSchemaString;
using testutil::EncodeAndApply;
using testutil::SchemaOp;

TEST(Dictionary, AssignsStableIds) {
  FieldNameDictionary d;
  EXPECT_EQ(d.GetOrAdd("name"), 1u);
  EXPECT_EQ(d.GetOrAdd("age"), 2u);
  EXPECT_EQ(d.GetOrAdd("name"), 1u);
  EXPECT_EQ(d.Lookup("age"), 2u);
  EXPECT_EQ(d.Lookup("zzz"), FieldNameDictionary::kInvalidId);
  EXPECT_EQ(d.NameOf(1), "name");
  EXPECT_EQ(d.size(), 2u);
}

TEST(Dictionary, SerializeRoundTrip) {
  FieldNameDictionary d;
  d.GetOrAdd("alpha");
  d.GetOrAdd("beta");
  d.GetOrAdd("");
  Buffer buf;
  d.Serialize(&buf);
  size_t consumed = 0;
  auto r = FieldNameDictionary::Deserialize(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(consumed, buf.size());
  EXPECT_TRUE(r.value() == d);
}

TEST(Inference, PaperFigure9Flow) {
  // Figure 9a: two records {id, name, age:int} -> name:string, age:int.
  DatasetType type = PkType();
  Schema schema;
  ASSERT_TRUE(
      EncodeAndApply(&schema, R(R"({"id": 0, "name": "Kim", "age": 26})"), type).ok());
  ASSERT_TRUE(
      EncodeAndApply(&schema, R(R"({"id": 1, "name": "John", "age": 22})"), type).ok());
  EXPECT_EQ(schema.ToString(), "{name:string(2), age:bigint(2)}(2)");

  // Figure 9b: age missing, then age:string -> age becomes union(int,string).
  ASSERT_TRUE(EncodeAndApply(&schema, R(R"({"id": 2, "name": "Ann"})"), type).ok());
  ASSERT_TRUE(
      EncodeAndApply(&schema, R(R"({"id": 3, "name": "Bob", "age": "old"})"), type).ok());
  EXPECT_EQ(schema.ToString(),
            "{name:string(4), age:union(3)<bigint(2)|string(1)>}(4)");
}

TEST(Inference, DeclaredFieldsExcluded) {
  DatasetType type = PkType();
  Schema schema;
  ASSERT_TRUE(EncodeAndApply(&schema, R(R"({"id": 7, "x": 1})"), type).ok());
  // "id" must not appear in the inferred schema (paper §3.1.1).
  EXPECT_EQ(schema.ToString(), "{x:bigint(1)}(1)");
}

TEST(Inference, NestedCountersMatchPaperFigure10) {
  DatasetType type = PkType();
  Schema schema;
  ASSERT_TRUE(EncodeAndApply(&schema, R(R"({
    "id": 1, "name": "Ann",
    "dependents": {{ {"name": "Bob", "age": 6}, {"name": "Carol", "age": 10} }},
    "employment_date": date("2018-09-20"),
    "branch_location": point(24.0, -56.12),
    "working_shifts": [[8, 16], [9, 17], [10, 18], "on_call"]
  })"),
                             type)
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(EncodeAndApply(&schema,
                               R(R"({"id": )" + std::to_string(10 + i) +
                                 R"(, "name": "n"})"),
                               type)
                    .ok());
  }
  // Counters from Figure 10b: name(6), dependents(1) with object(2) items
  // whose fields name(2)/age(2); working_shifts(1) items union(4) of
  // array(3)<int(9)> and string(1).
  const SchemaNode* root = schema.root();
  EXPECT_EQ(root->count(), 6u);
  const SchemaNode* name = root->FindField(schema.dict().Lookup("name"));
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->count(), 6u);
  const SchemaNode* deps = root->FindField(schema.dict().Lookup("dependents"));
  ASSERT_NE(deps, nullptr);
  EXPECT_EQ(deps->tag(), AdmTag::kMultiset);
  EXPECT_EQ(deps->count(), 1u);
  EXPECT_EQ(deps->item()->count(), 2u);
  const SchemaNode* shifts =
      root->FindField(schema.dict().Lookup("working_shifts"));
  ASSERT_NE(shifts, nullptr);
  const SchemaNode* item = shifts->item();
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->tag(), AdmTag::kUnion);
  EXPECT_EQ(item->count(), 4u);
  const SchemaNode* arr = item->FindVariant(AdmTag::kArray);
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(arr->count(), 3u);
  EXPECT_EQ(arr->item()->count(), 6u);  // six ints across the three sub-arrays
  const SchemaNode* str = item->FindVariant(AdmTag::kString);
  ASSERT_NE(str, nullptr);
  EXPECT_EQ(str->count(), 1u);
}

TEST(AntiSchema, DeleteShrinksSchemaLikeFigure11) {
  DatasetType type = PkType();
  Schema schema;
  AdmValue big = R(R"({
    "id": 1, "name": "Ann",
    "dependents": {{ {"name": "Bob", "age": 6} }},
    "branch_location": point(1.0, 2.0)
  })");
  ASSERT_TRUE(EncodeAndApply(&schema, big, type).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(EncodeAndApply(&schema,
                               R(R"({"id": )" + std::to_string(10 + i) +
                                 R"(, "name": "x"})"),
                               type)
                    .ok());
  }
  // Deleting the rich record leaves only name(5) (paper Figure 11).
  ASSERT_TRUE(EncodeAndApply(&schema, big, type, SchemaOp::kRemove).ok());
  EXPECT_EQ(schema.ToString(), "{name:string(5)}(5)");
}

TEST(AntiSchema, UnionCollapsesWhenVariantDies) {
  DatasetType type = PkType();
  Schema schema;
  AdmValue int_rec = R(R"({"id": 1, "age": 26})");
  AdmValue str_rec = R(R"({"id": 2, "age": "old"})");
  ASSERT_TRUE(EncodeAndApply(&schema, int_rec, type).ok());
  ASSERT_TRUE(EncodeAndApply(&schema, str_rec, type).ok());
  EXPECT_EQ(schema.ToString(), "{age:union(2)<bigint(1)|string(1)>}(2)");
  // Deleting the only string-typed age collapses union(int,string) -> int
  // (paper §3.2.2's motivating example).
  ASSERT_TRUE(EncodeAndApply(&schema, str_rec, type, SchemaOp::kRemove).ok());
  EXPECT_EQ(schema.ToString(), "{age:bigint(1)}(1)");
  ASSERT_TRUE(EncodeAndApply(&schema, int_rec, type, SchemaOp::kRemove).ok());
  EXPECT_EQ(schema.ToString(), "{}(0)");
}

TEST(AntiSchema, MismatchIsCorruption) {
  DatasetType type = PkType();
  Schema schema;
  ASSERT_TRUE(EncodeAndApply(&schema, R(R"({"id": 1, "a": 5})"), type).ok());
  Status st =
      EncodeAndApply(&schema, R(R"({"id": 1, "b": 5})"), type, SchemaOp::kRemove);
  EXPECT_TRUE(st.IsCorruption());
  st = EncodeAndApply(&schema, R(R"({"id": 1, "a": "str"})"), type, SchemaOp::kRemove);
  EXPECT_TRUE(st.IsCorruption());
}

TEST(AntiSchema, PropertyAddRemoveReturnsToEmpty) {
  DatasetType type = PkType();
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    Schema schema;
    std::vector<AdmValue> records;
    for (int i = 0; i < 30; ++i) {
      records.push_back(testutil::RandomRecord(&rng, i));
      ASSERT_TRUE(EncodeAndApply(&schema, records.back(), type).ok());
    }
    // Remove in random order; schema must return to empty.
    while (!records.empty()) {
      size_t i = rng.Uniform(records.size());
      ASSERT_TRUE(EncodeAndApply(&schema, records[i], type, SchemaOp::kRemove).ok());
      records.erase(records.begin() + static_cast<ptrdiff_t>(i));
    }
    EXPECT_EQ(schema.ToString(), "{}(0)");
    EXPECT_EQ(schema.root()->SubtreeSize(), 1u);
  }
}

TEST(AntiSchema, PartialRemovalMatchesFreshInference) {
  // Removing a subset must leave the same structure as inferring the rest.
  DatasetType type = PkType();
  Rng rng(7);
  std::vector<AdmValue> records;
  for (int i = 0; i < 40; ++i) records.push_back(testutil::RandomRecord(&rng, i));

  Schema full;
  for (const auto& r : records) {
    ASSERT_TRUE(EncodeAndApply(&full, r, type).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(EncodeAndApply(&full, records[static_cast<size_t>(i)], type,
                               SchemaOp::kRemove)
                    .ok());
  }
  Schema fresh;
  for (int i = 20; i < 40; ++i) {
    ASSERT_TRUE(EncodeAndApply(&fresh, records[static_cast<size_t>(i)], type).ok());
  }
  // Tree structure and counters agree up to ordering: union variants and
  // object fields are kept in first-seen order, which differs between the
  // remove-then-reuse history and fresh inference. Compare canonically.
  EXPECT_EQ(CanonicalSchemaString(full), CanonicalSchemaString(fresh));
}

TEST(SchemaIo, SerializeRoundTrip) {
  DatasetType type = PkType();
  Rng rng(5);
  Schema schema;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(EncodeAndApply(&schema, testutil::RandomRecord(&rng, i), type).ok());
  }
  Buffer blob;
  SerializeSchema(schema, &blob);
  size_t consumed = 0;
  auto restored = DeserializeSchema(blob.data(), blob.size(), &consumed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(consumed, blob.size());
  EXPECT_TRUE(restored.value().Equals(schema));
  EXPECT_EQ(restored.value().ToString(), schema.ToString());
  EXPECT_EQ(restored.value().version(), schema.version());
}

TEST(SchemaIo, CorruptionDetected) {
  Schema schema;
  DatasetType type = PkType();
  ASSERT_TRUE(EncodeAndApply(&schema, R(R"({"id":1,"a":2})"), type).ok());
  Buffer blob;
  SerializeSchema(schema, &blob);
  size_t consumed;
  // Bad magic.
  Buffer bad = blob;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeSchema(bad.data(), bad.size(), &consumed).ok());
  // Truncation.
  EXPECT_FALSE(DeserializeSchema(blob.data(), blob.size() / 2, &consumed).ok());
}

TEST(SchemaTree, CloneIsDeepAndEqual) {
  DatasetType type = PkType();
  Schema schema;
  ASSERT_TRUE(
      EncodeAndApply(&schema, R(R"({"id":1,"a":{"b":[1,"x"]},"c":2.5})"), type).ok());
  Schema copy = schema.Clone();
  EXPECT_TRUE(copy.Equals(schema));
  // Mutating the copy must not affect the original.
  ASSERT_TRUE(EncodeAndApply(&copy, R(R"({"id":2,"zzz":1})"), type).ok());
  EXPECT_FALSE(copy.Equals(schema));
}

}  // namespace
}  // namespace tc
