#include <gtest/gtest.h>

#include "adm/parser.h"
#include "adm/printer.h"
#include "core/tuple_compactor.h"
#include "tests/test_util.h"

namespace tc {
namespace {

AdmValue R(const std::string& text) { return ParseAdm(text).ValueOrDie(); }

struct CompactorFixture {
  DatasetType type = DatasetType::OpenWithPk("id");
  TupleCompactor compactor{&type};

  Buffer EncodeRaw(const AdmValue& rec) {
    Buffer b;
    Status st = EncodeVectorRecord(rec, type, &b);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return b;
  }

  Buffer FlushOne(const AdmValue& rec) {
    Buffer raw = EncodeRaw(rec);
    Buffer out;
    bool rewritten = false;
    Status st = compactor.Transform(
        std::string_view(reinterpret_cast<const char*>(raw.data()), raw.size()),
        &out, &rewritten);
    EXPECT_TRUE(rewritten);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  }
};

TEST(TupleCompactor, Figure9FlushFlow) {
  CompactorFixture fx;
  (void)fx.FlushOne(R(R"({"id": 0, "name": "Kim", "age": 26})"));
  (void)fx.FlushOne(R(R"({"id": 1, "name": "John", "age": 22})"));
  Buffer s0;
  ASSERT_TRUE(fx.compactor.SchemaBlob(&s0).ok());
  EXPECT_EQ(fx.compactor.Snapshot().ToString(),
            "{name:string(2), age:bigint(2)}(2)");

  // Second flush: age widens to union(int, string) — Figure 9b.
  (void)fx.FlushOne(R(R"({"id": 2, "name": "Ann"})"));
  (void)fx.FlushOne(R(R"({"id": 3, "name": "Bob", "age": "old"})"));
  Buffer s1;
  ASSERT_TRUE(fx.compactor.SchemaBlob(&s1).ok());
  EXPECT_EQ(fx.compactor.Snapshot().ToString(),
            "{name:string(4), age:union(3)<bigint(2)|string(1)>}(4)");
  EXPECT_GT(s1.size(), 0u);
  EXPECT_NE(s0, s1);
}

TEST(TupleCompactor, CompactedRecordsDecodeUnderLaterSchemas) {
  CompactorFixture fx;
  AdmValue rec = R(R"({"id": 7, "a": 1, "b": "x"})");
  Buffer compacted = fx.FlushOne(rec);
  // Evolve the schema with new fields.
  (void)fx.FlushOne(R(R"({"id": 8, "c": [1, 2], "d": {"e": true}})"));
  Schema later = fx.compactor.Snapshot();
  AdmValue out;
  ASSERT_TRUE(DecodeVectorRecord(
                  VectorRecordView(compacted.data(), compacted.size()), fx.type,
                  &later, &out)
                  .ok());
  EXPECT_EQ(out, rec);  // IDs are stable across schema evolution
}

TEST(TupleCompactor, AntiSchemaOnRemovedVersion) {
  CompactorFixture fx;
  AdmValue rec = R(R"({"id": 1, "only_here": point(1.0, 2.0), "shared": 5})");
  Buffer compacted = fx.FlushOne(rec);
  (void)fx.FlushOne(R(R"({"id": 2, "shared": 6})"));
  EXPECT_EQ(fx.compactor.Snapshot().ToString(),
            "{only_here:point(1), shared:bigint(2)}(2)");
  // The record is upserted: the flush processes its old version's anti-schema.
  ASSERT_TRUE(fx.compactor
                  .OnRemovedVersion(std::string_view(
                      reinterpret_cast<const char*>(compacted.data()),
                      compacted.size()))
                  .ok());
  EXPECT_EQ(fx.compactor.Snapshot().ToString(), "{shared:bigint(1)}(1)");
}

TEST(TupleCompactor, FailedRemovedVersionLeavesSchemaUnchanged) {
  // An old version the live schema does not cover (here: a field it never
  // saw, after fields it did) fails the flush's anti-schema step without
  // giving back the occurrences of the fields before the mismatch.
  CompactorFixture fx;
  (void)fx.FlushOne(R(R"({"id": 1, "a": 1, "x": [1]})"));
  const Schema before = fx.compactor.Snapshot();
  for (const char* old : {R"({"id": 1, "a": 1, "b": 2})",
                          R"({"id": 1, "a": 1, "x": [1, 2, 3]})"}) {
    SCOPED_TRACE(old);
    Buffer raw = fx.EncodeRaw(R(old));
    Status st = fx.compactor.OnRemovedVersion(
        std::string_view(reinterpret_cast<const char*>(raw.data()), raw.size()));
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_TRUE(fx.compactor.Snapshot().Equals(before))
        << fx.compactor.Snapshot().ToString();
  }
}

TEST(TupleCompactor, LoadSchemaRestoresState) {
  CompactorFixture fx;
  (void)fx.FlushOne(R(R"({"id": 1, "x": 1.5, "y": [true]})"));
  Buffer blob;
  ASSERT_TRUE(fx.compactor.SchemaBlob(&blob).ok());

  DatasetType type2 = DatasetType::OpenWithPk("id");
  TupleCompactor restored(&type2);
  ASSERT_TRUE(restored.LoadSchema(blob).ok());
  EXPECT_EQ(restored.Snapshot().ToString(), fx.compactor.Snapshot().ToString());
  // And it keeps compacting consistently: same record, same dictionary IDs.
  Buffer raw;
  ASSERT_TRUE(EncodeVectorRecord(R(R"({"id": 2, "x": 2.5, "y": [false]})"), type2,
                                 &raw)
                  .ok());
  Buffer out;
  ASSERT_TRUE(restored
                  .Transform(std::string_view(
                                 reinterpret_cast<const char*>(raw.data()),
                                 raw.size()),
                             &out, nullptr)
                  .ok());
  EXPECT_EQ(restored.Snapshot().ToString(), "{x:double(2), y:array(2)<boolean(2)>}(2)");
}

TEST(TupleCompactor, CompactionIsLossless) {
  CompactorFixture fx;
  Rng rng(161);
  for (int i = 0; i < 150; ++i) {
    AdmValue rec = testutil::RandomRecord(&rng, i, 4);
    Buffer compacted = fx.FlushOne(rec);
    Schema snap = fx.compactor.Snapshot();
    AdmValue out;
    ASSERT_TRUE(DecodeVectorRecord(
                    VectorRecordView(compacted.data(), compacted.size()), fx.type,
                    &snap, &out)
                    .ok());
    EXPECT_EQ(PrintAdm(out), PrintAdm(rec)) << i;
  }
}

}  // namespace
}  // namespace tc
