// Shared helpers for the test suite: random ADM value generation for property
// tests, schema inference and anti-schema over encoded records, the
// decoded-record path oracle and an in-memory dataset fixture.
#ifndef TC_TESTS_TEST_UTIL_H_
#define TC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "common/rng.h"
#include "core/dataset.h"
#include "format/vector_format.h"
#include "query/field_access.h"
#include "storage/buffer_cache.h"
#include "storage/file.h"

namespace tc {
namespace testutil {

/// 64-bit FNV-1a over `n` bytes: the golden-bytes tests pin encoder and
/// compressor output by this hash.
inline uint64_t Fnv1a(const uint8_t* p, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}
inline uint64_t Fnv1a(const Buffer& b) { return Fnv1a(b.data(), b.size()); }

/// Random scalar value drawn from the full set of ADM scalar types.
inline AdmValue RandomScalar(Rng* rng) {
  switch (rng->Uniform(12)) {
    case 0: return AdmValue::Null();
    case 1: return AdmValue::Boolean(rng->Bernoulli(0.5));
    case 2: return AdmValue::TinyInt(static_cast<int8_t>(rng->Range(-128, 127)));
    case 3: return AdmValue::SmallInt(static_cast<int16_t>(rng->Range(-32768, 32767)));
    case 4: return AdmValue::Int(static_cast<int32_t>(rng->Next()));
    case 5: return AdmValue::BigInt(static_cast<int64_t>(rng->Next()));
    case 6: return AdmValue::Double(rng->NextDouble() * 1e6 - 5e5);
    case 7: return AdmValue::String(rng->AlphaString(rng->Uniform(24)));
    case 8: return AdmValue::Date(static_cast<int32_t>(rng->Range(-10000, 20000)));
    case 9: return AdmValue::DateTime(static_cast<int64_t>(rng->Next() % (1ll << 41)));
    case 10: return AdmValue::Point(rng->NextDouble() * 360 - 180,
                                    rng->NextDouble() * 180 - 90);
    default: return AdmValue::Duration(static_cast<int64_t>(rng->Uniform(1u << 30)));
  }
}

/// Random nested value with bounded depth/size.
inline AdmValue RandomValue(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.55)) return RandomScalar(rng);
  switch (rng->Uniform(3)) {
    case 0: {
      AdmValue obj = AdmValue::Object();
      size_t n = rng->Uniform(5);
      for (size_t i = 0; i < n; ++i) {
        obj.AddField("f" + std::to_string(i) + "_" + rng->AlphaString(3),
                     RandomValue(rng, depth - 1));
      }
      return obj;
    }
    case 1: {
      AdmValue arr = AdmValue::Array();
      size_t n = rng->Uniform(5);
      for (size_t i = 0; i < n; ++i) arr.Append(RandomValue(rng, depth - 1));
      return arr;
    }
    default: {
      AdmValue ms = AdmValue::Multiset();
      size_t n = rng->Uniform(4);
      for (size_t i = 0; i < n; ++i) ms.Append(RandomValue(rng, depth - 1));
      return ms;
    }
  }
}

/// Random record: object with a declared bigint "id" plus random fields.
inline AdmValue RandomRecord(Rng* rng, int64_t id, int depth = 4) {
  AdmValue rec = AdmValue::Object();
  rec.AddField("id", AdmValue::BigInt(id));
  size_t n = 1 + rng->Uniform(6);
  // Field names are unique within the record but recur across records, so
  // schema inference exercises both merging and union widening.
  for (size_t i = 0; i < n; ++i) {
    rec.AddField("f" + std::to_string(i), RandomValue(rng, depth - 1));
  }
  return rec;
}

/// How EncodeAndApply folds a record into a schema.
enum class SchemaOp {
  kInfer,            // InferVectorRecord, as a flush does
  kRemove,           // RemoveVectorRecord on the uncompacted (memtable) bytes
  kRemoveCompacted,  // RemoveVectorRecord on the compacted (on-disk) bytes
};

/// Encodes `record` under `type` and applies `op` to `schema`. The compacted
/// bytes are compacted against a clone of `schema`, whose dictionary already
/// holds the names of every record inferred into it.
inline Status EncodeAndApply(Schema* schema, const AdmValue& record,
                             const DatasetType& type, SchemaOp op = SchemaOp::kInfer) {
  Buffer vb;
  TC_RETURN_IF_ERROR(EncodeVectorRecord(record, type, &vb));
  if (op == SchemaOp::kInfer) {
    return InferVectorRecord(VectorRecordView(vb.data(), vb.size()), type, schema);
  }
  if (op == SchemaOp::kRemoveCompacted) {
    Schema names = schema->Clone();
    Buffer compacted;
    TC_RETURN_IF_ERROR(InferAndCompactVectorRecord(VectorRecordView(vb.data(), vb.size()),
                                                   type, &names, &compacted));
    vb.swap(compacted);
  }
  return RemoveVectorRecord(VectorRecordView(vb.data(), vb.size()), type, schema);
}

/// Order-insensitive rendering of `n`: object fields sorted by name, union
/// variants sorted by rendered form.
inline void RenderCanonical(const SchemaNode* n, const FieldNameDictionary& dict,
                            std::string* out) {
  if (n == nullptr) {
    *out += "<null>";
    return;
  }
  switch (n->tag()) {
    case AdmTag::kObject: {
      std::vector<std::string> fields;
      for (size_t i = 0; i < n->field_count(); ++i) {
        std::string f = dict.NameOf(n->field_id(i)) + ":";
        RenderCanonical(n->field_node(i), dict, &f);
        fields.push_back(std::move(f));
      }
      std::sort(fields.begin(), fields.end());
      *out += "{";
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += fields[i];
      }
      *out += "}(" + std::to_string(n->count()) + ")";
      return;
    }
    case AdmTag::kArray:
    case AdmTag::kMultiset:
      *out += AdmTagName(n->tag());
      *out += "(" + std::to_string(n->count()) + ")<";
      RenderCanonical(n->item(), dict, out);
      *out += ">";
      return;
    case AdmTag::kUnion: {
      std::vector<std::string> variants;
      for (size_t i = 0; i < n->variant_count(); ++i) {
        std::string v;
        RenderCanonical(n->variant(i), dict, &v);
        variants.push_back(std::move(v));
      }
      std::sort(variants.begin(), variants.end());
      *out += "union(" + std::to_string(n->count()) + ")<";
      for (size_t i = 0; i < variants.size(); ++i) {
        if (i > 0) *out += "|";
        *out += variants[i];
      }
      *out += ">";
      return;
    }
    default:
      *out += AdmTagName(n->tag());
      *out += "(" + std::to_string(n->count()) + ")";
  }
}

/// The schema tree rendered order-insensitively: schemas whose fields or
/// union variants were first seen in another order render the same.
inline std::string CanonicalSchemaString(const Schema& s) {
  std::string out;
  RenderCanonical(s.root(), s.dict(), &out);
  return out;
}

/// The decoded-record oracle of the packed-vector path walks: every path of
/// `paths` navigated (NavigateAdmValue) over `view` decoded with
/// DecodeVectorRecord.
inline Status DecodedPathValues(const VectorRecordView& view, const DatasetType& type,
                                const Schema* schema,
                                const std::vector<FieldPath>& paths,
                                std::vector<AdmValue>* out) {
  AdmValue record;
  TC_RETURN_IF_ERROR(DecodeVectorRecord(view, type, schema, &record));
  out->clear();
  for (const FieldPath& p : paths) out->push_back(NavigateAdmValue(record, p.steps));
  return Status::OK();
}

/// In-memory dataset fixture: owns the filesystem and buffer cache.
struct DatasetFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  std::unique_ptr<BufferCache> cache;
  std::unique_ptr<Dataset> dataset;

  Status Open(DatasetOptions options, size_t partitions = 1) {
    cache = std::make_unique<BufferCache>(options.page_size, 4096);
    options.fs = fs;
    options.cache = cache.get();
    options.dir = "mem";
    TC_ASSIGN_OR_RETURN(dataset, Dataset::Open(std::move(options), partitions));
    return Status::OK();
  }

  /// Closes and re-opens the dataset against the same filesystem contents —
  /// simulates a process restart (recovery path).
  Status Reopen(DatasetOptions options, size_t partitions = 1) {
    dataset.reset();
    options.fs = fs;
    options.cache = cache.get();
    options.dir = "mem";
    TC_ASSIGN_OR_RETURN(dataset, Dataset::Open(std::move(options), partitions));
    return Status::OK();
  }
};

/// Default small-memtable options so tests exercise flush/merge paths.
inline DatasetOptions SmallOptions(SchemaMode mode, size_t memtable_kb = 64) {
  DatasetOptions o;
  o.mode = mode;
  // Large enough for the biggest workload record in the fattest (open ADM)
  // encoding, small enough that multi-record tests build multi-page trees.
  o.page_size = 16384;
  o.memtable_budget_bytes = memtable_kb * 1024;
  o.merge.max_mergeable_bytes = 1 << 20;
  o.merge.max_tolerance_count = 4;
  o.wal_sync_every = 0;
  return o;
}

}  // namespace testutil
}  // namespace tc

#endif  // TC_TESTS_TEST_UTIL_H_
