// Shared helpers for the test suite: random ADM value generation for property
// tests and an in-memory dataset fixture.
#ifndef TC_TESTS_TEST_UTIL_H_
#define TC_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>

#include "adm/value.h"
#include "common/rng.h"
#include "core/dataset.h"
#include "storage/buffer_cache.h"
#include "storage/file.h"

namespace tc {
namespace testutil {

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
  o.merge = MergePolicyConfig();  // env-independent: tests pin the schedule
  o.merge.max_mergeable_bytes = 1 << 20;
  o.merge.max_tolerance_count = 4;
  // Pin the merge-pipeline knobs too (their defaults read TC_MERGE_* env).
  o.merge_transform = true;
  o.merge_recompress = CompressionKind::kNone;
  o.wal_sync_every = 0;
  return o;
}

}  // namespace testutil
}  // namespace tc

#endif  // TC_TESTS_TEST_UTIL_H_
