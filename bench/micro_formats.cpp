// Micro-benchmarks (google-benchmark): record encode/decode/compaction and
// field-access costs across formats. These isolate the per-record CPU costs
// underlying the figure benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "adm/printer.h"
#include "format/adm_format.h"
#include "format/bson_format.h"
#include "format/vector_format.h"
#include "query/field_access.h"
#include "workload/workload.h"

// Every heap allocation this binary makes, counted by the replacement
// operator new below so a benchmark can report allocations per operation.
// The replacements stay out of line: inlined, the compiler pairs their
// malloc() and free() with new and delete expressions and warns of a mismatch.
std::atomic<uint64_t> g_allocations{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tc {
namespace {

std::vector<AdmValue> SampleRecords(const std::string& workload, int n) {
  auto gen = MakeGenerator(workload, 7);
  std::vector<AdmValue> out;
  for (int i = 0; i < n; ++i) out.push_back(gen->NextRecord());
  return out;
}

void BM_EncodeVector(benchmark::State& state, const std::string& workload) {
  auto records = SampleRecords(workload, 64);
  DatasetType type = DatasetType::OpenWithPk("id");
  Buffer out;
  size_t i = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    out.clear();
    Status st = EncodeVectorRecord(records[i++ % records.size()], type, &out);
    TC_CHECK(st.ok());
    bytes += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_EncodeVector, twitter, std::string("twitter"));
BENCHMARK_CAPTURE(BM_EncodeVector, sensors, std::string("sensors"));

void BM_EncodeAdm(benchmark::State& state, const std::string& workload) {
  auto records = SampleRecords(workload, 64);
  DatasetType type = DatasetType::OpenWithPk("id");
  Buffer out;
  size_t i = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    out.clear();
    Status st = EncodeAdmRecord(records[i++ % records.size()], type, &out);
    TC_CHECK(st.ok());
    bytes += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_EncodeAdm, twitter, std::string("twitter"));
BENCHMARK_CAPTURE(BM_EncodeAdm, sensors, std::string("sensors"));

void BM_EncodeBson(benchmark::State& state, const std::string& workload) {
  auto records = SampleRecords(workload, 64);
  Buffer out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    Status st = EncodeBsonRecord(records[i++ % records.size()], &out);
    TC_CHECK(st.ok());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK_CAPTURE(BM_EncodeBson, twitter, std::string("twitter"));

void BM_InferAndCompact(benchmark::State& state, const std::string& workload) {
  auto records = SampleRecords(workload, 64);
  DatasetType type = DatasetType::OpenWithPk("id");
  std::vector<Buffer> raw(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    TC_CHECK(EncodeVectorRecord(records[i], type, &raw[i]).ok());
  }
  Schema schema;
  Buffer out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    const Buffer& b = raw[i++ % raw.size()];
    Status st = InferAndCompactVectorRecord(VectorRecordView(b.data(), b.size()),
                                            type, &schema, &out);
    TC_CHECK(st.ok());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK_CAPTURE(BM_InferAndCompact, twitter, std::string("twitter"));
BENCHMARK_CAPTURE(BM_InferAndCompact, wos, std::string("wos"));
BENCHMARK_CAPTURE(BM_InferAndCompact, sensors, std::string("sensors"));

void BM_InferOnly(benchmark::State& state, const std::string& workload) {
  auto records = SampleRecords(workload, 64);
  DatasetType type = DatasetType::OpenWithPk("id");
  std::vector<Buffer> raw(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    TC_CHECK(EncodeVectorRecord(records[i], type, &raw[i]).ok());
  }
  Schema schema;
  size_t i = 0;
  for (auto _ : state) {
    const Buffer& b = raw[i++ % raw.size()];
    Status st =
        InferVectorRecord(VectorRecordView(b.data(), b.size()), type, &schema);
    TC_CHECK(st.ok());
  }
}
BENCHMARK_CAPTURE(BM_InferOnly, twitter, std::string("twitter"));

// Point-lookup decode: one compacted record decoded into an AdmValue tree
// and destroyed per iteration, cycling over 64 records. `allocs_per_record`
// counts the heap allocations of both.
void BM_DecodeVector(benchmark::State& state, const std::string& workload) {
  auto records = SampleRecords(workload, 64);
  DatasetType type = DatasetType::OpenWithPk("id");
  Schema schema;
  std::vector<Buffer> compacted(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    Buffer raw;
    TC_CHECK(EncodeVectorRecord(records[i], type, &raw).ok());
    TC_CHECK(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()),
                                         type, &schema, &compacted[i])
                 .ok());
  }
  size_t i = 0;
  const uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const Buffer& b = compacted[i++ % compacted.size()];
    AdmValue out;
    Status st = DecodeVectorRecord(VectorRecordView(b.data(), b.size()), type,
                                   &schema, &out);
    TC_CHECK(st.ok());
    benchmark::DoNotOptimize(out);
  }
  const uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_record"] =
      static_cast<double>(allocs) / static_cast<double>(std::max<size_t>(i, 1));
}
BENCHMARK_CAPTURE(BM_DecodeVector, twitter, std::string("twitter"));
BENCHMARK_CAPTURE(BM_DecodeVector, wos, std::string("wos"));
BENCHMARK_CAPTURE(BM_DecodeVector, sensors, std::string("sensors"));

// Field access by position: the linear-scan cost of the vector-based format
// vs the offset navigation of the ADM format (micro version of Figure 22).
void BM_FieldAccess(benchmark::State& state, bool vector_format, int position) {
  DatasetType type = DatasetType::OpenWithPk("id");
  AdmValue rec = AdmValue::Object();
  rec.AddField("id", AdmValue::BigInt(1));
  for (int i = 0; i < 136; ++i) {
    char name[8];
    std::snprintf(name, sizeof(name), "w%03d", i);
    rec.AddField(name, AdmValue::BigInt(i));
  }
  Buffer bytes;
  TC_CHECK((vector_format ? EncodeVectorRecord(rec, type, &bytes)
                          : EncodeAdmRecord(rec, type, &bytes))
               .ok());
  char target[8];
  std::snprintf(target, sizeof(target), "w%03d", position);
  std::vector<FieldPath> paths = {FieldPath::Parse(target)};
  std::vector<AdmValue> out;
  for (auto _ : state) {
    Status st = vector_format
                    ? GetValuesVector(VectorRecordView(bytes.data(), bytes.size()),
                                      type, nullptr, paths, &out)
                    : GetValuesAdm(bytes.data(), bytes.size(), type, paths, &out);
    TC_CHECK(st.ok());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK_CAPTURE(BM_FieldAccess, vector_pos1, true, 0);
BENCHMARK_CAPTURE(BM_FieldAccess, vector_pos68, true, 67);
BENCHMARK_CAPTURE(BM_FieldAccess, vector_pos135, true, 135);
BENCHMARK_CAPTURE(BM_FieldAccess, adm_pos1, false, 0);
BENCHMARK_CAPTURE(BM_FieldAccess, adm_pos135, false, 135);

// Consolidated vs unconsolidated multi-path access (micro Figure 23).
void BM_GetValues3Paths(benchmark::State& state, bool consolidate) {
  auto records = SampleRecords("sensors", 8);
  DatasetType type = DatasetType::OpenWithPk("id");
  Buffer bytes;
  TC_CHECK(EncodeVectorRecord(records[0], type, &bytes).ok());
  std::vector<FieldPath> paths = {FieldPath::Parse("sensor_id"),
                                  FieldPath::Parse("readings[*].temp"),
                                  FieldPath::Parse("report_time")};
  std::vector<AdmValue> out;
  VectorRecordView view(bytes.data(), bytes.size());
  for (auto _ : state) {
    Status st = consolidate
                    ? GetValuesVector(view, type, nullptr, paths, &out)
                    : GetValuesVectorUnconsolidated(view, type, nullptr, paths, &out);
    TC_CHECK(st.ok());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK_CAPTURE(BM_GetValues3Paths, consolidated, true);
BENCHMARK_CAPTURE(BM_GetValues3Paths, unconsolidated, false);

}  // namespace
}  // namespace tc

BENCHMARK_MAIN();
