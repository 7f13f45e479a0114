// Micro-benchmarks for the homegrown page compressors on realistic page
// contents, the data that page-level compression (§2.4) actually sees:
// packed ADM records (the open and closed modes) and compacted vector-format
// records (what kInferred flushes and merges write), at the snappy-like
// tier every component write uses and the heavy merge-recompression tier.
#include <benchmark/benchmark.h>

#include "format/adm_format.h"
#include "format/vector_format.h"
#include "storage/compressor.h"
#include "workload/workload.h"

namespace tc {
namespace {

enum class PageFormat { kAdm, kCompactedVector };

Buffer MakePage(const std::string& workload, PageFormat format, size_t page_size) {
  auto gen = MakeGenerator(workload, 3);
  DatasetType type = DatasetType::OpenWithPk("id");
  Schema schema;
  Buffer page;
  Buffer raw;
  while (page.size() < page_size) {
    AdmValue rec = gen->NextRecord();
    if (format == PageFormat::kAdm) {
      TC_CHECK(EncodeAdmRecord(rec, type, &page).ok());
      continue;
    }
    raw.clear();
    TC_CHECK(EncodeVectorRecord(rec, type, &raw).ok());
    TC_CHECK(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()), type,
                                         &schema, &page)
                 .ok());
  }
  page.resize(page_size);
  return page;
}

void BM_Compress(benchmark::State& state, const std::string& workload,
                 PageFormat format, CompressionKind kind) {
  size_t page_size = static_cast<size_t>(state.range(0));
  Buffer page = MakePage(workload, format, page_size);
  auto codec = GetCompressor(kind);
  Buffer out;
  for (auto _ : state) {
    out.clear();
    Status st = codec->Compress(page.data(), page.size(), &out);
    TC_CHECK(st.ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page_size));
  state.counters["ratio"] =
      static_cast<double>(page.size()) / static_cast<double>(out.size());
}
BENCHMARK_CAPTURE(BM_Compress, twitter, std::string("twitter"), PageFormat::kAdm,
                  CompressionKind::kSnappy)
    ->Arg(4096)->Arg(32768)->Arg(131072);
BENCHMARK_CAPTURE(BM_Compress, sensors, std::string("sensors"), PageFormat::kAdm,
                  CompressionKind::kSnappy)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Compress, twitter_vector, std::string("twitter"),
                  PageFormat::kCompactedVector, CompressionKind::kSnappy)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Compress, twitter_heavy, std::string("twitter"), PageFormat::kAdm,
                  CompressionKind::kHeavy)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Compress, twitter_vector_heavy, std::string("twitter"),
                  PageFormat::kCompactedVector, CompressionKind::kHeavy)
    ->Arg(32768);

void BM_Decompress(benchmark::State& state, const std::string& workload) {
  size_t page_size = static_cast<size_t>(state.range(0));
  Buffer page = MakePage(workload, PageFormat::kAdm, page_size);
  auto codec = GetCompressor(CompressionKind::kSnappy);
  Buffer compressed;
  TC_CHECK(codec->Compress(page.data(), page.size(), &compressed).ok());
  Buffer out(page_size);
  size_t n = 0;
  for (auto _ : state) {
    Status st = codec->Decompress(compressed.data(), compressed.size(), out.data(),
                                  out.size(), &n);
    TC_CHECK(st.ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page_size));
}
BENCHMARK_CAPTURE(BM_Decompress, twitter, std::string("twitter"))
    ->Arg(4096)->Arg(32768)->Arg(131072);

}  // namespace
}  // namespace tc

BENCHMARK_MAIN();
