// Always-on corpus replay: every checked-in fuzz input runs through every fuzz
// target under the normal test harness, so the parser, schema, path-walk and
// page-codec invariants the fuzzers enforce are exercised in every CI run — clang and
// libFuzzer are only needed to EXTEND the corpus, not to check it.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "format/vector_format.h"
#include "fuzz/fuzz_targets.h"
#include "storage/compressor.h"

namespace tc {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> CorpusFiles() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(TC_FUZZ_CORPUS_DIR)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<uint8_t> ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(FuzzCorpusTest, CorpusIsCheckedIn) {
  // An empty corpus would turn the replay tests into silent no-ops.
  EXPECT_GE(CorpusFiles().size(), 15u);
}

TEST(FuzzCorpusTest, ParseAdmReplaysClean) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    std::vector<uint8_t> bytes = ReadAll(path);
    // The target TC_CHECK-aborts on an invariant violation; returning is the
    // pass condition.
    EXPECT_EQ(0, FuzzParseAdm(bytes.data(), bytes.size()));
  }
}

TEST(FuzzCorpusTest, DeserializeSchemaReplaysClean) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    std::vector<uint8_t> bytes = ReadAll(path);
    EXPECT_EQ(0, FuzzDeserializeSchema(bytes.data(), bytes.size()));
  }
}

TEST(FuzzCorpusTest, VectorPathWalkReplaysClean) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    std::vector<uint8_t> bytes = ReadAll(path);
    EXPECT_EQ(0, FuzzVectorPathWalk(bytes.data(), bytes.size()));
  }
}

TEST(FuzzCorpusTest, VectorPathWalkSeedsDecode) {
  // The walks are checked against the decoded record only when the decoder
  // accepts it, so every vector-encoded seed must decode under its context.
  const auto& contexts = PathWalkFuzzContexts();
  size_t seeds = 0;
  size_t shape_breaks = 0;
  for (const auto& path : CorpusFiles()) {
    const std::string name = path.filename().string();
    if (name.rfind("vb", 0) != 0) continue;
    SCOPED_TRACE(path.string());
    std::vector<uint8_t> bytes = ReadAll(path);
    ASSERT_GE(bytes.size(), 2u);
    const PathWalkFuzzContext& ctx = contexts[bytes[0] % contexts.size()];
    AdmValue record;
    EXPECT_TRUE(DecodeVectorRecord(VectorRecordView(bytes.data() + 1, bytes.size() - 1),
                                   ctx.type, &ctx.schema, &record)
                    .ok());
    ++(name.find("_break_") != std::string::npos ? shape_breaks : seeds);
  }
  // Two records per context, plain and compacted, plus the duplicate-name
  // records.
  EXPECT_EQ(seeds, 4 * contexts.size() + 2);
  // Sensors records whose readings break the shape runs seven ways: compacted
  // under the open type; under the closed type plain, and compacted where the
  // closed schema's dictionary holds the names (not for the extra and renamed
  // sensor_id fields).
  EXPECT_EQ(shape_breaks, 7u + 7u + 5u);
}

TEST(FuzzCorpusTest, PageCodecReplaysClean) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    std::vector<uint8_t> bytes = ReadAll(path);
    EXPECT_EQ(0, FuzzPageCodec(bytes.data(), bytes.size()));
  }
}

TEST(FuzzCorpusTest, PageCodecSeedsDecode) {
  // The page seeds must decode, or the codec target only ever sees streams
  // its decoders reject at the first byte.
  size_t seeds = 0;
  for (const auto& path : CorpusFiles()) {
    const std::string name = path.filename().string();
    if (name.rfind("page_", 0) != 0) continue;
    SCOPED_TRACE(name);
    const CompressionKind kind = name.rfind("page_heavy_", 0) == 0
                                     ? CompressionKind::kHeavy
                                     : CompressionKind::kSnappy;
    std::vector<uint8_t> bytes = ReadAll(path);
    std::vector<uint8_t> page(2048);
    size_t n = 0;
    EXPECT_TRUE(GetCompressor(kind)
                    ->Decompress(bytes.data(), bytes.size(), page.data(), page.size(), &n)
                    .ok());
    EXPECT_EQ(n, page.size());
    ++seeds;
  }
  EXPECT_EQ(seeds, 6u);  // three workloads at two tiers
}

TEST(FuzzCorpusTest, DeepNestingRejectedCleanly) {
  // The depth guard must kick in long before the stack would overflow.
  std::string deep(100000, '[');
  EXPECT_EQ(0, FuzzParseAdm(reinterpret_cast<const uint8_t*>(deep.data()),
                            deep.size()));
}

TEST(FuzzCorpusTest, OverflowingDoubleRejectedCleanly) {
  std::string text = "{\"x\": 1e999}";
  EXPECT_EQ(0, FuzzParseAdm(reinterpret_cast<const uint8_t*>(text.data()),
                            text.size()));
}

}  // namespace
}  // namespace tc
