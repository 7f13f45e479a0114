#include <gtest/gtest.h>

#include <cctype>

#include "common/rng.h"
#include "storage/compressor.h"

namespace tc {
namespace {

Buffer RoundTrip(const Compressor& c, const Buffer& input) {
  Buffer compressed;
  EXPECT_TRUE(c.Compress(input.data(), input.size(), &compressed).ok());
  Buffer output(input.size() + 16);
  size_t out_size = 0;
  Status st = c.Decompress(compressed.data(), compressed.size(), output.data(),
                           output.size(), &out_size);
  EXPECT_TRUE(st.ok()) << st.ToString();
  output.resize(out_size);
  return output;
}

class CompressorRoundTrip : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(CompressorRoundTrip, Empty) {
  auto c = GetCompressor(GetParam());
  Buffer input;
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST_P(CompressorRoundTrip, SmallInputs) {
  auto c = GetCompressor(GetParam());
  for (size_t n = 1; n <= 16; ++n) {
    Buffer input(n, static_cast<uint8_t>('a' + n));
    EXPECT_EQ(RoundTrip(*c, input), input) << n;
  }
}

TEST_P(CompressorRoundTrip, RepetitiveData) {
  auto c = GetCompressor(GetParam());
  Buffer input;
  for (int i = 0; i < 1000; ++i) {
    const char* words[] = {"timestamp", "value", "sensor", "reading"};
    const char* w = words[i % 4];
    input.insert(input.end(), w, w + strlen(w));
  }
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST_P(CompressorRoundTrip, RandomIncompressible) {
  auto c = GetCompressor(GetParam());
  Rng rng(1);
  Buffer input(8192);
  for (auto& b : input) b = static_cast<uint8_t>(rng.Next());
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST_P(CompressorRoundTrip, PropertyRandomStructured) {
  auto c = GetCompressor(GetParam());
  Rng rng(7);
  for (int iter = 0; iter < 60; ++iter) {
    Buffer input;
    size_t target = rng.Uniform(100000);
    while (input.size() < target) {
      if (rng.Bernoulli(0.5)) {
        std::string word = rng.AlphaString(1 + rng.Uniform(12));
        size_t reps = 1 + rng.Uniform(20);
        for (size_t r = 0; r < reps; ++r) {
          input.insert(input.end(), word.begin(), word.end());
        }
      } else {
        size_t n = rng.Uniform(64);
        for (size_t i = 0; i < n; ++i) {
          input.push_back(static_cast<uint8_t>(rng.Next()));
        }
      }
    }
    ASSERT_EQ(RoundTrip(*c, input), input) << "iter=" << iter;
  }
}

std::vector<CompressionKind> AvailableKinds() {
  std::vector<CompressionKind> kinds = {CompressionKind::kNone,
                                        CompressionKind::kSnappy,
                                        CompressionKind::kHeavy};
  // The real-library codecs join the matrix only when compiled in.
  if (CompressorAvailable(CompressionKind::kZstd)) {
    kinds.push_back(CompressionKind::kZstd);
  }
  if (CompressorAvailable(CompressionKind::kLz4)) {
    kinds.push_back(CompressionKind::kLz4);
  }
  return kinds;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CompressorRoundTrip,
                         ::testing::ValuesIn(AvailableKinds()),
                         [](const auto& info) {
                           std::string n = CompressionKindName(info.param);
                           n[0] = static_cast<char>(std::toupper(n[0]));
                           return n;
                         });

TEST(Snappy, CompressesRedundantPages) {
  auto c = GetCompressor(CompressionKind::kSnappy);
  Buffer page(32768);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>("field_name_prefix_"[i % 18]);
  }
  Buffer compressed;
  ASSERT_TRUE(c->Compress(page.data(), page.size(), &compressed).ok());
  EXPECT_LT(compressed.size() * 4, page.size());  // at least 4x on pure repeats
}

TEST(Snappy, DecompressRejectsGarbage) {
  auto c = GetCompressor(CompressionKind::kSnappy);
  Buffer garbage = {0xFF, 0xFF, 0xFF, 0x03, 0x02, 0x01};
  Buffer out(1024);
  size_t n = 0;
  EXPECT_FALSE(c->Decompress(garbage.data(), garbage.size(), out.data(),
                             out.size(), &n)
                   .ok());
}

TEST(Snappy, DecompressRejectsTooSmallOutput) {
  auto c = GetCompressor(CompressionKind::kSnappy);
  Buffer input(1000, 'x');
  Buffer compressed;
  ASSERT_TRUE(c->Compress(input.data(), input.size(), &compressed).ok());
  Buffer out(10);
  size_t n = 0;
  EXPECT_FALSE(c->Decompress(compressed.data(), compressed.size(), out.data(),
                             out.size(), &n)
                   .ok());
}

TEST(Snappy, LargeInputCrossesBlockBoundaries) {
  auto c = GetCompressor(CompressionKind::kSnappy);
  Rng rng(3);
  Buffer input;
  for (int i = 0; i < 30000; ++i) {
    std::string token = "k" + std::to_string(i % 97) + "=v" +
                        std::to_string(rng.Uniform(10)) + ";";
    input.insert(input.end(), token.begin(), token.end());
  }
  ASSERT_GT(input.size(), 128u * 1024);
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST(Heavy, BeatsSnappyOnStructuredData) {
  // The recompression tier's whole point: on record-shaped redundant data the
  // hash-chain matcher with long copies must produce smaller output than the
  // single-probe snappy tier.
  auto heavy = GetCompressor(CompressionKind::kHeavy);
  auto snappy = GetCompressor(CompressionKind::kSnappy);
  Rng rng(17);
  Buffer input;
  for (int i = 0; i < 4000; ++i) {
    std::string rec = "{\"sensor_id\":" + std::to_string(i % 50) +
                      ",\"reading\":" + std::to_string(rng.Uniform(1000)) +
                      ",\"status\":\"ok\"}";
    input.insert(input.end(), rec.begin(), rec.end());
  }
  Buffer h, s;
  ASSERT_TRUE(heavy->Compress(input.data(), input.size(), &h).ok());
  ASSERT_TRUE(snappy->Compress(input.data(), input.size(), &s).ok());
  EXPECT_LT(h.size(), s.size());
  EXPECT_EQ(RoundTrip(*heavy, input), input);
}

TEST(Heavy, LongCopyOpsRoundTrip) {
  // A long run of one repeated phrase exercises the 4-byte long-copy op
  // (match lengths far past the 64-byte short-copy cap).
  auto c = GetCompressor(CompressionKind::kHeavy);
  Buffer input;
  for (int i = 0; i < 3000; ++i) {
    const char* w = "abcdefghij";
    input.insert(input.end(), w, w + 10);
  }
  Buffer compressed;
  ASSERT_TRUE(c->Compress(input.data(), input.size(), &compressed).ok());
  // 30 KB of a 10-byte cycle must collapse to well under 1 KB with long copies.
  EXPECT_LT(compressed.size(), 1024u);
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST(Heavy, SnappyDecoderRejectsLongCopyStreams) {
  auto heavy = GetCompressor(CompressionKind::kHeavy);
  auto snappy = GetCompressor(CompressionKind::kSnappy);
  Buffer input;
  for (int i = 0; i < 1000; ++i) {
    const char* w = "0123456789abcdef";
    input.insert(input.end(), w, w + 16);
  }
  Buffer compressed;
  ASSERT_TRUE(heavy->Compress(input.data(), input.size(), &compressed).ok());
  Buffer out(input.size());
  size_t n = 0;
  // The heavy stream uses tag&3==1 ops the snappy decoder must refuse.
  EXPECT_FALSE(snappy
                   ->Decompress(compressed.data(), compressed.size(),
                                out.data(), out.size(), &n)
                   .ok());
}

TEST(CompressionKindHelpers, NameAndAvailability) {
  EXPECT_STREQ(CompressionKindName(CompressionKind::kHeavy), "heavy");
  EXPECT_TRUE(CompressorAvailable(CompressionKind::kNone));
  EXPECT_TRUE(CompressorAvailable(CompressionKind::kSnappy));
  EXPECT_TRUE(CompressorAvailable(CompressionKind::kHeavy));
  // zstd/lz4 availability depends on the build; GetCompressor must agree.
  EXPECT_EQ(CompressorAvailable(CompressionKind::kZstd),
            GetCompressor(CompressionKind::kZstd) != nullptr);
  EXPECT_EQ(CompressorAvailable(CompressionKind::kLz4),
            GetCompressor(CompressionKind::kLz4) != nullptr);
}

}  // namespace
}  // namespace tc
