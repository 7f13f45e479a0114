#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <utility>
#include <vector>

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

// ---------------------------------------------------------------------------
// The shared LZ77 decoder (snappy + heavy tiers), fed hand-built streams.
// ---------------------------------------------------------------------------

class Lz77Decoder : public ::testing::TestWithParam<CompressionKind> {};

/// Hand-assembled LZ77 stream: varint length, then ops as documented in
/// compressor.cpp.
struct StreamBuilder {
  explicit StreamBuilder(uint64_t expected) { PutVarint64(&bytes, expected); }
  StreamBuilder& Literal(const Buffer& lit) {
    bytes.push_back(static_cast<uint8_t>((lit.size() - 1) << 2));  // <= 60 bytes
    bytes.insert(bytes.end(), lit.begin(), lit.end());
    return *this;
  }
  StreamBuilder& Copy(size_t offset, size_t len) {  // 4 <= len <= 64
    bytes.push_back(static_cast<uint8_t>(((len - 4) << 2) | 2));
    return Offset(offset);
  }
  StreamBuilder& LongCopy(size_t offset, size_t len) {  // heavy only
    size_t v = len - 4;
    bytes.push_back(static_cast<uint8_t>(((v & 0x3f) << 2) | 1));
    bytes.push_back(static_cast<uint8_t>(v >> 6));
    return Offset(offset);
  }
  StreamBuilder& Offset(size_t offset) {
    bytes.push_back(static_cast<uint8_t>(offset & 0xff));
    bytes.push_back(static_cast<uint8_t>(offset >> 8));
    return *this;
  }
  StreamBuilder& Raw(std::initializer_list<uint8_t> b) {
    bytes.insert(bytes.end(), b);
    return *this;
  }
  Buffer bytes;
};

Status Decode(const Compressor& c, const Buffer& stream, size_t out_cap, Buffer* out) {
  out->assign(out_cap, 0);
  size_t n = 0;
  Status st = c.Decompress(stream.data(), stream.size(), out->data(), out_cap, &n);
  if (st.ok()) out->resize(n);
  return st;
}

/// `prefix` followed by `len` bytes copied from `offset` back, one byte at a
/// time: what any copy op must produce, overlapping or not.
Buffer ExpandCopy(Buffer prefix, size_t offset, size_t len) {
  for (size_t i = 0; i < len; ++i) prefix.push_back(prefix[prefix.size() - offset]);
  return prefix;
}

Buffer RandomBytes(Rng* rng, size_t n) {
  Buffer b(n);
  for (auto& x : b) x = static_cast<uint8_t>(rng->Next());
  return b;
}

TEST_P(Lz77Decoder, OverlappingCopiesRoundTrip) {
  auto c = GetCompressor(GetParam());
  Rng rng(11);
  auto check = [&](const Buffer& stream, const Buffer& want) {
    Buffer got;
    // Exact capacity: a word copy must not write past the output.
    Status st = Decode(*c, stream, want.size(), &got);
    return st.ok() && got == want;
  };
  for (size_t offset = 1; offset <= 16; ++offset) {
    Buffer prefix = RandomBytes(&rng, 20);  // copies reach back into it
    for (size_t len = 4; len <= 64; ++len) {
      Buffer want = ExpandCopy(prefix, offset, len);
      ASSERT_TRUE(check(StreamBuilder(want.size()).Literal(prefix).Copy(offset, len).bytes,
                        want))
          << "offset=" << offset << " len=" << len;
      // The same shape through the compressor: a short period repeated.
      Buffer input = ExpandCopy(Buffer(prefix.begin(), prefix.begin() + offset),
                                offset, len);
      ASSERT_EQ(RoundTrip(*c, input), input) << "offset=" << offset << " len=" << len;
    }
  }
  // Chained copies: each source lies partly in the output of the one before.
  Buffer head = RandomBytes(&rng, 9);
  Buffer want = head;
  std::vector<std::pair<size_t, size_t>> copies;
  for (int i = 0; i < 200; ++i) {
    size_t offset = 1 + rng.Uniform(std::min<size_t>(want.size(), 40));
    size_t len = 4 + rng.Uniform(61);
    copies.push_back({offset, len});
    want = ExpandCopy(want, offset, len);
  }
  StreamBuilder s(want.size());
  s.Literal(head);
  for (auto [offset, len] : copies) s.Copy(offset, len);
  EXPECT_TRUE(check(s.bytes, want));
  if (GetParam() != CompressionKind::kHeavy) return;

  // Heavy long copies, short offsets and up to the 16387-byte maximum.
  for (size_t offset = 1; offset <= 16; ++offset) {
    for (size_t len : {65u, 71u, 1000u, 4099u, 16387u}) {
      Buffer prefix = RandomBytes(&rng, 16);
      Buffer expanded = ExpandCopy(prefix, offset, len);
      ASSERT_TRUE(check(
          StreamBuilder(expanded.size()).Literal(prefix).LongCopy(offset, len).bytes,
          expanded))
          << "offset=" << offset << " len=" << len;
    }
  }
  // Long copies at far offsets, as the compressor emits them.
  Buffer input = RandomBytes(&rng, 3000);
  for (int rep = 0; rep < 8; ++rep) {
    input.insert(input.end(), input.begin(), input.begin() + 3000);
  }
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST_P(Lz77Decoder, EveryCorruptionCheckFires) {
  auto c = GetCompressor(GetParam());
  const bool heavy = GetParam() == CompressionKind::kHeavy;
  const Buffer a = {'a'};
  const Buffer five = {'a', 'b', 'c', 'd', 'e'};
  struct Case {
    const char* branch;
    Buffer stream;
    size_t out_cap;
  };
  std::vector<Case> cases = {
      {"bad length varint", {0x80}, 64},
      {"output too small", StreamBuilder(100).Literal(five).bytes, 10},
      {"truncated literal len", StreamBuilder(5).Raw({60 << 2}).bytes, 64},
      {"truncated literal len", StreamBuilder(5).Raw({61 << 2, 0x04}).bytes, 64},
      {"literal overruns buffer", StreamBuilder(3).Literal(five).bytes, 64},
      {"literal overruns buffer", StreamBuilder(5).Raw({4 << 2, 'a'}).bytes, 64},
      {"truncated copy", StreamBuilder(10).Literal(a).Raw({2, 0x01}).bytes, 64},
      {"bad copy", StreamBuilder(10).Literal(a).Copy(0, 4).bytes, 64},
      {"bad copy", StreamBuilder(10).Literal(a).Copy(2, 4).bytes, 64},
      {"bad copy", StreamBuilder(4).Literal(a).Copy(1, 4).bytes, 64},
      {"unknown tag", StreamBuilder(10).Literal(a).Raw({3}).bytes, 64},
      {"length mismatch", StreamBuilder(10).Literal(five).bytes, 64},
  };
  if (heavy) {
    cases.push_back({"truncated long copy", StreamBuilder(10).Literal(a).Raw({1}).bytes, 64});
    cases.push_back(
        {"truncated copy", StreamBuilder(10).Literal(a).Raw({1, 0x00, 0x01}).bytes, 64});
    cases.push_back({"bad copy", StreamBuilder(200).Literal(a).LongCopy(1, 300).bytes, 400});
  } else {
    // The long-copy op is heavy-only: the snappy decoder refuses its tag.
    cases.push_back({"unknown tag", StreamBuilder(10).Literal(a).LongCopy(1, 9).bytes, 64});
  }
  for (const Case& k : cases) {
    Buffer out;
    Status st = Decode(*c, k.stream, k.out_cap, &out);
    EXPECT_TRUE(st.IsCorruption()) << k.branch << ": " << st.ToString();
    EXPECT_NE(st.message().find(k.branch), std::string::npos)
        << "want '" << k.branch << "', got " << st.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(BothTiers, Lz77Decoder,
                         ::testing::Values(CompressionKind::kSnappy,
                                           CompressionKind::kHeavy),
                         [](const auto& info) {
                           std::string n = CompressionKindName(info.param);
                           n[0] = static_cast<char>(std::toupper(n[0]));
                           return n;
                         });

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
