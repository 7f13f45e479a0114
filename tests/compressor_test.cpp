#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "format/adm_format.h"
#include "format/vector_format.h"
#include "storage/compressor.h"
#include "tests/test_util.h"
#include "workload/workload.h"

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

// ---------------------------------------------------------------------------
// The homegrown codecs' output bytes are a format contract (compressor.h).
// ---------------------------------------------------------------------------

/// A page as a component stores it: seeded workload records packed back to
/// back up to `page_size`, either as ADM records (the open and closed modes)
/// or as compacted vector records, which is what kInferred flushes and merges
/// compress. The generators and encoders feed these pages, so a change there
/// moves these hashes too; vector_format_test pins the encoder output alone,
/// which tells the two apart.
Buffer WorkloadPage(const std::string& workload, bool vector, size_t page_size) {
  auto gen = MakeGenerator(workload, /*seed=*/7);
  const DatasetType type = gen->OpenType();
  Schema schema;
  Buffer page;
  Buffer raw;
  while (page.size() < page_size) {
    AdmValue rec = gen->NextRecord();
    if (!vector) {
      EXPECT_TRUE(EncodeAdmRecord(rec, type, &page).ok());
      continue;
    }
    raw.clear();
    EXPECT_TRUE(EncodeVectorRecord(rec, type, &raw).ok());
    EXPECT_TRUE(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()),
                                            type, &schema, &page)
                    .ok());
  }
  page.resize(page_size);
  return page;
}

struct GoldenPage {
  const char* workload;
  bool vector;       // compacted vector records, or ADM records
  size_t page_size;  // 131072 spans three 60 KiB compression blocks
  uint64_t snappy;   // FNV-1a of the compressed page at each tier
  uint64_t heavy;
};

void PrintTo(const GoldenPage& g, std::ostream* os) {
  *os << g.workload << (g.vector ? "/vector/" : "/adm/") << g.page_size;
}

class CompressorGoldenBytes : public ::testing::TestWithParam<GoldenPage> {};

TEST_P(CompressorGoldenBytes, CompressedPagesMatchPinnedHashes) {
  const GoldenPage& g = GetParam();
  const Buffer page = WorkloadPage(g.workload, g.vector, g.page_size);
  for (auto [kind, want] : {std::pair{CompressionKind::kSnappy, g.snappy},
                            std::pair{CompressionKind::kHeavy, g.heavy}}) {
    auto c = GetCompressor(kind);
    Buffer compressed;
    ASSERT_TRUE(c->Compress(page.data(), page.size(), &compressed).ok());
    const uint64_t got = testutil::Fnv1a(compressed);
    EXPECT_EQ(got, want) << CompressionKindName(kind) << std::hex << " 0x" << got
                         << std::dec << " (" << compressed.size() << " bytes)";
    EXPECT_EQ(RoundTrip(*c, page), page) << CompressionKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pages, CompressorGoldenBytes,
    ::testing::Values(
        GoldenPage{"twitter", false, 32768, 0x9b50b6e0542b8510ull, 0xbea671129c271f40ull},
        GoldenPage{"twitter", true, 32768, 0x13e1ce6697d1ebe7ull, 0x3f165cb76b1d131eull},
        GoldenPage{"twitter", true, 131072, 0xb3136d6ada236f12ull, 0x51bc6d0a6c6ef94bull},
        GoldenPage{"wos", false, 32768, 0x544269a07c85f963ull, 0xa7224c151b73178ull},
        GoldenPage{"wos", true, 32768, 0x526ee5363645e2a4ull, 0xc5ab1012edb3d016ull},
        GoldenPage{"wos", false, 131072, 0xf8f88c86b936aa1full, 0x36d054b686150065ull},
        GoldenPage{"sensors", false, 32768, 0x6d734dbb96a133aull, 0x7a99b55e07963513ull},
        GoldenPage{"sensors", true, 32768, 0x58273150d42c2be6ull, 0x5d0f8c34b499caf2ull},
        GoldenPage{"sensors", true, 131072, 0xd0df4eaf2879bf9dull, 0x451f5c1a5a1dcb83ull}),
    [](const auto& info) {
      return std::string(info.param.workload) + (info.param.vector ? "Vector" : "Adm") +
             std::to_string(info.param.page_size);
    });

// ---------------------------------------------------------------------------
// The worst-case bound: each compressor sizes its output to it once and
// writes through a pointer, so no input may need more.
// ---------------------------------------------------------------------------

/// The bound compressor.h documents for both homegrown tiers.
size_t DocumentedBound(size_t n) { return 10 + n + n / 65 + 3 * ((n + 61439) / 61440); }

class Lz77Bound : public ::testing::TestWithParam<CompressionKind> {
 protected:
  /// Compresses `input` after a few bytes already in the output (Compress
  /// appends), checks the stream against the bound, and round-trips it into
  /// a buffer of exactly the input's size.
  void Check(const Buffer& input, const std::string& what) {
    auto c = GetCompressor(GetParam());
    const Buffer prefix = {0xA5, 0x5A, 0xA5};
    Buffer out = prefix;
    ASSERT_TRUE(c->Compress(input.data(), input.size(), &out).ok()) << what;
    ASSERT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin())) << what;
    const size_t stream_len = out.size() - prefix.size();
    EXPECT_LE(stream_len, DocumentedBound(input.size())) << what;
    Buffer decoded(input.size());
    size_t n = 0;
    Status st = c->Decompress(out.data() + prefix.size(), stream_len, decoded.data(),
                              decoded.size(), &n);
    ASSERT_TRUE(st.ok()) << what << ": " << st.ToString();
    EXPECT_EQ(n, input.size()) << what;
    EXPECT_TRUE(decoded == input) << what;
  }
};

TEST_P(Lz77Bound, RandomIncompressible) {
  Rng rng(21);
  for (size_t n : {8u, 9u, 100u, 4096u, 61440u, 61441u, 200000u}) {
    Check(RandomBytes(&rng, n), "random n=" + std::to_string(n));
  }
}

TEST_P(Lz77Bound, LiteralLengthsAtTagBoundaries) {
  // A literal of exactly `len` random bytes, then a run its last bytes
  // repeat (a copy), so the literal ends at a match as well as at the end.
  Rng rng(22);
  for (size_t len : {1u, 60u, 61u, 256u, 257u, 65536u, 65537u}) {
    Buffer input = RandomBytes(&rng, len);
    const Buffer ends_literal = input;
    for (int i = 0; i < 8; ++i) input.push_back(input[input.size() - std::min<size_t>(len, 4)]);
    Check(ends_literal, "literal only, len=" + std::to_string(len));
    Check(input, "literal then copy, len=" + std::to_string(len));
  }
}

TEST_P(Lz77Bound, AlternatingShortLiteralsAndMinimalCopies) {
  // One fresh byte, then a 4-byte phrase seen before: every literal is one
  // byte and every copy the minimum four.
  Rng rng(23);
  Buffer input = {'W', 'X', 'Y', 'Z'};
  while (input.size() < 70000) {
    input.push_back(static_cast<uint8_t>(rng.Next()));
    input.insert(input.end(), {'W', 'X', 'Y', 'Z'});
  }
  Check(input, "1-byte literals, 4-byte copies");
  // 61-byte literals (two tag bytes) between minimal copies: the one case
  // that expands, by one byte in 65, which the bound's n/65 term covers.
  Buffer worst = {'W', 'X', 'Y', 'Z'};
  while (worst.size() < 70000) {
    Buffer lit = RandomBytes(&rng, 61);
    worst.insert(worst.end(), lit.begin(), lit.end());
    worst.insert(worst.end(), {'W', 'X', 'Y', 'Z'});
  }
  Check(worst, "61-byte literals, 4-byte copies");
  if (GetParam() != CompressionKind::kSnappy) return;
  // The single-probe tier finds exactly those copies, so its output grows.
  Buffer compressed;
  ASSERT_TRUE(GetCompressor(GetParam())->Compress(worst.data(), worst.size(), &compressed).ok());
  EXPECT_GT(compressed.size(), worst.size());
}

TEST_P(Lz77Bound, InputsStraddlingTheBlockBoundary) {
  Rng rng(24);
  for (size_t n : {61439u, 61440u, 61441u, 61447u, 122879u, 122880u, 122881u}) {
    Check(RandomBytes(&rng, n), "random n=" + std::to_string(n));
    Buffer text;
    while (text.size() < n) {
      std::string token = "k" + std::to_string(rng.Uniform(300)) + "=v;";
      text.insert(text.end(), token.begin(), token.end());
    }
    text.resize(n);
    Check(text, "text n=" + std::to_string(n));
    // A match running up to the boundary: the block must end it there.
    Check(Buffer(n, 'q'), "run n=" + std::to_string(n));
  }
}

TEST_P(Lz77Bound, InputsShorterThanAWord) {
  Rng rng(25);
  for (size_t n = 0; n < 8; ++n) {
    Check(RandomBytes(&rng, n), "random n=" + std::to_string(n));
    Check(Buffer(n, 'a'), "run n=" + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(BothTiers, Lz77Bound,
                         ::testing::Values(CompressionKind::kSnappy,
                                           CompressionKind::kHeavy),
                         [](const auto& info) {
                           std::string n = CompressionKindName(info.param);
                           n[0] = static_cast<char>(std::toupper(n[0]));
                           return n;
                         });

}  // namespace
}  // namespace tc
