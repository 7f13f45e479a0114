#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "lsm/btree_component.h"

namespace tc {
namespace {

struct BtreeFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  BufferCache cache{4096, 1024};

  std::shared_ptr<BtreeComponent> Build(
      const std::vector<std::tuple<int64_t, bool, std::string>>& entries,
      CompressionKind codec = CompressionKind::kNone) {
    auto compressor = GetCompressor(codec);
    auto b = BtreeComponentBuilder::Create(fs, "comp", 4096, compressor)
                 .ValueOrDie();
    for (const auto& [k, anti, payload] : entries) {
      Status st = b->Add(BtreeKey{k, 0}, anti, payload);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_TRUE(b->Finish(1, 1, {}).ok());
    EXPECT_TRUE(b->MarkValid().ok());
    return BtreeComponent::Open(fs, &cache, "comp", 4096).ValueOrDie();
  }
};

TEST(Btree, EmptyComponent) {
  BtreeFixture fx;
  auto c = fx.Build({});
  EXPECT_EQ(c->meta().n_entries, 0u);
  auto hit = c->Get(BtreeKey{1, 0}).ValueOrDie();
  EXPECT_FALSE(hit.has_value());
  BtreeComponent::Iterator it(c.get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  EXPECT_FALSE(it.Valid());
}

TEST(Btree, SingleLeafLookups) {
  BtreeFixture fx;
  auto c = fx.Build({{1, false, "one"}, {5, false, "five"}, {9, false, "nine"}});
  EXPECT_EQ(c->Get(BtreeKey{5, 0}).ValueOrDie()->payload,
            Buffer({'f', 'i', 'v', 'e'}));
  EXPECT_FALSE(c->Get(BtreeKey{4, 0}).ValueOrDie().has_value());
  EXPECT_FALSE(c->Get(BtreeKey{0, 0}).ValueOrDie().has_value());
  EXPECT_FALSE(c->Get(BtreeKey{10, 0}).ValueOrDie().has_value());
}

TEST(Btree, RejectsNonIncreasingKeys) {
  auto fs = MakeMemFileSystem();
  auto b = BtreeComponentBuilder::Create(fs, "x", 4096, nullptr).ValueOrDie();
  ASSERT_TRUE(b->Add(BtreeKey{5, 0}, false, "a").ok());
  EXPECT_FALSE(b->Add(BtreeKey{5, 0}, false, "b").ok());
  EXPECT_FALSE(b->Add(BtreeKey{4, 0}, false, "c").ok());
}

TEST(Btree, RejectsOversizedPayload) {
  auto fs = MakeMemFileSystem();
  auto b = BtreeComponentBuilder::Create(fs, "x", 4096, nullptr).ValueOrDie();
  std::string big(5000, 'x');
  EXPECT_FALSE(b->Add(BtreeKey{1, 0}, false, big).ok());
}

TEST(Btree, AntiMatterEntries) {
  BtreeFixture fx;
  auto c = fx.Build({{1, false, "live"}, {2, true, ""}, {3, false, "alive"}});
  EXPECT_EQ(c->meta().n_entries, 2u);
  EXPECT_EQ(c->meta().n_anti, 1u);
  auto hit = c->Get(BtreeKey{2, 0}).ValueOrDie();
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->anti);
}

class BtreeScale : public ::testing::TestWithParam<std::tuple<int, CompressionKind>> {
};

TEST_P(BtreeScale, MultiLevelPointAndRange) {
  auto [n, codec] = GetParam();
  BtreeFixture fx;
  std::vector<std::tuple<int64_t, bool, std::string>> entries;
  for (int i = 0; i < n; ++i) {
    // Sparse keys to exercise miss paths.
    entries.emplace_back(i * 3, false, "payload_" + std::to_string(i * 3));
  }
  auto c = fx.Build(entries, codec);
  EXPECT_EQ(c->meta().n_entries, static_cast<uint64_t>(n));
  EXPECT_EQ(c->meta().min_key.a, 0);
  EXPECT_EQ(c->meta().max_key.a, (n - 1) * 3);
  if (n > 200) {
    EXPECT_GT(c->page_count(), 2u);  // must be multi-level
  }

  Rng rng(n);
  for (int t = 0; t < 500; ++t) {
    int64_t k = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n * 3)));
    auto hit = c->Get(BtreeKey{k, 0}).ValueOrDie();
    if (k % 3 == 0) {
      ASSERT_TRUE(hit.has_value()) << k;
      EXPECT_EQ(std::string(hit->payload.begin(), hit->payload.end()),
                "payload_" + std::to_string(k));
    } else {
      EXPECT_FALSE(hit.has_value()) << k;
    }
  }

  // Full scan returns every key in order.
  BtreeComponent::Iterator it(c.get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  int64_t prev = -1;
  while (it.Valid()) {
    EXPECT_GT(it.key().a, prev);
    prev = it.key().a;
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, n);

  // Seek semantics: first key >= target.
  if (n >= 4) {
    ASSERT_TRUE(it.Seek(BtreeKey{7, 0}).ok());
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key().a, 9);
  }
  ASSERT_TRUE(it.Seek(BtreeKey{(n - 1) * 3 + 1, 0}).ok());
  EXPECT_FALSE(it.Valid());
  ASSERT_TRUE(it.Seek(BtreeKey{-100, 0}).ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().a, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BtreeScale,
    ::testing::Combine(::testing::Values(1, 10, 500, 5000),
                       ::testing::Values(CompressionKind::kNone,
                                         CompressionKind::kSnappy)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == CompressionKind::kNone ? "_raw" : "_snappy");
    });

TEST(Btree, CompositeKeyOrdering) {
  BtreeFixture fx;
  auto fs = fx.fs;
  auto b = BtreeComponentBuilder::Create(fs, "comp2", 4096, nullptr).ValueOrDie();
  // Secondary-index style: same .a, different .b.
  ASSERT_TRUE(b->Add(BtreeKey{10, 1}, false, "").ok());
  ASSERT_TRUE(b->Add(BtreeKey{10, 2}, false, "").ok());
  ASSERT_TRUE(b->Add(BtreeKey{11, 0}, false, "").ok());
  ASSERT_TRUE(b->Finish(1, 1, {}).ok());
  ASSERT_TRUE(b->MarkValid().ok());
  auto c = BtreeComponent::Open(fs, &fx.cache, "comp2", 4096).ValueOrDie();
  BtreeComponent::Iterator it(c.get());
  ASSERT_TRUE(it.Seek(BtreeKey{10, INT64_MIN}).ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().b, 1);
  ASSERT_TRUE(it.Next().ok());
  EXPECT_EQ(it.key().b, 2);
}

TEST(Btree, SchemaBlobPersistsAcrossPages) {
  BtreeFixture fx;
  auto b = BtreeComponentBuilder::Create(fx.fs, "blob", 4096, nullptr).ValueOrDie();
  ASSERT_TRUE(b->Add(BtreeKey{1, 0}, false, "x").ok());
  Buffer blob(10000);  // spans 3 metadata pages
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<uint8_t>(i * 7);
  ASSERT_TRUE(b->Finish(3, 7, blob).ok());
  ASSERT_TRUE(b->MarkValid().ok());
  auto c = BtreeComponent::Open(fx.fs, &fx.cache, "blob", 4096).ValueOrDie();
  EXPECT_EQ(c->meta().cid_min, 3u);
  EXPECT_EQ(c->meta().cid_max, 7u);
  EXPECT_EQ(c->meta().schema_blob, blob);
}

TEST(Btree, ValidityMarkerLifecycle) {
  auto fs = MakeMemFileSystem();
  auto b = BtreeComponentBuilder::Create(fs, "v", 4096, nullptr).ValueOrDie();
  ASSERT_TRUE(b->Add(BtreeKey{1, 0}, false, "x").ok());
  ASSERT_TRUE(b->Finish(1, 1, {}).ok());
  // Finished but not valid: a crash here must discard the component (§3.1.2).
  EXPECT_FALSE(BtreeComponent::IsValid(fs.get(), "v"));
  ASSERT_TRUE(b->MarkValid().ok());
  EXPECT_TRUE(BtreeComponent::IsValid(fs.get(), "v"));
  ASSERT_TRUE(BtreeComponent::Destroy(fs.get(), "v").ok());
  EXPECT_FALSE(fs->Exists("v"));
  EXPECT_FALSE(fs->Exists("v.valid"));
}

TEST(Btree, FooterCorruptionDetected) {
  BtreeFixture fx;
  auto c = fx.Build({{1, false, "x"}});
  // Flip a byte in the footer (last page) of the underlying file.
  auto f = fx.fs->Open("comp").ValueOrDie();
  uint64_t size = f->Size();
  uint8_t byte;
  ASSERT_TRUE(f->Read(size - 4096 + 6, 1, &byte).ok());
  byte ^= 0x40;
  ASSERT_TRUE(f->Write(size - 4096 + 6, &byte, 1).ok());
  EXPECT_FALSE(BtreeComponent::Open(fx.fs, &fx.cache, "comp", 4096).ok());
}

TEST(Btree, PageTooSmallForFooterRejected) {
  // The footer is one page; a page size that cannot hold it is refused by
  // both the builder and the reader instead of truncating or over-reading it.
  auto fs = MakeMemFileSystem();
  BufferCache cache(64, 4);
  auto built = BtreeComponentBuilder::Create(fs, "tiny", 64, nullptr);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  auto opened = BtreeComponent::Open(fs, &cache, "tiny", 64);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

// A footer whose CRC checks out can still locate pages the file does not
// have. Open must reject each such locator with Corruption before sizing any
// allocation from it (a 4 GiB schema blob or pin vector used to abort the
// process with std::bad_alloc).
struct FooterField {
  const char* name;
  size_t offset;   // byte offset of the u32 field in the footer page
  uint32_t value;  // the out-of-range value written there
};

void PrintTo(const FooterField& field, std::ostream* os) { *os << field.name; }

class FooterLocatorOutOfRange : public ::testing::TestWithParam<FooterField> {};

// Overwrites one u32 footer field of an uncompressed component and
// recomputes the footer CRC (over the 96 bytes before it), so only the
// field's range check can reject the result.
void RewriteFooterField(FileSystem* fs, const std::string& path, size_t offset,
                        uint32_t value) {
  constexpr size_t kPage = 4096;
  constexpr size_t kFooterFixed = 96;
  auto f = fs->Open(path).ValueOrDie();
  uint64_t footer_off = f->Size() - kPage;
  Buffer page(kPage);
  ASSERT_TRUE(f->Read(footer_off, kPage, page.data()).ok());
  OverwriteFixed32(&page, offset, value);
  OverwriteFixed32(&page, kFooterFixed, Crc32c(page.data(), kFooterFixed));
  ASSERT_TRUE(f->Write(footer_off, page.data(), kPage).ok());
}

TEST_P(FooterLocatorOutOfRange, OpenFailsWithCorruption) {
  const FooterField& field = GetParam();
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 64);
  // Every locator in use: a two-level tree, a schema blob and a filter.
  {
    auto b = BtreeComponentBuilder::Create(fs, "c", 4096, nullptr).ValueOrDie();
    for (int64_t k = 0; k < 3000; ++k) {
      ASSERT_TRUE(b->Add(BtreeKey{k, 0}, false, std::string(40, 'p')).ok());
    }
    ASSERT_TRUE(b->Finish(1, 1, Buffer(100, 7)).ok());
    ASSERT_TRUE(b->MarkValid().ok());
  }
  {
    auto c = BtreeComponent::Open(fs, &cache, "c", 4096).ValueOrDie();
    ASSERT_GT(c->pinned_interior_pages(), 0u);
    ASSERT_TRUE(c->has_filter());
    ASSERT_EQ(c->meta().schema_blob.size(), 100u);
  }
  // Rewriting the field with its own value keeps the component readable, so
  // the CRC recomputation is not what rejects the out-of-range value below.
  {
    auto f = fs->Open("c").ValueOrDie();
    uint8_t raw[4];
    ASSERT_TRUE(f->Read(f->Size() - 4096 + field.offset, 4, raw).ok());
    RewriteFooterField(fs.get(), "c", field.offset, GetFixed32(raw));
    ASSERT_TRUE(BtreeComponent::Open(fs, &cache, "c", 4096).ok());
  }
  RewriteFooterField(fs.get(), "c", field.offset, field.value);
  auto opened = BtreeComponent::Open(fs, &cache, "c", 4096);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Fields, FooterLocatorOutOfRange,
    ::testing::Values(FooterField{"RootPage", 4, 0xFFFFFFF0u},
                      FooterField{"LeafCount", 8, 0xFFFFFFF0u},
                      FooterField{"SchemaBlobStart", 12, 0xFFFFFFF0u},
                      FooterField{"SchemaBlobLength", 16, 0xFFFFFFF0u},
                      FooterField{"FilterStart", 84, 0xFFFFFFF0u},
                      FooterField{"FilterLength", 88, 0xFFFFFFF0u}),
    [](const auto& info) { return std::string(info.param.name); });

// Pages carry no CRC either, so readers range-check every field they follow
// on a page. Each case rewrites one field of an uncompressed component's
// leaf 0 or root page and expects Corruption, not a crash or a hang, from
// each read that follows the field.
constexpr uint32_t kOwnPage = UINT32_MAX;  // the rewritten page's own number

struct PageField {
  const char* name;
  bool root;         // on the root (interior) page, or on leaf 0
  size_t offset;     // of the field within the page
  int width;         // bytes: 2 or 4
  uint32_t value;    // what is written there (kOwnPage: the page's number)
  bool scan_reads;   // whether a full scan follows it (only descents read the root)
};

void PrintTo(const PageField& field, std::ostream* os) { *os << field.name; }

class PageFieldOutOfRange : public ::testing::TestWithParam<PageField> {};

TEST_P(PageFieldOutOfRange, ReadsFailWithCorruption) {
  const PageField& field = GetParam();
  constexpr size_t kPage = 4096;
  auto fs = MakeMemFileSystem();
  // A two-level tree: 3000 entries over ~47 leaves under one root.
  {
    auto b = BtreeComponentBuilder::Create(fs, "c", kPage, nullptr).ValueOrDie();
    for (int64_t k = 0; k < 3000; ++k) {
      ASSERT_TRUE(b->Add(BtreeKey{k, 0}, false, std::string(40, 'p')).ok());
    }
    ASSERT_TRUE(b->Finish(1, 1, {}).ok());
    ASSERT_TRUE(b->MarkValid().ok());
  }
  auto f = fs->Open("c").ValueOrDie();
  uint8_t footer[12];
  ASSERT_TRUE(f->Read(f->Size() - kPage, sizeof(footer), footer).ok());
  const uint32_t root = GetFixed32(footer + 4);
  ASSERT_GT(root, 0u);  // not a single-leaf tree
  const uint32_t page_no = field.root ? root : 0;
  const uint32_t value = field.value == kOwnPage ? page_no : field.value;
  uint8_t raw[4];
  for (int i = 0; i < field.width; ++i) raw[i] = static_cast<uint8_t>(value >> (8 * i));
  ASSERT_TRUE(f->Write(uint64_t{page_no} * kPage + field.offset, raw,
                       static_cast<size_t>(field.width))
                  .ok());

  BufferCache cache(kPage, 64);
  auto c = BtreeComponent::Open(fs, &cache, "c", kPage).ValueOrDie();
  const BtreeKey first{0, 0};
  auto got = c->Get(first);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  BtreeComponent::Iterator seek(c.get());
  Status st = seek.Seek(first);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_FALSE(seek.Valid());

  BtreeComponent::Iterator scan(c.get());
  st = scan.SeekToFirst();
  size_t entries = 0;
  while (st.ok() && scan.Valid()) {
    ++entries;
    st = scan.Next();
  }
  if (field.scan_reads) {
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_FALSE(scan.Valid());
  } else {
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(entries, 3000u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fields, PageFieldOutOfRange,
    ::testing::Values(
        PageField{"LeafSlotCount", false, 1, 2, 0xFFFF, true},
        PageField{"LeafSlotOffset", false, 4096 - 2, 2, 0xFFF0, true},
        // Unchecked, Get on the first entry copied 2 GiB past its page.
        PageField{"LeafPayloadLength", false, 7 + 17, 4, 0x7FFFFFFF, true},
        PageField{"InteriorSlotCount", true, 1, 2, 0xFFFF, false},
        PageField{"InteriorChildPage", true, 3 + 16, 4, kOwnPage, false}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace tc
