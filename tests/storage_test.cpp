#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "storage/buffer_cache.h"
#include "storage/file.h"
#include "storage/laf.h"

namespace tc {
namespace {

TEST(MemFileSystem, BasicOps) {
  auto fs = MakeMemFileSystem();
  EXPECT_FALSE(fs->Exists("a"));
  auto f = fs->Create("a").ValueOrDie();
  uint64_t off = 0;
  ASSERT_TRUE(f->Append(reinterpret_cast<const uint8_t*>("hello"), 5, &off).ok());
  EXPECT_EQ(off, 0u);
  EXPECT_EQ(f->Size(), 5u);
  uint8_t buf[5];
  ASSERT_TRUE(f->Read(0, 5, buf).ok());
  EXPECT_EQ(memcmp(buf, "hello", 5), 0);
  EXPECT_FALSE(f->Read(3, 5, buf).ok());  // past end
  EXPECT_TRUE(fs->Exists("a"));
  ASSERT_TRUE(fs->Delete("a").ok());
  EXPECT_FALSE(fs->Exists("a"));
  EXPECT_FALSE(fs->Open("a").ok());
}

TEST(MemFileSystem, ListWithPrefix) {
  auto fs = MakeMemFileSystem();
  (void)fs->Create("dir/ds.c1.btree").ValueOrDie();
  (void)fs->Create("dir/ds.c2.btree").ValueOrDie();
  (void)fs->Create("dir/other.x").ValueOrDie();
  auto names = fs->List("dir", "ds.").ValueOrDie();
  EXPECT_EQ(names.size(), 2u);
}

TEST(MemFileSystem, ContentsSurviveReopen) {
  auto fs = MakeMemFileSystem();
  {
    auto f = fs->Create("persist").ValueOrDie();
    ASSERT_TRUE(f->Write(0, reinterpret_cast<const uint8_t*>("data"), 4).ok());
  }
  auto f2 = fs->Open("persist").ValueOrDie();
  EXPECT_EQ(f2->Size(), 4u);
}

TEST(PosixFileSystem, BasicOps) {
  auto fs = MakePosixFileSystem();
  std::string dir = ::testing::TempDir() + "/tcdb_storage_test";
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  std::string path = dir + "/f1";
  {
    auto f = fs->Create(path).ValueOrDie();
    ASSERT_TRUE(f->Write(0, reinterpret_cast<const uint8_t*>("abcdef"), 6).ok());
    ASSERT_TRUE(f->Sync().ok());
  }
  EXPECT_TRUE(fs->Exists(path));
  EXPECT_EQ(fs->FileSize(path).ValueOrDie(), 6u);
  {
    auto f = fs->Open(path).ValueOrDie();
    uint8_t buf[3];
    ASSERT_TRUE(f->Read(2, 3, buf).ok());
    EXPECT_EQ(memcmp(buf, "cde", 3), 0);
  }
  ASSERT_TRUE(fs->Delete(path).ok());
}

TEST(Laf, RoundTripAndChecksum) {
  auto fs = MakeMemFileSystem();
  std::vector<LafEntry> entries = {{0, 100}, {100, 57}, {157, 4000}};
  ASSERT_TRUE(
      WriteLaf(fs.get(), "x.laf", entries, CompressionKind::kHeavy).ok());
  auto loaded = LoadLaf(fs.get(), "x.laf").ValueOrDie();
  ASSERT_EQ(loaded.entries.size(), 3u);
  EXPECT_EQ(loaded.entries[1].offset, 100u);
  EXPECT_EQ(loaded.entries[1].length, 57u);
  EXPECT_EQ(loaded.codec, CompressionKind::kHeavy);
  // Entries are 12 bytes each, exactly as the paper specifies (§2.4); the
  // header is magic + codec + count.
  EXPECT_EQ(fs->FileSize("x.laf").ValueOrDie(), 12u + 3 * 12 + 4);

  // Corrupt one byte -> checksum failure.
  auto f = fs->Open("x.laf").ValueOrDie();
  uint8_t b;
  ASSERT_TRUE(f->Read(9, 1, &b).ok());
  b ^= 0xFF;
  ASSERT_TRUE(f->Write(9, &b, 1).ok());
  EXPECT_FALSE(LoadLaf(fs.get(), "x.laf").ok());
}

TEST(Laf, V1FileFailsOpenWithCorruption) {
  // Hand-craft a v1 LAF (magic "TCLA", no codec field) beside a data file.
  // The engine never writes one, and nothing but a LAF may name a file's
  // codec, so both the LAF and the paged file fail with Corruption.
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  {
    auto pf = PagedFile::Create(fs, "v1", kPage,
                                GetCompressor(CompressionKind::kSnappy))
                  .ValueOrDie();
    Buffer page(kPage, 'v');
    ASSERT_TRUE(pf->AppendPage(page.data()).ok());
    ASSERT_TRUE(pf->Finish().ok());
  }
  LafData v2 = LoadLaf(fs.get(), "v1.laf").ValueOrDie();
  Buffer buf;
  PutFixed32(&buf, 0x54434c41u);  // v1 magic
  PutFixed32(&buf, static_cast<uint32_t>(v2.entries.size()));
  for (const LafEntry& e : v2.entries) {
    PutFixed64(&buf, e.offset);
    PutFixed32(&buf, e.length);
  }
  PutFixed32(&buf, Crc32c(buf.data(), buf.size()));
  ASSERT_TRUE(fs->Delete("v1.laf").ok());
  auto f = fs->Create("v1.laf").ValueOrDie();
  ASSERT_TRUE(f->Write(0, buf.data(), buf.size()).ok());

  auto laf = LoadLaf(fs.get(), "v1.laf");
  ASSERT_FALSE(laf.ok());
  EXPECT_TRUE(laf.status().IsCorruption()) << laf.status().ToString();
  auto opened = PagedFile::Open(fs, "v1", kPage);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

class PagedFileTest : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(PagedFileTest, WriteReadPages) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto compressor = GetCompressor(GetParam());
  auto pf = PagedFile::Create(fs, "data", kPage, compressor).ValueOrDie();
  Rng rng(11);
  std::vector<Buffer> pages;
  for (int i = 0; i < 20; ++i) {
    Buffer page(kPage);
    // Half-compressible content.
    for (size_t j = 0; j < page.size(); ++j) {
      page[j] = j % 2 == 0 ? static_cast<uint8_t>('A' + (i % 26))
                           : static_cast<uint8_t>(rng.Next());
    }
    ASSERT_TRUE(pf->AppendPage(page.data()).ok());
    pages.push_back(std::move(page));
  }
  ASSERT_TRUE(pf->Finish().ok());
  EXPECT_EQ(pf->page_count(), 20u);

  // Re-open and verify all pages.
  auto rd = PagedFile::Open(fs, "data", kPage).ValueOrDie();
  EXPECT_EQ(rd->page_count(), 20u);
  Buffer out(kPage);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rd->ReadPage(static_cast<uint32_t>(i), out.data()).ok());
    EXPECT_EQ(out, pages[static_cast<size_t>(i)]) << i;
  }
  EXPECT_FALSE(rd->ReadPage(20, out.data()).ok());
}

TEST_P(PagedFileTest, PhysicalBytesReflectCompression) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "d2", kPage, GetCompressor(GetParam()))
                .ValueOrDie();
  Buffer page(kPage, 'z');  // highly compressible
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  ASSERT_TRUE(pf->Finish().ok());
  if (GetParam() != CompressionKind::kNone) {
    EXPECT_LT(pf->physical_bytes(), 8 * kPage / 4);
  } else {
    EXPECT_EQ(pf->physical_bytes(), 8 * kPage);
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, PagedFileTest,
                         ::testing::Values(CompressionKind::kNone,
                                           CompressionKind::kSnappy,
                                           CompressionKind::kHeavy),
                         [](const auto& info) {
                           return std::string(CompressionKindName(info.param)) ==
                                          "snappy"
                                      ? "Snappy"
                                      : info.param == CompressionKind::kNone
                                            ? "None"
                                            : "Heavy";
                         });

TEST(PagedFile, SelfDescribingOpenIgnoresCallerCodec) {
  // A file written with the heavy codec opens as heavy whatever codec the
  // reading tree is configured with: the reader passes none, and the LAF
  // sidecar names it.
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "sd", kPage,
                              GetCompressor(CompressionKind::kHeavy))
                .ValueOrDie();
  Buffer page(kPage);
  for (size_t j = 0; j < page.size(); ++j) page[j] = static_cast<uint8_t>(j % 97);
  ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  ASSERT_TRUE(pf->Finish().ok());

  auto rd = PagedFile::Open(fs, "sd", kPage).ValueOrDie();
  EXPECT_EQ(rd->compression(), CompressionKind::kHeavy);
  Buffer out(kPage);
  ASSERT_TRUE(rd->ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST(PagedFile, OpenWithoutLafIsUncompressedEvenIfCallerCompresses) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "plain", kPage, nullptr).ValueOrDie();
  Buffer page(kPage, 3);
  ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  ASSERT_TRUE(pf->Finish().ok());
  // The tree may be configured for snappy, but there is no LAF: the file
  // must open uncompressed.
  auto rd = PagedFile::Open(fs, "plain", kPage).ValueOrDie();
  EXPECT_FALSE(rd->compressed());
  Buffer out(kPage);
  ASSERT_TRUE(rd->ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST(BufferCache, HitsMissesAndEviction) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "c", kPage, nullptr).ValueOrDie();
  Buffer page(kPage);
  for (int i = 0; i < 10; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  }
  ASSERT_TRUE(pf->Finish().ok());

  BufferCache cache(kPage, /*capacity=*/4);
  for (uint32_t i = 0; i < 10; ++i) {
    auto p = cache.GetPage(pf.get(), i).ValueOrDie();
    EXPECT_EQ((*p)[0], static_cast<uint8_t>(i));
  }
  EXPECT_EQ(cache.misses(), 10u);
  EXPECT_EQ(cache.hits(), 0u);
  // Last 4 pages are cached.
  for (uint32_t i = 6; i < 10; ++i) (void)cache.GetPage(pf.get(), i).ValueOrDie();
  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.misses(), 10u);
  // An evicted page misses again.
  (void)cache.GetPage(pf.get(), 0).ValueOrDie();
  EXPECT_EQ(cache.misses(), 11u);
}

TEST(BufferCache, EvictedPageStillUsableByHolder) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "pin", kPage, nullptr).ValueOrDie();
  Buffer page(kPage, 7);
  ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  Buffer other(kPage, 9);
  ASSERT_TRUE(pf->AppendPage(other.data()).ok());
  ASSERT_TRUE(pf->Finish().ok());
  BufferCache cache(kPage, 1);
  auto held = cache.GetPage(pf.get(), 0).ValueOrDie();
  (void)cache.GetPage(pf.get(), 1).ValueOrDie();  // evicts page 0
  EXPECT_EQ((*held)[100], 7);                     // shared ownership keeps it alive
}

TEST(BufferCache, InvalidateFile) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "inv", kPage, nullptr).ValueOrDie();
  Buffer page(kPage, 1);
  ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  ASSERT_TRUE(pf->Finish().ok());
  BufferCache cache(kPage, 8);
  (void)cache.GetPage(pf.get(), 0).ValueOrDie();
  cache.InvalidateFile(pf->file_id());
  (void)cache.GetPage(pf.get(), 0).ValueOrDie();
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(DeviceModel, CountsBytes) {
  DeviceModel dev(DeviceProfile::Unthrottled());
  dev.OnRead(100);
  dev.OnWrite(50);
  dev.OnRead(1);
  EXPECT_EQ(dev.bytes_read(), 101u);
  EXPECT_EQ(dev.bytes_written(), 50u);
  dev.ResetCounters();
  EXPECT_EQ(dev.bytes_read(), 0u);
}

TEST(DeviceModel, ProfilesReflectPaperBandwidths) {
  // NVMe reads ~6x faster than SATA (3400 vs 550 MB/s), whatever the slowdown.
  DeviceProfile sata = DeviceProfile::SataSsd();
  DeviceProfile nvme = DeviceProfile::NvmeSsd();
  EXPECT_NEAR(nvme.read_mbps / sata.read_mbps, 3400.0 / 550.0, 0.01);
  EXPECT_NEAR(nvme.write_mbps / sata.write_mbps, 2500.0 / 520.0, 0.01);
}

}  // namespace
}  // namespace tc
