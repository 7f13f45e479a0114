// Dataset inspector: opens a dataset directory and prints what the storage
// engine sees — the LSM components per partition (component IDs, page codec,
// sizes, record/anti-matter counts, key ranges) and the persisted inferred
// schema of the newest component. Handy for demos and debugging.
//
//   $ ./build/examples/inspect_dataset <dir> <name> [partitions] [page_size]
//
// Try it on a bench directory while a bench is running, or:
//   $ ./build/examples/inspect_dataset /tmp/mydata bench 4 32768
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "lsm/btree_component.h"
#include "schema/schema_io.h"
#include "storage/file.h"
#include "storage/laf.h"

using namespace tc;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <dir> <dataset-name> [partitions=4] [page_size=32768]\n",
                 argv[0]);
    return 2;
  }
  std::string dir = argv[1];
  std::string name = argv[2];
  int partitions = argc > 3 ? std::atoi(argv[3]) : 4;
  size_t page_size = argc > 4 ? static_cast<size_t>(std::atoll(argv[4])) : 32768;

  auto fs = MakePosixFileSystem();
  BufferCache cache(page_size, 256);

  for (int p = 0; p < partitions; ++p) {
    std::string prefix = name + ".p" + std::to_string(p) + ".c";
    auto files = fs->List(dir, prefix);
    if (!files.ok()) {
      std::fprintf(stderr, "cannot list %s: %s\n", dir.c_str(),
                   files.status().ToString().c_str());
      return 1;
    }
    std::printf("partition %d:\n", p);
    Buffer newest_schema;
    uint64_t newest_cid = 0;
    for (const auto& f : files.value()) {
      if (f.size() < 6 || f.compare(f.size() - 6, 6, ".btree") != 0) continue;
      std::string path = dir + "/" + f;
      bool valid = BtreeComponent::IsValid(fs.get(), path);
      // The LAF names the codec the pages were written with (a v1 LAF
      // predates every codec but snappy); a file without one is uncompressed.
      CompressionKind codec = CompressionKind::kNone;
      std::string laf_path = path + ".laf";
      if (fs->Exists(laf_path)) {
        auto laf = LoadLaf(fs.get(), laf_path);
        if (!laf.ok()) {
          std::printf("  %-44s  (unreadable LAF: %s)\n", f.c_str(),
                      laf.status().ToString().c_str());
          continue;
        }
        codec = laf.value().codec.value_or(CompressionKind::kSnappy);
      }
      auto opened =
          BtreeComponent::Open(fs, &cache, path, page_size, GetCompressor(codec));
      if (!opened.ok()) {
        std::printf("  %-44s %-6s  (unreadable: %s)\n", f.c_str(),
                    CompressionKindName(codec), opened.status().ToString().c_str());
        continue;
      }
      std::shared_ptr<BtreeComponent> comp = std::move(opened).value();
      const ComponentMeta& m = comp->meta();
      std::printf("  %-44s %s %-6s [C%" PRIu64 ",C%" PRIu64 "]  %8" PRIu64
                  " recs %5" PRIu64 " anti  keys [%lld..%lld]  %6.2f MiB%s\n",
                  f.c_str(), valid ? "VALID  " : "INVALID", CompressionKindName(codec),
                  m.cid_min, m.cid_max,
                  m.n_entries, m.n_anti, static_cast<long long>(m.min_key.a),
                  static_cast<long long>(m.max_key.a),
                  comp->physical_bytes() / 1048576.0,
                  m.schema_blob.empty() ? "" : "  +schema");
      if (valid && m.cid_max >= newest_cid && !m.schema_blob.empty()) {
        newest_cid = m.cid_max;
        newest_schema = m.schema_blob;
      }
    }
    if (!newest_schema.empty()) {
      size_t consumed = 0;
      auto schema =
          DeserializeSchema(newest_schema.data(), newest_schema.size(), &consumed);
      if (schema.ok()) {
        std::printf("  newest persisted schema (v%" PRIu64 ", %u field names):\n    %s\n",
                    schema.value().version(), schema.value().dict().size(),
                    schema.value().ToString().c_str());
      }
    }
  }
  return 0;
}
