// Regenerates the checked-in fuzz corpus under tests/fuzz/corpus/. Seeds come
// from the workload generators (real record shapes for ParseAdm; their
// inferred schemas, serialized, for DeserializeSchema; their vector-encoded
// records, plain and compacted, for the path walks, some with a readings
// object changed to break the shape of the others; their compacted records
// packed into a small page and compressed at both codec tiers, for the page
// decoders) plus handwritten edge cases. Deterministic — rerunning produces
// identical files.
//
//   ./make_corpus <corpus_dir>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "adm/parser.h"
#include "adm/printer.h"
#include "format/vector_format.h"
#include "fuzz_targets.h"
#include "schema/schema_io.h"
#include "schema/schema_tree.h"
#include "storage/compressor.h"
#include "workload/workload.h"

namespace {

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A Sensors reading {temp, timestamp} changed so that it no longer has the
/// shape of the other readings, in the way `how` names.
tc::AdmValue BreakReading(const tc::AdmValue& reading, const std::string& how) {
  const tc::AdmValue& temp = *reading.FindField("temp");
  const tc::AdmValue& ts = *reading.FindField("timestamp");
  tc::AdmValue out = tc::AdmValue::Object();
  if (how == "reordered") out.AddField("timestamp", ts);
  if (how == "bigint") {
    out.AddField("temp", tc::AdmValue::BigInt(static_cast<int64_t>(temp.double_value())));
  } else if (how == "string") {
    out.AddField("temp", tc::AdmValue::String("hot"));
  } else {
    out.AddField("temp", temp);
  }
  if (how == "nested") {
    tc::AdmValue arr = tc::AdmValue::Array();
    arr.Append(ts);
    out.AddField("timestamp", std::move(arr));
  } else if (how == "renamed") {  // same tags, another name slot
    out.AddField("sensor_id", ts);
  } else if (how != "missing" && how != "reordered") {
    out.AddField("timestamp", ts);
  }
  if (how == "extra") out.AddField("sensor_id", tc::AdmValue::BigInt(7));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus_dir>\n", argv[0]);
    return 1;
  }
  std::string dir = argv[1];
  std::filesystem::create_directories(dir);

  // ParseAdm seeds: generator records across all three datasets...
  int n = 0;
  for (const char* dataset : {"twitter", "wos", "sensors"}) {
    auto gen = tc::MakeGenerator(dataset, /*seed=*/7);
    for (int i = 0; i < 4; ++i) {
      std::string text = tc::PrintAdm(gen->NextRecord());
      char name[64];
      std::snprintf(name, sizeof(name), "/adm_%s_%d", dataset, i);
      WriteFile(dir + name, text);
      ++n;
    }
  }
  // ...plus handwritten edge cases the generators never emit.
  const char* handwritten[] = {
      "{}",
      "[]",
      "{{1, 2, 3}}",
      "null",
      "missing",
      "-9223372036854775808",
      "1.7976931348623157e308",
      "{\"a\": [{\"b\": {{\"c\"}}}], \"d\": point(\"1.5,-2.5\")}",
      "{\"t\": datetime(\"2014-01-01T00:00:00\"), \"u\": "
      "uuid(\"5c848e5c-6b6a-498f-8452-8847a2957a48\")}",
      "{\"s\": \"\\\"\\\\\\u00e9\\n\", \"d\": duration(\"P3DT1H\"), "
      "\"w\": date(\"2020-02-29\"), \"x\": time(\"23:59:59\")}",
      "[[[[[[[[1]]]]]]]]",
      "{\"a\": true, \"b\": false, \"deep\": [1, [2, [3, [4.25]]]]}",
  };
  int h = 0;
  for (const char* text : handwritten) {
    WriteFile(dir + "/adm_edge_" + std::to_string(h++), text);
    ++n;
  }

  // DeserializeSchema seeds: schemas inferred from generator records.
  for (const char* dataset : {"twitter", "wos", "sensors"}) {
    auto gen = tc::MakeGenerator(dataset, /*seed=*/11);
    tc::DatasetType declared = gen->OpenType();
    tc::Schema schema;
    for (int i = 0; i < 16; ++i) {
      tc::Buffer vb;
      auto st = tc::EncodeVectorRecord(gen->NextRecord(), declared, &vb);
      if (st.ok()) {
        st = tc::InferVectorRecord(tc::VectorRecordView(vb.data(), vb.size()),
                                   declared, &schema);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "infer failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    tc::Buffer blob;
    tc::SerializeSchema(schema, &blob);
    WriteFile(dir + "/schema_" + dataset,
              std::string(blob.begin(), blob.end()));
    ++n;
  }
  // An empty schema and a truncated blob round out the schema seeds.
  {
    tc::Schema schema;
    tc::Buffer blob;
    tc::SerializeSchema(schema, &blob);
    WriteFile(dir + "/schema_empty", std::string(blob.begin(), blob.end()));
    if (blob.size() > 2) {
      WriteFile(dir + "/schema_truncated",
                std::string(blob.begin(), blob.begin() + blob.size() / 2));
    }
    n += 2;
  }

  // FuzzVectorPathWalk seeds: byte 0 selects the context, the rest is the
  // record — each context's first generator records, uncompacted and
  // compacted against the context schema, plus records breaking the
  // unique-field-name contract.
  const auto& contexts = tc::PathWalkFuzzContexts();
  auto write_record = [&](const std::string& name, size_t context,
                          const tc::Buffer& vb) {
    std::string bytes(1, static_cast<char>(context));
    bytes.append(vb.begin(), vb.end());
    WriteFile(dir + "/" + name, bytes);
    ++n;
  };
  for (size_t c = 0; c < contexts.size(); ++c) {
    const tc::PathWalkFuzzContext& ctx = contexts[c];
    for (size_t i = 0; i < 2; ++i) {
      tc::Buffer vb;
      tc::Buffer compacted;
      // Compacting into a clone leaves the context schema as it is.
      tc::Schema schema = ctx.schema.Clone();
      auto st = tc::EncodeVectorRecord(ctx.records[i], ctx.type, &vb);
      if (st.ok()) {
        st = tc::InferAndCompactVectorRecord(
            tc::VectorRecordView(vb.data(), vb.size()), ctx.type, &schema, &compacted);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "encode failed: %s\n", st.ToString().c_str());
        return 1;
      }
      write_record("vb_" + ctx.name + "_" + std::to_string(i), c, vb);
      write_record("vbc_" + ctx.name + "_" + std::to_string(i), c, compacted);
    }
  }
  // Sensors records whose readings break the shape of the other readings
  // objects, each kind at another position, so the path walks' shape runs
  // stop at every kind of difference: compacted under both types, and
  // uncompacted (memtable) under the closed type, whose declared reading
  // fields take runs too.
  const std::pair<const char*, size_t> breaks[] = {
      {"missing", 0}, {"extra", 1},   {"reordered", 57}, {"renamed", 86},
      {"bigint", 115}, {"nested", 116}, {"string", 30},
  };
  for (size_t c = 0; c < contexts.size(); ++c) {
    const tc::PathWalkFuzzContext& ctx = contexts[c];
    if (ctx.name.rfind("sensors_", 0) != 0) continue;
    for (const auto& [how, at] : breaks) {
      tc::AdmValue rec = ctx.records[0];
      for (size_t f = 0; f < rec.field_count(); ++f) {
        if (rec.field_name(f) != "readings") continue;
        tc::AdmValue& item = rec.field_value(f).item(at);
        item = BreakReading(item, how);
      }
      tc::Buffer vb;
      tc::Buffer compacted;
      tc::Schema schema = ctx.schema.Clone();
      auto st = tc::EncodeVectorRecord(rec, ctx.type, &vb);
      if (st.ok()) {
        st = tc::InferAndCompactVectorRecord(
            tc::VectorRecordView(vb.data(), vb.size()), ctx.type, &schema, &compacted);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "encode failed: %s\n", st.ToString().c_str());
        return 1;
      }
      std::string suffix = "_break_" + std::string(how);
      // A name the context's schema lacks would make the record undecodable
      // (the closed type declares sensor_id at the top level only).
      if (schema.dict().size() == ctx.schema.dict().size()) {
        write_record("vbc_" + ctx.name + suffix, c, compacted);
      }
      if (ctx.name == "sensors_closed") write_record("vb_" + ctx.name + suffix, c, vb);
    }
  }
  const char* duplicates[] = {
      R"({"id": 1, "a": 1, "a": 2, "b": 3})",
      R"({"id": 2, "s": {"x": 4}, "s": {"x": 5, "y": 6},
          "arr": [{"x": 7, "x": 8}, {"x": 9}], "t": [[1, 2], [], [3]]})",
  };
  int d = 0;
  for (const char* text : duplicates) {
    tc::Buffer vb;
    auto st = tc::EncodeVectorRecord(tc::ParseAdm(text).ValueOrDie(),
                                     contexts[0].type, &vb);
    if (!st.ok()) {
      std::fprintf(stderr, "encode failed: %s\n", st.ToString().c_str());
      return 1;
    }
    write_record("vb_duplicate_names_" + std::to_string(d++), 0, vb);
  }

  // FuzzPageCodec seeds: a 2 KiB page of each workload's compacted records,
  // compressed at each homegrown tier.
  for (const char* dataset : {"twitter", "wos", "sensors"}) {
    auto gen = tc::MakeGenerator(dataset, /*seed=*/7);
    tc::DatasetType declared = gen->OpenType();
    tc::Schema schema;
    tc::Buffer page;
    while (page.size() < 2048) {
      tc::Buffer vb;
      auto st = tc::EncodeVectorRecord(gen->NextRecord(), declared, &vb);
      if (st.ok()) {
        st = tc::InferAndCompactVectorRecord(tc::VectorRecordView(vb.data(), vb.size()),
                                             declared, &schema, &page);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "compact failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    page.resize(2048);
    for (auto kind : {tc::CompressionKind::kSnappy, tc::CompressionKind::kHeavy}) {
      tc::Buffer compressed;
      if (!tc::GetCompressor(kind)->Compress(page.data(), page.size(), &compressed).ok()) {
        std::fprintf(stderr, "compress failed\n");
        return 1;
      }
      WriteFile(dir + "/page_" + tc::CompressionKindName(kind) + "_" + dataset,
                std::string(compressed.begin(), compressed.end()));
      ++n;
    }
  }

  std::printf("wrote %d corpus files to %s\n", n, dir.c_str());
  return 0;
}
