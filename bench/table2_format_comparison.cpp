// Table 2: writing ~52 MB of tweets in Avro, Thrift Binary Protocol, Thrift
// Compact Protocol, Protocol Buffers, and the vector-based format — encoded
// size and record-construction time. The schema-driven rival encoders receive
// the full declared tweet type; the vector-based format is self-describing
// (the schema is optional, which is exactly the paper's point).
//
// Paper result shape: sizes are mostly comparable (CP < Avro/ProtoBuf < VB <
// BP); Thrift is the fastest constructor, vector-based second, Avro ~1.9x and
// ProtoBuf ~2.9x slower than vector-based.
#include "bench/bench_util.h"
#include "format/columnar_rivals.h"
#include "format/vector_format.h"

using namespace tc;
using namespace tc::bench;

int main() {
  PrintBanner("Table 2", "tweet encoding: size and construction time");
  // The paper uses 52 MB of tweets; scale to roughly twice TC_BENCH_MB.
  uint64_t target = static_cast<uint64_t>(std::max<int64_t>(
                        8, 2 * BenchMegabytes()))
                    << 20;

  // Pre-generate the records once so only encoding is timed.
  auto gen = MakeTwitterGenerator(99);
  DatasetType closed = gen->ClosedType();
  DatasetType open = gen->OpenType();
  std::vector<AdmValue> tweets;
  uint64_t raw = 0;
  while (raw < target) {
    tweets.push_back(gen->NextRecord());
    raw += PrintAdm(tweets.back()).size();
  }
  std::printf("encoding %zu tweets (%.1f MiB of ADM text)\n\n", tweets.size(),
              MiB(raw));
  std::printf("%-14s %12s %12s %14s\n", "format", "size(MiB)", "time(ms)",
              "vs vector");

  struct Entry {
    const char* name;
    std::function<Status(const AdmValue&, Buffer*)> encode;
  };
  const Entry entries[] = {
      {"avro",
       [&](const AdmValue& r, Buffer* out) { return EncodeAvro(r, *closed.root, out); }},
      {"thrift-bp",
       [&](const AdmValue& r, Buffer* out) {
         return EncodeThriftBinary(r, *closed.root, out);
       }},
      {"thrift-cp",
       [&](const AdmValue& r, Buffer* out) {
         return EncodeThriftCompact(r, *closed.root, out);
       }},
      {"protobuf",
       [&](const AdmValue& r, Buffer* out) {
         return EncodeProtobuf(r, *closed.root, out);
       }},
      {"vector-based",
       [&](const AdmValue& r, Buffer* out) { return EncodeVectorRecord(r, open, out); }},
  };

  double vector_ms = 0;
  struct FormatResult {
    const char* name;
    double mib;
    double ms;
  };
  std::vector<FormatResult> rows;
  for (const Entry& e : entries) {
    Buffer out;
    out.reserve(1 << 20);
    uint64_t bytes = 0;
    double secs = TimeIt([&] {
      for (const AdmValue& t : tweets) {
        out.clear();
        Status st = e.encode(t, &out);
        TC_CHECK(st.ok());
        bytes += out.size();
      }
    });
    rows.push_back({e.name, MiB(bytes), secs * 1000});
    if (std::string(e.name) == "vector-based") vector_ms = secs * 1000;
  }
  for (const FormatResult& r : rows) {
    std::printf("%-14s %12.2f %12.1f %13.2fx\n", r.name, r.mib, r.ms,
                r.ms / vector_ms);
  }
  return 0;
}
