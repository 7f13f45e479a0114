// Figure 22: the cost of linear-time field access in the vector-based format.
// Four COUNT-style queries each access a single scalar at a different position
// (first / one-third / two-thirds / last of ~136 leaf values in a wide
// record); on ADM-format records access time is position-independent (offset
// navigation), on vector-based records it grows with the position.
//
// Part (a): larger-than-cache dataset (storage savings still win overall).
// Part (b): small, fully cached dataset, 1 executor vs all cores — CPU cost of
// the linear scan becomes visible with a single core.
#include "bench/bench_util.h"
#include "query/field_access.h"
#include "query/vec/vec_operator.h"

using namespace tc;
using namespace tc::bench;

namespace {

// A wide, flat record: w000 ... w135, all small ints, pos k => field "w<k>".
class WideGenerator {
 public:
  AdmValue Next() {
    AdmValue rec = AdmValue::Object();
    rec.AddField("id", AdmValue::BigInt(static_cast<int64_t>(next_++)));
    for (int i = 0; i < 136; ++i) {
      char name[8];
      std::snprintf(name, sizeof(name), "w%03d", i);
      rec.AddField(name, AdmValue::BigInt(rng_.Range(0, 1000)));
    }
    return rec;
  }

 private:
  uint64_t next_ = 0;
  Rng rng_{7};
};

double CountWhere(Dataset* ds, const std::string& field, size_t threads) {
  QueryOptions qo;
  qo.max_threads = threads;
  std::vector<FieldPath> paths = {FieldPath::Parse(field)};
  std::atomic<uint64_t> matches{0};
  auto run = [&] {
    auto stats = RunPartitioned(
        ds, qo,
        [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
          VecScanPipeline scan =
              MakeVecScan(ctx, ScanSpec{paths, false, nullptr},
                          /*push_predicate=*/true, qo.vec_batch_rows);
          return {std::make_unique<VecToRowBridge>(std::move(scan.op))};
        },
        [&](int) -> RowSink {
          return [&matches](Row&& row) -> Status {
            if (row.cols[0].int_value() < 500) {
              matches.fetch_add(1, std::memory_order_relaxed);
            }
            return Status::OK();
          };
        });
    TC_CHECK(stats.ok());
  };
  run();  // warm
  return TimeIt(run);
}

std::unique_ptr<BenchDataset> BuildWide(SchemaMode mode, int64_t mb,
                                        size_t cache_pages) {
  BenchConfig cfg;
  cfg.mode = mode;
  cfg.cache_pages = cache_pages;
  auto bd = OpenBench(cfg);
  WideGenerator gen;
  uint64_t raw = 0;
  uint64_t target = static_cast<uint64_t>(mb) << 20;
  while (raw < target) {
    AdmValue rec = gen.Next();
    raw += PrintAdm(rec).size();
    Status st = bd->dataset->Insert(rec);
    TC_CHECK(st.ok());
  }
  Status st = bd->dataset->FlushAll();
  TC_CHECK(st.ok());
  return bd;
}

}  // namespace

int main() {
  PrintBanner("Figure 22", "linear-time field access by value position");
  const char* positions[4] = {"w000", "w033", "w067", "w135"};

  std::printf("-- (a) larger-than-cache dataset, all cores --\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "schema", "Q1 pos=1(s)",
              "Q2 pos=34", "Q3 pos=68", "Q4 pos=136");
  for (SchemaMode mode :
       {SchemaMode::kOpen, SchemaMode::kClosed, SchemaMode::kInferred}) {
    auto bd = BuildWide(mode, BenchMegabytes(), /*cache_pages=*/64);
    std::printf("%-10s", SchemaModeName(mode));
    for (const char* pos : positions) {
      std::printf(" %12.3f", CountWhere(bd->dataset.get(), pos, 0));
    }
    std::printf("\n");
  }

  std::printf("\n-- (b) small in-memory dataset, 1 core vs all cores --\n");
  std::printf("%-10s %-8s %12s %12s %12s %12s\n", "schema", "cores",
              "Q1 pos=1(s)", "Q2 pos=34", "Q3 pos=68", "Q4 pos=136");
  int64_t small_mb = std::max<int64_t>(2, BenchMegabytes() / 8);
  for (SchemaMode mode :
       {SchemaMode::kOpen, SchemaMode::kClosed, SchemaMode::kInferred}) {
    auto bd = BuildWide(mode, small_mb, /*cache_pages=*/8192);
    for (size_t threads : {size_t{1}, size_t{0}}) {
      std::printf("%-10s %-8s", SchemaModeName(mode),
                  threads == 1 ? "1" : "all");
      for (const char* pos : positions) {
        std::printf(" %12.4f", CountWhere(bd->dataset.get(), pos, threads));
      }
      std::printf("\n");
    }
  }
  return 0;
}
