#include "query/paper_queries.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <mutex>
#include <set>

#include "query/scan_predicate.h"
#include "query/planner.h"
#include "query/vec/hash_join.h"
#include "query/vec/vec_operator.h"

namespace tc {
namespace {

uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

PaperQueryResult Summarize(QueryStats stats, std::string summary) {
  PaperQueryResult r;
  r.stats = stats;
  r.result_hash = Fnv1a(summary);
  r.summary = std::move(summary);
  return r;
}

std::string RenderTopK(const std::vector<std::pair<std::string, AggCell>>& top,
                       const std::function<double(const AggCell&)>& score) {
  std::string s;
  char buf[64];
  for (const auto& [k, cell] : top) {
    std::snprintf(buf, sizeof(buf), "=%.4f; ", score(cell));
    s += k;
    s += buf;
  }
  return s;
}

// Builds the scan every plan shares: batched columnar extraction behind a
// VecToRowBridge, so plans and sinks stay row-shaped. Paper-query plans set a
// scan predicate only when it lowers, so it is always pushed into the scan.
std::unique_ptr<Operator> MakeScan(const PartitionContext& ctx, ScanSpec spec) {
  VecScanPipeline scan = MakeVecScan(ctx, std::move(spec), /*push_predicate=*/true,
                                     ctx.options->vec_batch_rows);
  return std::make_unique<VecToRowBridge>(std::move(scan.op),
                                          ctx.vec_counters->For("bridge"));
}

// COUNT(*) over the primary index: a scan with no field extraction.
Result<PaperQueryResult> CountStar(Dataset* ds, const QueryOptions& opt) {
  size_t n = ds->partition_count();
  std::vector<uint64_t> counts(n, 0);
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPartitioned(
          ds, opt,
          [](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
            return MakeScan(ctx, ScanSpec{});
          },
          [&](int pid) -> RowSink {
            return [&counts, pid](Row&&) -> Status {
              ++counts[static_cast<size_t>(pid)];
              return Status::OK();
            };
          }));
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return Summarize(stats, "count=" + std::to_string(total));
}

}  // namespace

// ---------------------------------------------------------------------------
// Twitter
// ---------------------------------------------------------------------------

Result<PaperQueryResult> TwitterQ1(Dataset* ds, const QueryOptions& opt) {
  return CountStar(ds, opt);
}

Result<PaperQueryResult> TwitterQ2(Dataset* ds, const QueryOptions& opt) {
  // SELECT uname, avg(length(t.text)) GROUP BY t.user.name ORDER BY avg DESC
  // LIMIT 10. Local aggregation per partition, global merge (exchange).
  QueryOptions o = opt;
  o.has_nonlocal_exchange = true;
  size_t n = ds->partition_count();
  std::vector<GroupMap> maps(n);
  std::vector<FieldPath> paths = {FieldPath::Parse("user.name"),
                                  FieldPath::Parse("text")};
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPartitioned(
          ds, o,
          [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
            return MakeScan(ctx, ScanSpec{paths, false, nullptr});
          },
          [&](int pid) -> RowSink {
            GroupMap* map = &maps[static_cast<size_t>(pid)];
            return [map](Row&& row) -> Status {
              if (row.cols[0].tag() != AdmTag::kString) return Status::OK();
              double len = row.cols[1].tag() == AdmTag::kString
                               ? static_cast<double>(row.cols[1].string_value().size())
                               : 0.0;
              map->Cell(row.cols[0].string_value()).Add(len);
              return Status::OK();
            };
          }));
  GroupMap merged;
  for (const auto& m : maps) merged.Merge(m);
  auto score = [](const AggCell& c) { return c.avg(); };
  return Summarize(stats, RenderTopK(merged.TopK(10, score), score));
}

Result<PaperQueryResult> TwitterQ3(Dataset* ds, const QueryOptions& opt) {
  // WHERE SOME ht IN entities.hashtags SATISFIES lowercase(ht.text) = "jobs"
  // GROUP BY user.name ORDER BY count DESC LIMIT 10. The consolidated plan
  // pushes the field access through the unnest: it extracts hashtag *texts*
  // (array of strings) instead of hashtag objects (§4.4, Q3 discussion).
  QueryOptions o = opt;
  o.has_nonlocal_exchange = true;
  size_t n = ds->partition_count();
  std::vector<GroupMap> maps(n);
  std::vector<FieldPath> pushed = {FieldPath::Parse("user.name"),
                                   FieldPath::Parse("entities.hashtags[*].text")};
  std::vector<FieldPath> unpushed = {FieldPath::Parse("user.name"),
                                     FieldPath::Parse("entities.hashtags")};
  bool push = opt.consolidate_field_access;
  const auto& paths = push ? pushed : unpushed;
  // Deep pushdown: the existential hashtag predicate is lowered below record
  // assembly — ~90% of tweets carry no "jobs" hashtag and skip extraction.
  std::shared_ptr<const ScanPredicate> pred;
  if (opt.pushdown_scan_predicates) {
    pred = ScanPredicate::And({ScanPredicate::Term("entities.hashtags[*].text",
                                                   CompareOp::kEq,
                                                   AdmValue::String("jobs"),
                                                   /*fold_case=*/true)});
  }
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPartitioned(
          ds, o,
          [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
            ScanSpec spec;
            spec.paths = paths;
            // The sink re-applies the hashtag check, so formats that cannot
            // lower the predicate (BSON) just run the plain scan.
            if (ctx.accessor->SupportsScanPredicate()) spec.predicate = pred;
            return MakeScan(ctx, std::move(spec));
          },
          [&, push](int pid) -> RowSink {
            GroupMap* map = &maps[static_cast<size_t>(pid)];
            return [map, push](Row&& row) -> Status {
              const AdmValue& tags = row.cols[1];
              bool hit = false;
              if (tags.is_collection()) {
                for (size_t i = 0; i < tags.size() && !hit; ++i) {
                  const AdmValue* text =
                      push ? &tags.item(i) : tags.item(i).FindField("text");
                  hit = text != nullptr && text->tag() == AdmTag::kString &&
                        Lower(text->string_value()) == "jobs";
                }
              }
              if (hit && row.cols[0].tag() == AdmTag::kString) {
                map->Cell(row.cols[0].string_value()).AddCount();
              }
              return Status::OK();
            };
          }));
  GroupMap merged;
  for (const auto& m : maps) merged.Merge(m);
  auto score = [](const AggCell& c) { return static_cast<double>(c.count); };
  return Summarize(stats, RenderTopK(merged.TopK(10, score), score));
}

Result<PaperQueryResult> TwitterQ4(Dataset* ds, const QueryOptions& opt) {
  // SELECT * ORDER BY timestamp_ms: full records cross partitions, so this is
  // the query that exercises the schema broadcast (§3.4.1). Records are
  // collected with their source partition IDs, globally sorted, and a sample
  // is decoded against the broadcast schema of its source partition. (As in
  // the paper, final result serialization to the client is excluded.)
  QueryOptions o = opt;
  o.has_nonlocal_exchange = true;
  size_t n = ds->partition_count();
  struct SortRow {
    int64_t ts;
    int32_t partition;
    std::shared_ptr<Buffer> record;
  };
  std::vector<std::vector<SortRow>> rows(n);
  std::vector<FieldPath> paths = {FieldPath::Parse("timestamp_ms")};
  SchemaRegistry registry = SchemaRegistry::Collect(ds, true);
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPartitioned(
          ds, o,
          [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
            return MakeScan(ctx, ScanSpec{paths, /*attach=*/true, nullptr});
          },
          [&](int pid) -> RowSink {
            auto* out = &rows[static_cast<size_t>(pid)];
            return [out](Row&& row) -> Status {
              out->push_back(SortRow{row.cols[0].int_value(), row.partition,
                                     std::move(row.record)});
              return Status::OK();
            };
          }));
  std::vector<SortRow> all;
  for (auto& r : rows) {
    all.insert(all.end(), std::make_move_iterator(r.begin()),
               std::make_move_iterator(r.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const SortRow& a, const SortRow& b) { return a.ts < b.ts; });
  // Decode a sample of the ordered output through the broadcast schemas.
  uint64_t h = 1469598103934665603ull;
  size_t sample = std::min<size_t>(all.size(), 100);
  for (size_t i = 0; i < sample; ++i) {
    const SortRow& r = all[i];
    AdmValue rec;
    const Schema* schema = registry.ForPartition(r.partition);
    TC_RETURN_IF_ERROR(ds->partition(static_cast<size_t>(r.partition))
                           ->DecodeWith(std::string_view(
                                            reinterpret_cast<const char*>(
                                                r.record->data()),
                                            r.record->size()),
                                        schema, &rec));
    h = Fnv1a(std::to_string(r.ts), h);
  }
  PaperQueryResult out =
      Summarize(stats, "ordered=" + std::to_string(all.size()));
  out.result_hash = h;
  return out;
}

// ---------------------------------------------------------------------------
// WoS
// ---------------------------------------------------------------------------

namespace {
const char* kSubjectAscatypePath =
    "static_data.fullrecord_metadata.category_info.subjects.subject[*].ascatype";
const char* kSubjectValuePath =
    "static_data.fullrecord_metadata.category_info.subjects.subject[*].value";
const char* kCountryPath =
    "static_data.fullrecord_metadata.addresses.address_name[*].address_spec.country";

// Distinct country list of one publication, only when address_name is an
// array with more than one distinct country (the Q3/Q4 LET + WHERE clauses).
std::vector<std::string> DistinctCountries(const AdmValue& countries) {
  std::set<std::string> set;
  if (countries.is_collection()) {
    for (size_t i = 0; i < countries.size(); ++i) {
      if (countries.item(i).tag() == AdmTag::kString) {
        set.insert(countries.item(i).string_value());
      }
    }
  }
  return std::vector<std::string>(set.begin(), set.end());
}
}  // namespace

Result<PaperQueryResult> WosQ1(Dataset* ds, const QueryOptions& opt) {
  return CountStar(ds, opt);
}

Result<PaperQueryResult> WosQ2(Dataset* ds, const QueryOptions& opt) {
  // Top subjects with ascatype = "extended" (UNNEST + filter + group).
  QueryOptions o = opt;
  o.has_nonlocal_exchange = true;
  size_t n = ds->partition_count();
  std::vector<GroupMap> maps(n);
  std::vector<FieldPath> paths = {FieldPath::Parse(kSubjectAscatypePath),
                                  FieldPath::Parse(kSubjectValuePath)};
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPartitioned(
          ds, o,
          [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
            return MakeScan(ctx, ScanSpec{paths, false, nullptr});
          },
          [&](int pid) -> RowSink {
            GroupMap* map = &maps[static_cast<size_t>(pid)];
            return [map](Row&& row) -> Status {
              const AdmValue& types = row.cols[0];
              const AdmValue& values = row.cols[1];
              size_t m = std::min(types.size(), values.size());
              for (size_t i = 0; i < m; ++i) {
                if (types.item(i).tag() == AdmTag::kString &&
                    types.item(i).string_value() == "extended" &&
                    values.item(i).tag() == AdmTag::kString) {
                  map->Cell(values.item(i).string_value()).AddCount();
                }
              }
              return Status::OK();
            };
          }));
  GroupMap merged;
  for (const auto& m : maps) merged.Merge(m);
  auto score = [](const AggCell& c) { return static_cast<double>(c.count); };
  return Summarize(stats, RenderTopK(merged.TopK(10, score), score));
}

namespace {

Result<PaperQueryResult> WosCollaboration(Dataset* ds, const QueryOptions& opt,
                                          bool pairs) {
  QueryOptions o = opt;
  o.has_nonlocal_exchange = true;
  size_t n = ds->partition_count();
  std::vector<GroupMap> maps(n);
  std::vector<FieldPath> paths = {FieldPath::Parse(kCountryPath)};
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPartitioned(
          ds, o,
          [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
            return MakeScan(ctx, ScanSpec{paths, false, nullptr});
          },
          [&, pairs](int pid) -> RowSink {
            GroupMap* map = &maps[static_cast<size_t>(pid)];
            return [map, pairs](Row&& row) -> Status {
              // The [*] extraction yields an empty array when address_name is
              // a single object — which also fails the is_array + count > 1
              // predicate of the paper's query.
              std::vector<std::string> countries = DistinctCountries(row.cols[0]);
              if (countries.size() < 2) return Status::OK();
              if (pairs) {
                for (size_t x = 0; x < countries.size(); ++x) {
                  for (size_t y = x + 1; y < countries.size(); ++y) {
                    map->Cell(countries[x] + "+" + countries[y]).AddCount();
                  }
                }
              } else {
                bool usa = std::find(countries.begin(), countries.end(), "USA") !=
                           countries.end();
                if (!usa) return Status::OK();
                for (const auto& c : countries) {
                  if (c != "USA") map->Cell(c).AddCount();
                }
              }
              return Status::OK();
            };
          }));
  GroupMap merged;
  for (const auto& m : maps) merged.Merge(m);
  auto score = [](const AggCell& c) { return static_cast<double>(c.count); };
  return Summarize(stats, RenderTopK(merged.TopK(10, score), score));
}

}  // namespace

Result<PaperQueryResult> WosQ3(Dataset* ds, const QueryOptions& opt) {
  return WosCollaboration(ds, opt, /*pairs=*/false);
}

Result<PaperQueryResult> WosQ4(Dataset* ds, const QueryOptions& opt) {
  return WosCollaboration(ds, opt, /*pairs=*/true);
}

// ---------------------------------------------------------------------------
// Sensors
// ---------------------------------------------------------------------------

namespace {

// Builds the scan for the sensors queries. With the §3.4.2 optimization the
// scan extracts reading temperatures directly (consolidated getValues with
// the access pushed through the unnest: array of doubles); without it, the
// readings objects are materialized and temp is fetched per item (larger
// intermediate results — the Figure 23 "Inferred (un-op)" behaviour, and the
// natural plan for ADM-format datasets).
struct SensorsPlan {
  std::vector<FieldPath> paths;
  bool pushed;
};

SensorsPlan MakeSensorsPlan(const QueryOptions& opt, bool want_sensor_id,
                            bool want_report_time) {
  SensorsPlan plan;
  plan.pushed = opt.consolidate_field_access;
  if (want_sensor_id) plan.paths.push_back(FieldPath::Parse("sensor_id"));
  plan.paths.push_back(FieldPath::Parse(plan.pushed ? "readings[*].temp"
                                                    : "readings"));
  if (want_report_time) plan.paths.push_back(FieldPath::Parse("report_time"));
  return plan;
}

double ReadingTemp(const AdmValue& item, bool pushed) {
  if (pushed) return item.double_value();
  const AdmValue* t = item.FindField("temp");
  return t != nullptr ? t->double_value() : 0.0;
}

}  // namespace

Result<PaperQueryResult> SensorsQ1(Dataset* ds, const QueryOptions& opt) {
  // SELECT count(*) FROM Sensors s, s.readings r — counts unnested readings.
  size_t n = ds->partition_count();
  std::vector<uint64_t> counts(n, 0);
  SensorsPlan plan = MakeSensorsPlan(opt, false, false);
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPartitioned(
          ds, opt,
          [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
            return MakeScan(ctx, ScanSpec{plan.paths, false, nullptr});
          },
          [&](int pid) -> RowSink {
            uint64_t* count = &counts[static_cast<size_t>(pid)];
            return [count](Row&& row) -> Status {
              if (row.cols[0].is_collection()) *count += row.cols[0].size();
              return Status::OK();
            };
          }));
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return Summarize(stats, "readings=" + std::to_string(total));
}

Result<PaperQueryResult> SensorsQ2(Dataset* ds, const QueryOptions& opt) {
  // SELECT max(r.temp), min(r.temp) FROM Sensors s, s.readings r.
  size_t n = ds->partition_count();
  std::vector<AggCell> cells(n);
  SensorsPlan plan = MakeSensorsPlan(opt, false, false);
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPartitioned(
          ds, opt,
          [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
            return MakeScan(ctx, ScanSpec{plan.paths, false, nullptr});
          },
          [&](int pid) -> RowSink {
            AggCell* cell = &cells[static_cast<size_t>(pid)];
            bool pushed = plan.pushed;
            return [cell, pushed](Row&& row) -> Status {
              const AdmValue& arr = row.cols[0];
              if (!arr.is_collection()) return Status::OK();
              for (size_t i = 0; i < arr.size(); ++i) {
                cell->Add(ReadingTemp(arr.item(i), pushed));
              }
              return Status::OK();
            };
          }));
  AggCell total;
  for (const auto& c : cells) total.Merge(c);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "min=%.4f max=%.4f", total.min, total.max);
  return Summarize(stats, buf);
}

namespace {

Result<PaperQueryResult> SensorsTopAvg(Dataset* ds, const QueryOptions& opt,
                                       bool with_window) {
  QueryOptions o = opt;
  o.has_nonlocal_exchange = true;
  size_t n = ds->partition_count();
  std::vector<GroupMap> maps(n);
  SensorsPlan plan = MakeSensorsPlan(opt, true, with_window);
  SensorsQ4Window window = DefaultSensorsQ4Window();
  // Deep pushdown (§3.4.2-deep): the selective window predicate is lowered
  // into the scan and evaluated on the packed vectors — for vector-based
  // records a non-matching position costs a few tag reads (report_time is an
  // early top-level field) instead of assembling all 248 scalars. This is
  // what closes the paper's Figure 23 Q4 anomaly.
  std::shared_ptr<const ScanPredicate> window_pred;
  if (with_window && opt.pushdown_scan_predicates) {
    window_pred = ScanPredicate::And(
        {ScanPredicate::Term("report_time", CompareOp::kGt,
                             AdmValue::BigInt(window.lo)),
         ScanPredicate::Term("report_time", CompareOp::kLt,
                             AdmValue::BigInt(window.hi))});
  }
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPartitioned(
          ds, o,
          [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
            // The sink re-applies the window check, so formats that cannot
            // lower the predicate fall back to the plans below.
            if (window_pred != nullptr && ctx.accessor->SupportsScanPredicate()) {
              ScanSpec spec;
              spec.paths = plan.paths;
              spec.predicate = window_pred;
              return MakeScan(ctx, std::move(spec));
            }
            // With the optimization disabled (and for ADM datasets), the
            // selective filter is evaluated before the reading access: the
            // scan extracts only scalar columns and the readings subtree is
            // fetched in a post-filter map over the raw record.
            if (plan.pushed || !with_window) {
              return MakeScan(ctx, ScanSpec{plan.paths, false, nullptr});
            }
            std::vector<FieldPath> scan_paths = {FieldPath::Parse("sensor_id"),
                                                 FieldPath::Parse("report_time")};
            auto scan =
                MakeScan(ctx, ScanSpec{scan_paths, /*attach=*/true, nullptr});
            auto filter = std::make_unique<FilterOperator>(
                std::move(scan), [window](const Row& row) {
                  int64_t ts = row.cols[1].int_value();
                  return ts > window.lo && ts < window.hi;
                });
            const RecordAccessor* accessor = ctx.accessor;
            std::vector<FieldPath> late = {FieldPath::Parse("readings")};
            auto map = std::make_unique<MapOperator>(
                std::move(filter), [accessor, late](Row* row) -> Status {
                  std::vector<AdmValue> vals;
                  TC_RETURN_IF_ERROR(accessor->GetValues(
                      std::string_view(
                          reinterpret_cast<const char*>(row->record->data()),
                          row->record->size()),
                      late, &vals));
                  // Rewrite columns to the canonical [sensor_id, readings,
                  // report_time] layout of the eager plan.
                  row->cols = {row->cols[0], std::move(vals[0]), row->cols[1]};
                  return Status::OK();
                });
            return {std::move(map)};
          },
          [&](int pid) -> RowSink {
            GroupMap* map = &maps[static_cast<size_t>(pid)];
            bool pushed = plan.pushed;
            return [map, pushed, with_window, window](Row&& row) -> Status {
              if (with_window) {
                int64_t ts = row.cols[2].int_value();
                if (ts <= window.lo || ts >= window.hi) return Status::OK();
              }
              const AdmValue& arr = row.cols[1];
              if (!arr.is_collection()) return Status::OK();
              AggCell& cell = map->Cell(GroupKeyOf(row.cols[0]));
              for (size_t i = 0; i < arr.size(); ++i) {
                cell.Add(ReadingTemp(arr.item(i), pushed));
              }
              return Status::OK();
            };
          }));
  GroupMap merged;
  for (const auto& m : maps) merged.Merge(m);
  auto score = [](const AggCell& c) { return c.avg(); };
  return Summarize(stats, RenderTopK(merged.TopK(10, score), score));
}

}  // namespace

SensorsQ4Window DefaultSensorsQ4Window() {
  // The generator starts report_time at 1556496000000 and advances ~750 ms per
  // record; this window covers roughly the first 0.1% of a 100k-record run
  // (the paper's Q4 predicate selects ~0.001%-0.1%).
  return {1556496000000, 1556496000000 + 60000};
}

Result<PaperQueryResult> SensorsQ3(Dataset* ds, const QueryOptions& opt) {
  return SensorsTopAvg(ds, opt, /*with_window=*/false);
}

Result<PaperQueryResult> SensorsQ4(Dataset* ds, const QueryOptions& opt) {
  return SensorsTopAvg(ds, opt, /*with_window=*/true);
}

// ---------------------------------------------------------------------------
// Cross-dataset join + planned scans (the vectorized-engine tier)
// ---------------------------------------------------------------------------

Result<PaperQueryResult> TwitterJoinTopCountries(Dataset* users,
                                                 Dataset* tweets,
                                                 const QueryOptions& opt) {
  // SELECT u.country, count(*) FROM Tweets t JOIN Users u ON t.user.id = u.id
  // GROUP BY u.country ORDER BY count DESC LIMIT 10 — the first cross-dataset
  // plan: a partitioned hash join (users build, tweets probe), group-by over
  // the joined batches, global merge.
  JoinSpec spec;
  spec.build_key = "id";
  spec.probe_key = "user.id";
  spec.build_paths = {"country"};
  spec.batch_rows = opt.vec_batch_rows;
  spec.max_threads = opt.max_threads;
  spec.consolidate_field_access = opt.consolidate_field_access;
  spec.pushdown_scan_predicates = opt.pushdown_scan_predicates;

  size_t pn = tweets->partition_count();
  std::vector<GroupMap> maps(pn);
  // Output layout: [u.id, u.country, t.user.id]; country is column 1.
  TC_ASSIGN_OR_RETURN(
      JoinStats jstats,
      HashJoinDatasets(users, tweets, spec, [&](int pid) -> JoinBatchSink {
        GroupMap* map = &maps[static_cast<size_t>(pid)];
        return [map](const ColumnBatch& batch) -> Status {
          const ColumnVector& country = batch.cols[1];
          batch.ForEachActive([&](size_t r) {
            if (!country.HasValueAt(r) || country.TagAt(r) != AdmTag::kString) {
              return;
            }
            if (country.kind() == ColumnVector::Kind::kString) {
              map->Cell(std::string(country.StringAt(r))).AddCount();
            } else {
              map->Cell(country.ValueAt(r).string_value()).AddCount();
            }
          });
          return Status::OK();
        };
      }));
  GroupMap merged;
  for (const auto& m : maps) merged.Merge(m);
  auto score = [](const AggCell& c) { return static_cast<double>(c.count); };

  QueryStats stats;
  stats.wall_seconds = jstats.wall_seconds;
  stats.rows_scanned = jstats.build_rows + jstats.probe_rows;
  stats.operators = std::move(jstats.operators);
  stats.plan = "hash-join";
  return Summarize(stats, RenderTopK(merged.TopK(10, score), score));
}

Result<PaperQueryResult> TwitterWindowCount(Dataset* ds, int64_t lo, int64_t hi,
                                            const QueryOptions& opt) {
  // SELECT count(*) WHERE lo < timestamp_ms < hi, access path chosen by the
  // cost-based planner — full scan, lowered filtered scan, or a secondary-
  // index probe when the dataset indexes timestamp_ms and the window is
  // narrow. The count is plan-invariant; the chosen plan lands in stats.plan.
  auto pred = ScanPredicate::And(
      {ScanPredicate::Term("timestamp_ms", CompareOp::kGt, AdmValue::BigInt(lo)),
       ScanPredicate::Term("timestamp_ms", CompareOp::kLt, AdmValue::BigInt(hi))});
  size_t n = ds->partition_count();
  std::vector<uint64_t> counts(n, 0);
  TC_ASSIGN_OR_RETURN(
      QueryStats stats,
      RunPlannedScan(ds, opt, /*paths=*/{}, pred, [&](int pid) -> RowSink {
        uint64_t* count = &counts[static_cast<size_t>(pid)];
        return [count](Row&&) -> Status {
          ++*count;
          return Status::OK();
        };
      }));
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return Summarize(stats, "count=" + std::to_string(total));
}

Result<PaperQueryResult> RunPaperQuery(const std::string& dataset, int q,
                                       Dataset* ds, const QueryOptions& opt) {
  using Fn = Result<PaperQueryResult> (*)(Dataset*, const QueryOptions&);
  static const Fn kTwitter[] = {TwitterQ1, TwitterQ2, TwitterQ3, TwitterQ4};
  static const Fn kWos[] = {WosQ1, WosQ2, WosQ3, WosQ4};
  static const Fn kSensors[] = {SensorsQ1, SensorsQ2, SensorsQ3, SensorsQ4};
  if (q < 1 || q > 4) return Status::InvalidArgument("query index out of range");
  if (dataset == "twitter") return kTwitter[q - 1](ds, opt);
  if (dataset == "wos") return kWos[q - 1](ds, opt);
  if (dataset == "sensors") return kSensors[q - 1](ds, opt);
  return Status::InvalidArgument("unknown dataset " + dataset);
}

}  // namespace tc
