// "Figure 27" (repo extension; no paper counterpart): the vectorized batch
// engine measured end to end.
//
//  (a) users ⋈ tweets partitioned hash join: time, probe throughput, output
//      cardinality and grace waves.
//  (b) cost-based planner axis: COUNT(*) over a timestamp_ms window on a
//      secondary-indexed tweets dataset, narrow (index-probe) vs wide
//      (filtered-scan), with the chosen plan printed from QueryStats.
//
// TC_JOIN_ASSERT=1 (the CI smoke mode) exits non-zero unless the join's
// output cardinality equals the count of loaded tweets whose author is a
// loaded user, the narrow window runs as index-probe, and the wide window as
// filtered-scan.
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "query/planner.h"
#include "query/vec/hash_join.h"

namespace tc {
namespace bench {
namespace {

struct JoinData {
  std::unique_ptr<BenchDataset> users;
  std::unique_ptr<BenchDataset> tweets;
  uint64_t n_users = 0;
  uint64_t n_tweets = 0;
  /// Tweets whose author id is a loaded user: the join's output cardinality,
  /// counted while loading.
  uint64_t join_rows = 0;
  int64_t ts_min = 0;
  int64_t ts_max = 0;
};

JoinData LoadJoinData(int64_t tweets_mb) {
  JoinData d;
  BenchConfig ucfg;
  ucfg.workload = "twitter_users";
  ucfg.partitions = 2;
  // Size the caches to hold both datasets: the join axis compares execution
  // engines, and buffer-cache misses would be identical noise in both arms.
  ucfg.cache_pages = 2048;
  d.users = OpenBench(ucfg);
  // Users scale with the probe side: ~1 user per 4 KB of tweets keeps the
  // build side memory-resident at smoke scale and multi-wave at larger ones.
  d.n_users = static_cast<uint64_t>(tweets_mb) << 8;
  auto ugen = MakeGenerator("twitter_users", ucfg.seed);
  std::unordered_set<int64_t> user_ids;
  for (uint64_t i = 0; i < d.n_users; ++i) {
    AdmValue user = ugen->NextRecord();
    user_ids.insert(user.FindField("id")->int_value());
    Status st = d.users->dataset->Insert(user);
    TC_CHECK(st.ok());
  }
  TC_CHECK(d.users->dataset->FlushAll().ok());

  BenchConfig tcfg;
  tcfg.workload = "twitter";
  tcfg.partitions = 4;
  tcfg.cache_pages = 2048;
  tcfg.secondary_index_field = "timestamp_ms";  // for the planner axis (b)
  d.tweets = OpenBench(tcfg);
  auto tgen = MakeGenerator("twitter", tcfg.seed);
  Rng rng(tcfg.seed ^ 0x301);
  uint64_t raw = 0;
  uint64_t target = static_cast<uint64_t>(tweets_mb) << 20;
  bool first = true;
  while (raw < target) {
    AdmValue rec = tgen->NextRecord();
    // Remap author ids into the users universe (plus a 5% miss tail).
    int64_t uid = static_cast<int64_t>(rng.Uniform(d.n_users + d.n_users / 20 + 1));
    RemapTweetUserId(&rec, uid);
    d.join_rows += user_ids.count(uid);
    int64_t ts = rec.FindField("timestamp_ms")->int_value();
    if (first || ts < d.ts_min) d.ts_min = ts;
    if (first || ts > d.ts_max) d.ts_max = ts;
    first = false;
    raw += PrintAdm(rec).size();
    ++d.n_tweets;
    Status st = d.tweets->dataset->Insert(rec);
    TC_CHECK(st.ok());
  }
  TC_CHECK(d.tweets->dataset->FlushAll().ok());
  return d;
}

struct JoinRun {
  double best_seconds = 1e30;
  uint64_t output_rows = 0;
  uint64_t passes = 0;
};

JoinRun RunJoin(JoinData* d, int reps) {
  JoinRun run;
  for (int i = 0; i < reps; ++i) {
    JoinSpec spec;
    spec.build_key = "id";
    spec.probe_key = "user.id";
    spec.build_paths = {"country"};
    double secs = TimeIt([&] {
      auto stats = HashJoinDatasets(
          d->users->dataset.get(), d->tweets->dataset.get(), spec,
          [&](int) -> BatchSink {
            // Output cardinality comes from JoinStats; the sink just drains.
            return [](const ColumnBatch&) { return Status::OK(); };
          });
      TC_CHECK(stats.ok());
      run.output_rows = stats.value().output_rows;
      run.passes = stats.value().passes;
    });
    run.best_seconds = std::min(run.best_seconds, secs);
  }
  return run;
}

int RunJoinAxis(JoinData* d, bool assert_mode) {
  std::printf("-- (a) users(%llu) \xE2\x8B\x88 tweets(%llu) on user.id --\n",
              static_cast<unsigned long long>(d->n_users),
              static_cast<unsigned long long>(d->n_tweets));
  std::printf("%10s %14s %12s %8s\n", "time(s)", "probe rows/s", "output rows",
              "waves");
  JoinRun run = RunJoin(d, /*reps=*/5);
  std::printf("%10.3f %14.0f %12llu %8llu\n\n", run.best_seconds,
              static_cast<double>(d->n_tweets) / run.best_seconds,
              static_cast<unsigned long long>(run.output_rows),
              static_cast<unsigned long long>(run.passes));
  if (!assert_mode) return 0;
  if (run.output_rows != d->join_rows) {
    std::fprintf(stderr,
                 "FAIL: join produced %llu rows, %llu tweets have a loaded author\n",
                 static_cast<unsigned long long>(run.output_rows),
                 static_cast<unsigned long long>(d->join_rows));
    return 1;
  }
  std::printf("TC_JOIN_ASSERT ok: join output matches the loaded data (%llu rows)\n",
              static_cast<unsigned long long>(run.output_rows));
  return 0;
}

int RunPlannerAxis(JoinData* d, bool assert_mode) {
  std::printf("-- (b) planner axis: COUNT(*) over timestamp_ms windows "
              "(secondary-indexed) --\n");
  std::printf("%-8s %10s %14s %12s %10s\n", "window", "time(s)", "plan",
              "count", "sel est");
  int64_t span = d->ts_max - d->ts_min + 1;
  struct Win {
    const char* name;
    int64_t lo, hi;
  };
  Win narrow{"narrow", d->ts_min - 1, d->ts_min + span / 100};
  Win wide{"wide", d->ts_min - 1, d->ts_max + 1};
  std::string narrow_plan, wide_plan;
  for (const Win& w : {narrow, wide}) {
    QueryOptions opt;
    PaperQueryResult res;
    double secs = TimeIt([&] {
      auto r = TwitterWindowCount(d->tweets->dataset.get(), w.lo, w.hi, opt);
      TC_CHECK(r.ok());
      res = std::move(r).value();
    });
    std::printf("%-8s %10.3f %14s %12s %10.4f\n", w.name, secs,
                res.stats.plan.c_str(), res.summary.c_str(),
                res.stats.plan_selectivity);
    (w.name == narrow.name ? narrow_plan : wide_plan) = res.stats.plan;
  }
  std::printf("\n");
  if (!assert_mode) return 0;
  bool ok = true;
  if (narrow_plan != "index-probe") {
    std::fprintf(stderr, "FAIL: narrow window ran as %s, want index-probe\n",
                 narrow_plan.c_str());
    ok = false;
  }
  if (wide_plan != "filtered-scan") {
    std::fprintf(stderr, "FAIL: wide window ran as %s, want filtered-scan\n",
                 wide_plan.c_str());
    ok = false;
  }
  if (ok) {
    std::printf("TC_JOIN_ASSERT ok: planner picked index-probe (narrow) and "
                "filtered-scan (wide)\n");
  }
  return ok ? 0 : 1;
}

int Run() {
  PrintBanner("Figure 27", "vectorized hash join; cost-based plan picker");
  bool assert_mode = EnvInt64("TC_JOIN_ASSERT", 0) != 0;
  JoinData d = LoadJoinData(BenchMegabytes());
  int rc = RunJoinAxis(&d, assert_mode);
  int rc2 = RunPlannerAxis(&d, assert_mode);
  return rc != 0 ? rc : rc2;
}

}  // namespace
}  // namespace bench
}  // namespace tc

int main() { return tc::bench::Run(); }
