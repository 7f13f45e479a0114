// Cross-dataset join demo: builds two in-memory datasets — user profiles and
// tweets whose user.id points into them — and answers "which countries tweet
// the most?" with the partitioned hash join (users build side, tweets probe
// side), printing the per-wave/operator statistics the join records. Also
// runs the same join once through the raw HashJoinDatasets API with a custom
// sink, showing the batch-level consumption pattern.
//
//   $ ./build/examples/join_users_tweets [n_users] [n_tweets]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/dataset.h"
#include "query/paper_queries.h"
#include "query/vec/hash_join.h"
#include "storage/buffer_cache.h"
#include "storage/file.h"
#include "workload/workload.h"

using namespace tc;

namespace {

std::unique_ptr<Dataset> OpenMem(const std::shared_ptr<FileSystem>& fs,
                                 BufferCache* cache, const std::string& name,
                                 size_t partitions) {
  DatasetOptions o;
  o.name = name;
  o.dir = "mem";
  o.mode = SchemaMode::kInferred;
  o.page_size = 16384;
  o.memtable_budget_bytes = 256 * 1024;
  o.wal_sync_every = 0;
  o.fs = fs;
  o.cache = cache;
  auto ds = Dataset::Open(std::move(o), partitions);
  TC_CHECK(ds.ok());
  return std::move(ds).value();
}

}  // namespace

int main(int argc, char** argv) {
  int n_users = argc > 1 ? std::atoi(argv[1]) : 500;
  int n_tweets = argc > 2 ? std::atoi(argv[2]) : 5000;

  auto fs = MakeMemFileSystem();
  BufferCache cache(16384, 4096);
  auto users = OpenMem(fs, &cache, "users", 2);
  auto tweets = OpenMem(fs, &cache, "tweets", 2);

  // Users have dense ids [0, n_users); tweets draw user.id from a 5M-id
  // universe, so remap each tweet's author into the users' id space.
  auto ugen = MakeGenerator("twitter_users", 1);
  for (int i = 0; i < n_users; ++i) {
    TC_CHECK(users->Insert(ugen->NextRecord()).ok());
  }
  auto tgen = MakeGenerator("twitter", 2);
  Rng rng(3);
  for (int i = 0; i < n_tweets; ++i) {
    AdmValue t = tgen->NextRecord();
    RemapTweetUserId(&t, static_cast<int64_t>(rng.Uniform(n_users)));
    TC_CHECK(tweets->Insert(t).ok());
  }
  TC_CHECK(users->FlushAll().ok());
  TC_CHECK(tweets->FlushAll().ok());
  std::printf("loaded %d users, %d tweets\n\n", n_users, n_tweets);

  // 1. The packaged query: top tweeting countries.
  QueryOptions opt;
  auto res = TwitterJoinTopCountries(users.get(), tweets.get(), opt);
  TC_CHECK(res.ok());
  std::printf("top countries by tweet count (plan=%s):\n  %s\n",
              res.value().stats.plan.c_str(), res.value().summary.c_str());
  std::printf("rows scanned: %llu\n",
              static_cast<unsigned long long>(res.value().stats.rows_scanned));
  for (const QueryOpCounters& op : res.value().stats.operators) {
    std::printf("  op %-12s batches=%-6llu rows=%-8llu bytes=%llu\n",
                op.name.c_str(), static_cast<unsigned long long>(op.batches),
                static_cast<unsigned long long>(op.rows),
                static_cast<unsigned long long>(op.bytes));
  }

  // 2. The raw join API: count verified users' tweets, consuming batches.
  JoinSpec spec;
  spec.build_key = "id";
  spec.probe_key = "user.id";
  spec.build_paths = {"verified"};
  spec.probe_paths = {"id"};
  std::vector<uint64_t> verified(tweets->partition_count(), 0);
  auto stats = HashJoinDatasets(
      users.get(), tweets.get(), spec, [&](int partition) -> BatchSink {
        uint64_t* count = &verified[static_cast<size_t>(partition)];
        return [count](const ColumnBatch& b) {
          // Layout: [u.id, u.verified, t.user.id, t.id].
          b.ForEachActive([&](size_t r) {
            const AdmValue v = b.cols[1].ValueAt(r);
            if (v.tag() == AdmTag::kBoolean && v.bool_value()) ++*count;
          });
          return Status::OK();
        };
      });
  TC_CHECK(stats.ok());
  uint64_t total = 0;
  for (uint64_t v : verified) total += v;
  std::printf("\ntweets by verified users: %llu of %llu joined rows "
              "(%llu waves)\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(stats.value().output_rows),
              static_cast<unsigned long long>(stats.value().passes));
  return 0;
}
