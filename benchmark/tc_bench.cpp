// The repository benchmark: one workload per process, driven only through the
// engine's public API (ClusterHarness, IngestFrontEnd, Dataset, the paper
// queries, LsmStats, BufferCache and DeviceModel counters).
//
//   tc_bench --workload <feed_twitter|scan_sensors|lookup_twitter>
//            --seed N --seconds S --data-dir DIR
//            [--trace-out FILE --untraced-ops-per-s X] [--quick] [--self-test]
//
// Every run has the same shape:
//   1. inputs are generated from --seed (records are built in memory, never
//      timed);
//   2. set-up — open a fresh dataset, load the workload's preload through the
//      ingest front end, flush and wait out every merge — runs five times and
//      setup_s is the median (once in a traced run);
//   3. the timed phase runs for --seconds;
//   4. every answer is checked; a wrong answer or a non-OK status counts as a
//      failed operation and makes the process exit 1.
// The last line of stdout is one JSON object: the end-to-end metrics, and in
// a traced run (--trace-out) the per-layer metrics, with provenance. The
// Chrome trace (spans plus per-layer aggregates) goes to --trace-out.
// benchmark/run.py builds this program and turns that line into the
// benchmark's result; README.md documents every workload and metric.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adm/printer.h"
#include "cluster/cluster.h"
#include "core/ingest.h"
#include "query/paper_queries.h"
#include "storage/device_model.h"
#include "trace.h"
#include "workload/workload.h"

extern char** environ;

namespace tcbench {
namespace {

using tc::AdmValue;
using tc::Dataset;
using tc::Status;

// Fixed settings of every workload (README "Fixed settings").
constexpr size_t kPartitionsPerNode = 2;
constexpr size_t kExecutorThreads = 2;
constexpr size_t kPageBytes = 32 * 1024;
constexpr size_t kMemtableBytes = 2 * 1024 * 1024;
constexpr size_t kWalSyncEvery = 1;
// Feeds are closed loops: 256-record batches, at most 4 unacked tickets.
constexpr size_t kBatchRecords = 256;
constexpr size_t kMaxOutstanding = 4;
constexpr int kSetups = 5;
constexpr size_t kMaxTraceEvents = size_t{1} << 20;
// Lookup pairs per window of the lookup workload's timed phase (see Windows).
constexpr size_t kPairsPerWindow = 2048;

struct WorkloadSpec {
  const char* name;
  const char* dataset;  // workload generator
  uint64_t preload_bytes;
  uint64_t quick_preload_bytes;
  size_t cache_pages;  // of kPageBytes each
};

// Sizes are raw ADM text bytes. On disk (inferred schema, compressed) the
// sensors preload takes ~3.8 MiB, each of its two partitions ~1.9 MiB, against
// a 1 MiB cache: every scan reads every page through the cache. (A partition
// just under the cache made the hit rate, and the round time, swing with the
// seed.) The twitter preload takes ~13 MiB against a 48 MiB cache, so lookups
// find their pages cached.
constexpr WorkloadSpec kWorkloads[] = {
    {"feed_twitter", "twitter", 10u << 20, 1u << 20, 192},
    {"scan_sensors", "sensors", 16u << 20, 2u << 20, 32},
    {"lookup_twitter", "twitter", 32u << 20, 2u << 20, 1536},
};

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  std::string data_dir;
  std::string trace_out;
  double untraced_ops_per_s = 0;
  bool quick = false;
  bool self_test = false;
};

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t n = 1;  // samples behind the value
};
using MetricMap = std::map<std::string, Metric>;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

/// A uniform random sample (reservoir) of at most 64 Ki latencies, so the
/// bookkeeping of a run with millions of operations stays 512 KiB and does
/// not show in peak_rss_mib. Percentiles of the sample estimate the run's;
/// count() is every latency seen.
class LatencySample {
 public:
  explicit LatencySample(uint64_t seed) : rng_(seed) { values_.reserve(kCapacity); }

  void Add(double v) {
    ++count_;
    if (values_.size() < kCapacity) {
      values_.push_back(v);
      return;
    }
    uint64_t slot = rng_.Uniform(count_);
    if (slot < kCapacity) values_[slot] = v;
  }

  void AddAll(const LatencySample& other) {
    for (double v : other.values_) Add(v);
  }

  uint64_t count() const { return count_; }
  double Median() const { return tcbench::Median(values_); }
  double Percentile(double p) const { return tcbench::Percentile(values_, p); }

 private:
  static constexpr size_t kCapacity = size_t{1} << 16;

  tc::Rng rng_;
  std::vector<double> values_;
  uint64_t count_ = 0;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// /proc/self/status field in KiB (VmRSS, VmHWM).
double ProcStatusKiB(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  size_t len = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len && line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return std::nan("");
}

volatile uint64_t g_calibration_sink = 0;

/// A fixed pure-CPU loop: machine drift shows as a change in its time.
double CalibrationMs() {
  int64_t t0 = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_calibration_sink = x;
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// Bytes the allocator has handed out and not taken back, over every arena
/// and mmapped chunk: the memory the process is using, without the free
/// pages malloc keeps. (Resident set size mostly measured those: it differed
/// by a quarter between identical runs; this repeats to a few tenths of a
/// per cent.)
size_t HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// Samples HeapInUse() every 20 ms on its own thread, keeping the maximum.
class HeapSampler {
 public:
  HeapSampler() : peak_(HeapInUse()), thread_([this] { Loop(); }) {}
  ~HeapSampler() { Stop(); }
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  /// Stops sampling and returns the peak.
  size_t Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    peak_ = std::max(peak_, HeapInUse());
    return peak_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(20), [&] { return stop_; })) {
      peak_ = std::max(peak_, HeapInUse());
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  size_t peak_;
  std::thread thread_;  // last: starts after every member it uses
};

void SetId(AdmValue* rec, int64_t id) {
  for (size_t f = 0; f < rec->field_count(); ++f) {
    if (rec->field_name(f) == "id") {
      rec->field_value(f) = AdmValue::BigInt(id);
      return;
    }
  }
  rec->AddField("id", AdmValue::BigInt(id));
}

int Digits(int64_t v) {
  int d = v < 0 ? 2 : 1;
  for (v = v < 0 ? -v : v; v >= 10; v /= 10) ++d;
  return d;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + ",\"n\":" + std::to_string(m.n) + "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Correctness accounting: every operation and every check is attempted once;
// a non-OK status or a wrong answer is a failure.
// ---------------------------------------------------------------------------

class Checker {
 public:
  bool Check(bool ok, const std::string& what) {
    Count(1, ok ? 0 : 1, what);
    return ok;
  }

  void Count(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_.fetch_add(attempted, std::memory_order_relaxed);
    if (failed == 0) return;
    failed_.fetch_add(failed, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 8) messages_.push_back(what);
  }

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<AdmValue> records;
  std::vector<uint32_t> raw_sizes;  // ADM text bytes of each record
  uint64_t raw_bytes = 0;
};

/// Records from `dataset`'s generator until `raw_target` ADM bytes; record i
/// gets primary key i * id_stride.
Inputs Generate(const std::string& dataset, uint64_t seed, uint64_t raw_target,
                int64_t id_stride) {
  auto gen = tc::MakeGenerator(dataset, seed);
  Inputs in;
  while (in.raw_bytes < raw_target) {
    AdmValue rec = gen->NextRecord();
    SetId(&rec, static_cast<int64_t>(in.records.size()) * id_stride);
    uint32_t raw = static_cast<uint32_t>(tc::PrintAdm(rec).size());
    in.raw_sizes.push_back(raw);
    in.raw_bytes += raw;
    in.records.push_back(std::move(rec));
  }
  return in;
}

// ---------------------------------------------------------------------------
// One opened dataset with its instrumentation
// ---------------------------------------------------------------------------

struct Env {
  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    harness.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  Dataset* ds() const { return harness->dataset(); }

  std::string dir;
  std::shared_ptr<tc::DeviceModel> device;  // counts bytes; never throttles
  std::shared_ptr<TimedFileSystem> fs;
  std::unique_ptr<tc::BufferCache> cache;
  std::unique_ptr<tc::ClusterHarness> harness;
};

tc::Result<std::unique_ptr<Env>> OpenEnv(const std::string& dir,
                                         const WorkloadSpec& spec,
                                         tc::SchemaMode mode) {
  auto env = std::make_unique<Env>();
  env->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!std::filesystem::create_directories(dir, ec)) {
    return Status::IOError("cannot create " + dir + ": " + ec.message());
  }
  std::shared_ptr<tc::FileSystem> posix = tc::MakePosixFileSystem();
  env->device = std::make_shared<tc::DeviceModel>(tc::DeviceProfile::Unthrottled());
  posix->set_device(env->device);
  env->fs = std::make_shared<TimedFileSystem>(posix);
  env->cache = std::make_unique<tc::BufferCache>(kPageBytes, spec.cache_pages);

  tc::DatasetOptions o;
  o.name = "tcb";
  o.dir = dir;
  o.mode = mode;
  o.compression = true;
  o.page_size = kPageBytes;
  o.memtable_budget_bytes = kMemtableBytes;
  o.use_wal = true;
  o.wal_sync_every = kWalSyncEvery;
  o.fs = env->fs;
  o.cache = env->cache.get();
  tc::ClusterTopology topology;
  topology.nodes = 1;
  topology.partitions_per_node = kPartitionsPerNode;
  topology.executor_threads = kExecutorThreads;
  TC_ASSIGN_OR_RETURN(env->harness, tc::ClusterHarness::Create(topology, std::move(o)));
  return env;
}

Status Quiesce(Dataset* ds) {
  Span span("lsm.quiesce");
  TC_RETURN_IF_ERROR(ds->FlushAll());
  return ds->WaitForBackgroundWork();
}

/// Marks a phase: spans opened on threads with no open span of their own
/// (writers, flushes, merges) are parented to it.
class Phase {
 public:
  explicit Phase(const char* name)
      : span_(name), previous_(Tracer::Global().context()) {
    Tracer::Global().set_context(span_.id());
  }
  ~Phase() { Tracer::Global().set_context(previous_); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Span span_;
  uint64_t previous_;
};

/// A timed phase cut into windows of consecutive operations, and its speed
/// taken from the fast side of those windows.
///
/// Other tenants of the host slow this program's memory-bound work on every
/// vCPU at once, by up to 2.4x, for stretches from a fraction of a second to
/// minutes (a 12 MiB pointer chase took 40-98 ms from one moment to the next).
/// A whole-run median follows how much of the run such stretches covered; the
/// fast side of short windows follows the program. Rate() is the 99th
/// percentile of the windows' rates, Latency() the 1st percentile of their
/// median operation latencies.
class Windows {
 public:
  /// A window of `ops` operations that took `ns`, whose median operation
  /// took `median_us`.
  void Add(uint64_t ops, int64_t ns, double median_us) {
    rates_.push_back(static_cast<double>(ops) / Seconds(ns));
    medians_.push_back(median_us);
  }

  /// Operations per second.
  Metric Rate() const { return {Percentile(rates_, 0.99), "1/s", rates_.size()}; }
  /// Microseconds per operation.
  Metric Latency() const { return {Percentile(medians_, 0.01), "us", medians_.size()}; }

 private:
  std::vector<double> rates_;
  std::vector<double> medians_;
};

// ---------------------------------------------------------------------------
// Closed-loop feeder: the calling thread submits batches to the ingest front
// end with at most kMaxOutstanding tickets unacked; an acker thread waits on
// the tickets in order and times each from its Submit call to its ack.
// ---------------------------------------------------------------------------

class Feeder {
 public:
  Feeder(Dataset* ds, Checker* checker)
      : front_end_(ds), checker_(checker), acker_([this] { AckLoop(); }) {}

  ~Feeder() { Close(); }

  Feeder(const Feeder&) = delete;
  Feeder& operator=(const Feeder&) = delete;

  void Submit(std::vector<AdmValue> batch) {
    {
      Span span("core.ack_wait");
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return pending_.size() < kMaxOutstanding; });
    }
    Pending p;
    p.records = batch.size();
    p.submit_ns = NowNs();
    {
      Span span("core.submit");
      p.ticket = front_end_.Submit(std::move(batch));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(std::move(p));
    }
    cv_.notify_all();
  }

  /// Waits for every ticket, stops the acker and drains the front end.
  Status Close() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return pending_.empty(); });
      closing_ = true;
    }
    cv_.notify_all();
    if (acker_.joinable()) acker_.join();
    return front_end_.Drain();
  }

  /// Ack latency of every batch. Valid after Close().
  const LatencySample& ack_us() const { return ack_us_; }

 private:
  struct Pending {
    tc::IngestTicket ticket;
    int64_t submit_ns = 0;
    size_t records = 0;
  };

  void AckLoop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !pending_.empty() || closing_; });
        if (pending_.empty()) return;
        p = pending_.front();
      }
      Status st = p.ticket.Wait();
      int64_t acked_ns = NowNs();
      uint64_t rejected = st.ok() ? 0 : std::max<size_t>(1, p.ticket.errors().size());
      rejected = std::min<uint64_t>(rejected, p.records);
      checker_->Count(p.records, rejected, "ingest: " + st.ToString());
      {
        std::lock_guard<std::mutex> lock(mu_);
        ack_us_.Add(static_cast<double>(acked_ns - p.submit_ns) / 1e3);
        pending_.pop_front();
      }
      cv_.notify_all();
    }
  }

  tc::IngestFrontEnd front_end_;
  Checker* checker_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;  // submitted, not yet acked; front = oldest
  bool closing_ = false;
  LatencySample ack_us_{0xac4};
  std::thread acker_;  // last: starts after every member it uses
};

void SubmitAll(Feeder* feeder, std::vector<AdmValue> records) {
  for (size_t i = 0; i < records.size(); i += kBatchRecords) {
    size_t end = std::min(records.size(), i + kBatchRecords);
    feeder->Submit(std::vector<AdmValue>(
        std::make_move_iterator(records.begin() + static_cast<ptrdiff_t>(i)),
        std::make_move_iterator(records.begin() + static_cast<ptrdiff_t>(end))));
  }
}

// ---------------------------------------------------------------------------
// Point lookups
// ---------------------------------------------------------------------------

using GetResult = tc::Result<std::optional<AdmValue>>;

/// Dataset::Get's own composition — route, view, LSM lookup, decode — with a
/// span around each layer it crosses. Used in traced runs only; untraced runs
/// call Dataset::Get.
GetResult TracedGet(Dataset* ds, int64_t pk) {
  tc::DatasetPartition* part = nullptr;
  tc::PartitionReadView view;
  {
    Span span("core.route_view");
    part = ds->partition(ds->PartitionOf(pk));
    view = part->AcquireReadView();
  }
  tc::Result<std::optional<tc::Buffer>> payload = [&] {
    Span span("lsm.get");
    return view.primary->Get(tc::BtreeKey{pk, 0});
  }();
  if (!payload.ok()) return payload.status();
  if (!payload.value().has_value()) return std::optional<AdmValue>{};
  const tc::Buffer& bytes = *payload.value();
  AdmValue out;
  {
    Span span("core.decode");
    TC_RETURN_IF_ERROR(part->DecodeRecord(
        std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
        &out));
  }
  return std::optional<AdmValue>{std::move(out)};
}

GetResult DoGet(Dataset* ds, int64_t pk) {
  return Tracer::Global().enabled() ? TracedGet(ds, pk) : ds->Get(pk);
}

/// Presence matches `expect_present` and a present record carries `pk`.
bool GetMatches(const GetResult& r, int64_t pk, bool expect_present) {
  if (!r.ok() || r.value().has_value() != expect_present) return false;
  if (!expect_present) return true;
  const AdmValue* id = r.value()->FindField("id");
  return id != nullptr && id->int_value() == pk;
}

std::string GetDescription(const GetResult& r, int64_t pk) {
  if (!r.ok()) return "get " + std::to_string(pk) + ": " + r.status().ToString();
  return "get " + std::to_string(pk) + ": " +
         (r.value().has_value() ? "wrong record" : "missing/unexpected presence");
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct Run {
  Options opt;
  const WorkloadSpec* spec = nullptr;
  bool traced = false;
  Checker checker;
  std::unique_ptr<Env> env;

  std::vector<double> setup_s;
  LatencySample ack_us{1};  // every acked batch of the run
  LatencySample get_us{2};  // every point lookup of the run
  uint64_t raw_written = 0;    // ADM bytes submitted to the final dataset
  uint64_t raw_live = 0;       // ADM bytes of the records it holds at the end

  // Timed phase. Each workload sets the two timing metrics its own way.
  uint64_t ops = 0;
  double timed_s = 0;
  Metric ops_per_s;
  Metric op_latency_us;
  LatencySample op_us{3};  // every timed operation
  double coverage = 0;  // timed thread's span self time / timed wall
  size_t heap_peak = 0;

  // Memory held before any dataset opens, with only the inputs the run keeps
  // to the end (pools, samples): the base of the memory metrics.
  size_t heap_base = 0;
  double rss_base_kib = 0;

  MetricMap detail;  // ungated numbers, reported beside the metrics
  std::map<int, tc::QueryStats> query_stats;  // last run of each paper query
  std::map<int, uint64_t> query_cache_misses;
  std::map<std::string, uint64_t> inputs;
};

/// The operation of lookup_twitter: a Get of a random stored key (keys are
/// even) followed by a Get of a random odd key inside the stored range, which
/// must miss. Half the Gets hit and half miss, and the pair's latency stays
/// unimodal where a single Get's would not (a miss the filters reject costs a
/// tenth of a hit). Each Get is also timed alone, and every kPairsPerWindow
/// consecutive pairs make a window.
class LookupPairs {
 public:
  LookupPairs(Run* run, uint64_t n, uint64_t seed) : run_(run), n_(n), rng_(seed) {
    window_us_.reserve(kPairsPerWindow);
  }

  /// Runs one pair; `on_hit(i, record)` sees the record found for key 2i.
  /// Returns the time the pair ended.
  template <typename OnHit>
  int64_t Next(Dataset* ds, OnHit on_hit) {
    Span span("op.get_pair");
    uint64_t i = rng_.Uniform(n_);
    int64_t hit_pk = static_cast<int64_t>(2 * i);
    int64_t miss_pk = static_cast<int64_t>(2 * rng_.Uniform(n_) + 1);
    int64_t t0 = NowNs();
    GetResult hit = DoGet(ds, hit_pk);
    int64_t t1 = NowNs();
    GetResult miss = DoGet(ds, miss_pk);
    int64_t t2 = NowNs();
    hit_us_.Add(static_cast<double>(t1 - t0) / 1e3);
    miss_us_.Add(static_cast<double>(t2 - t1) / 1e3);
    pairs_us_.Add(static_cast<double>(t2 - t0) / 1e3);
    if (window_us_.empty()) window_start_ns_ = t0;
    window_us_.push_back(static_cast<double>(t2 - t0) / 1e3);
    if (window_us_.size() == kPairsPerWindow) {
      windows_.Add(kPairsPerWindow, t2 - window_start_ns_, Median(window_us_));
      window_us_.clear();
    }
    if (run_->checker.Check(GetMatches(hit, hit_pk, true), GetDescription(hit, hit_pk))) {
      on_hit(i, *hit.value());
    }
    run_->checker.Check(GetMatches(miss, miss_pk, false), GetDescription(miss, miss_pk));
    return t2;
  }

  const LatencySample& hit_us() const { return hit_us_; }
  const LatencySample& miss_us() const { return miss_us_; }
  const LatencySample& pairs_us() const { return pairs_us_; }
  const Windows& windows() const { return windows_; }

 private:
  Run* run_;
  uint64_t n_;
  tc::Rng rng_;
  LatencySample hit_us_{4};
  LatencySample miss_us_{5};
  LatencySample pairs_us_{6};
  int64_t window_start_ns_ = 0;
  std::vector<double> window_us_;  // pairs of the open window
  Windows windows_;
};

/// Hit and miss latencies of a LookupPairs reader, into the run's details.
void ReportLookups(Run* run, const LookupPairs& pairs) {
  run->get_us.AddAll(pairs.hit_us());
  run->get_us.AddAll(pairs.miss_us());
  for (const auto& [kind, sample] :
       {std::pair<const char*, const LatencySample*>{"hit", &pairs.hit_us()},
        {"miss", &pairs.miss_us()}}) {
    std::string prefix = std::string("lookup_") + kind;
    run->detail[prefix + "_p50_us"] = {sample->Median(), "us", sample->count()};
    run->detail[prefix + "_p99_us"] = {sample->Percentile(0.99), "us", sample->count()};
  }
}

void MarkMemoryBase(Run* run) {
  run->heap_base = HeapInUse();
  run->rss_base_kib = ProcStatusKiB("VmRSS");
}

std::string DataDir(const Run& run, const std::string& leaf) {
  return run.opt.data_dir + "/" + leaf;
}

/// Opens a fresh dataset and loads `records` through the ingest front end,
/// then flushes and waits out every merge — the work setup_s times.
Status SetUp(Run* run, const std::string& dir, tc::SchemaMode mode,
             std::vector<AdmValue> records, std::unique_ptr<Env>* out) {
  Phase phase("phase.setup");
  TC_ASSIGN_OR_RETURN(std::unique_ptr<Env> env, OpenEnv(dir, *run->spec, mode));
  {
    Feeder feeder(env->ds(), &run->checker);
    SubmitAll(&feeder, std::move(records));
    TC_RETURN_IF_ERROR(feeder.Close());
    run->ack_us.AddAll(feeder.ack_us());
  }
  TC_RETURN_IF_ERROR(Quiesce(env->ds()));
  *out = std::move(env);
  return Status::OK();
}

/// Runs set-up kSetups times (once when traced) and keeps the last dataset.
/// `make_records(i)` returns the preload of set-up i; it is called outside
/// the timer.
template <typename MakeRecords>
Status SetUpRepeatedly(Run* run, MakeRecords make_records) {
  int setups = run->traced ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    run->env.reset();
    std::vector<AdmValue> records = make_records(i);
    int64_t t0 = NowNs();
    TC_RETURN_IF_ERROR(SetUp(run, DataDir(*run, "setup" + std::to_string(i)),
                             tc::SchemaMode::kInferred, std::move(records), &run->env));
    run->setup_s.push_back(Seconds(NowNs() - t0));
  }
  return Status::OK();
}

constexpr const char* kQuerySpans[] = {"", "query.q1", "query.q2", "query.q3",
                                       "query.q4"};

tc::Result<tc::PaperQueryResult> RunQuery(Run* run, const char* dataset, int q) {
  Span span(kQuerySpans[q]);
  // Query workers have no open span: their storage reads nest under this.
  uint64_t previous = Tracer::Global().context();
  Tracer::Global().set_context(span.id());
  // One executor thread: on a shared 4-vCPU host the two-thread plan's round
  // time swung 360-610 ms within one run, the one-thread plan's a few per
  // cent. It also nests a traced query's storage reads under its span.
  tc::QueryOptions qo;
  qo.max_threads = 1;
  uint64_t misses = run->env->cache->misses();
  auto r = tc::RunPaperQuery(dataset, q, run->env->ds(), qo);
  Tracer::Global().set_context(previous);
  if (r.ok()) {
    run->query_stats[q] = r.value().stats;
    run->query_cache_misses[q] = run->env->cache->misses() - misses;
  }
  return r;
}

/// TwitterQ1 (COUNT(*)) must equal the number of records the run stored.
void CheckTwitterCount(Run* run, uint64_t expected) {
  if (run->opt.self_test) ++expected;
  auto r = RunQuery(run, "twitter", 1);
  std::string want = "count=" + std::to_string(expected);
  run->checker.Check(r.ok() && r.value().summary == want,
                     "TwitterQ1: got " + (r.ok() ? r.value().summary : r.status().ToString()) +
                         ", want " + want);
}

/// Looks up `count` random keys of [0, n), which must all be stored, and
/// hands each record found to `on_hit(sample, pk, record)`.
template <typename OnHit>
void CheckSampleGets(Run* run, uint64_t seed, int count, uint64_t n, OnHit on_hit) {
  tc::Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    int64_t pk = static_cast<int64_t>(rng.Uniform(n));
    int64_t t0 = NowNs();
    GetResult r = DoGet(run->env->ds(), pk);
    run->get_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    if (run->checker.Check(GetMatches(r, pk, true), GetDescription(r, pk))) {
      on_hit(i, pk, *r.value());
    }
  }
}

/// The timed phase's wall clock, its peak heap, and how much of the wall
/// clock the spans on the timed thread (the producer, or the lookup loop)
/// account for.
class TimedPhase {
 public:
  explicit TimedPhase(Run* run)
      : run_(run),
        phase_("phase.timed"),
        self0_(Tracer::Global().ThreadSelfNs(Tracer::ThreadId())),
        start_ns_(NowNs()) {}

  int64_t start_ns() const { return start_ns_; }
  int64_t deadline_ns() const {
    return start_ns_ + static_cast<int64_t>(run_->opt.seconds * 1e9);
  }

  void End(int64_t end_ns) {
    run_->heap_peak = heap_.Stop();
    run_->timed_s = Seconds(end_ns - start_ns_);
    int64_t self = Tracer::Global().ThreadSelfNs(Tracer::ThreadId()) - self0_;
    run_->coverage =
        Ratio(static_cast<double>(self), static_cast<double>(end_ns - start_ns_));
  }

 private:
  Run* run_;
  Phase phase_;
  HeapSampler heap_;
  int64_t self0_;
  int64_t start_ns_;
};

/// The timed phase of feed_twitter: batches of `next_record()` until the
/// deadline, then every ticket acked, FlushAll and WaitForBackgroundWork.
///
/// The feed's speed changes with its own flushes and merges (over 200 ms
/// windows of one run it ranged from 0 to 72k records/s), which a user waits
/// out like any other work, and a fast window often only defers merge work
/// to a later one. So both timing metrics cover the whole phase: ops_per_s
/// is the records fed over the time until they were durable, flushed and
/// merged; op_latency_us the median batch's time from Submit to ack.
template <typename NextRecord>
Status TimedFeed(Run* run, NextRecord next_record) {
  TimedPhase timed(run);
  {
    Feeder feeder(run->env->ds(), &run->checker);
    while (NowNs() < timed.deadline_ns()) {
      std::vector<AdmValue> batch;
      {
        Span span("bench.copy");
        batch.reserve(kBatchRecords);
        for (size_t k = 0; k < kBatchRecords; ++k) batch.push_back(next_record());
      }
      feeder.Submit(std::move(batch));
      run->ops += kBatchRecords;
    }
    {
      Span span("core.ack_wait");
      TC_RETURN_IF_ERROR(feeder.Close());
    }
    run->op_us = feeder.ack_us();
  }
  TC_RETURN_IF_ERROR(Quiesce(run->env->ds()));
  timed.End(NowNs());
  const LatencySample& acks = run->op_us;
  run->ack_us.AddAll(acks);
  run->ops_per_s = {Ratio(static_cast<double>(run->ops), run->timed_s), "1/s", run->ops};
  run->op_latency_us = {acks.Median(), "us", acks.count()};
  run->detail["ack_p99_ms"] = {acks.Percentile(0.99) / 1e3, "ms", acks.count()};
  return Status::OK();
}

// ---------------------------------------------------------------------------
// feed_twitter: a closed-loop insert feed for --seconds. The pool of
// generated records (also the preload) is replayed with fresh primary keys.
// ---------------------------------------------------------------------------

Status RunFeed(Run* run) {
  const uint64_t raw_target = run->opt.quick ? run->spec->quick_preload_bytes
                                             : run->spec->preload_bytes;
  Inputs pool = Generate(run->spec->dataset, run->opt.seed, raw_target, 1);
  const size_t pool_size = pool.records.size();
  run->inputs["pool_records"] = pool_size;
  run->inputs["pool_raw_bytes"] = pool.raw_bytes;
  MarkMemoryBase(run);
  TC_RETURN_IF_ERROR(SetUpRepeatedly(run, [&](int) { return pool.records; }));
  run->raw_written = run->raw_live = pool.raw_bytes;

  int64_t next_id = static_cast<int64_t>(pool_size);
  auto next_record = [&] {
    size_t i = static_cast<size_t>(next_id) % pool_size;
    AdmValue rec = pool.records[i];
    SetId(&rec, next_id);
    uint64_t raw = pool.raw_sizes[i] + Digits(next_id) - Digits(static_cast<int64_t>(i));
    run->raw_written += raw;
    run->raw_live += raw;
    ++next_id;
    return rec;
  };
  TC_RETURN_IF_ERROR(TimedFeed(run, next_record));

  // Every record fed is counted, and a sample is read back whole.
  CheckTwitterCount(run, static_cast<uint64_t>(next_id));
  CheckSampleGets(run, run->opt.seed ^ 0xfeedull, 512, static_cast<uint64_t>(next_id),
                  [&](int sample, int64_t pk, const AdmValue& got) {
                    if (sample % 8 != 0) return;
                    AdmValue want = pool.records[static_cast<size_t>(pk) % pool_size];
                    SetId(&want, pk);
                    run->checker.Check(got == want, "feed record " + std::to_string(pk) +
                                                        " differs from its input");
                  });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// scan_sensors: paper Sensors Q1-Q4 in rounds over data larger than the
// cache. Results must match a schema-less (kOpen) reference dataset.
//
// The same query took 230-420 ms from one round to the next of one run as
// other tenants of the host came and went (see Windows), so a round's time
// is taken from the fast side of each query's runs: op_latency_us is the sum
// over Q1-Q4 of each query's fastest time, ops_per_s its inverse.
// ---------------------------------------------------------------------------

Status RunScan(Run* run) {
  const uint64_t raw_target = run->opt.quick ? run->spec->quick_preload_bytes
                                             : run->spec->preload_bytes;
  Inputs in = Generate(run->spec->dataset, run->opt.seed, raw_target, 1);
  const uint64_t n = in.records.size();
  run->inputs["preload_records"] = n;
  run->inputs["preload_raw_bytes"] = in.raw_bytes;

  // Reference answers, outside every timer.
  uint64_t want_hash[5] = {};
  {
    std::unique_ptr<Env> reference;
    TC_RETURN_IF_ERROR(SetUp(run, DataDir(*run, "reference"), tc::SchemaMode::kOpen,
                             std::move(in.records), &reference));
    std::swap(run->env, reference);
    for (int q = 1; q <= 4; ++q) {
      TC_ASSIGN_OR_RETURN(tc::PaperQueryResult r, RunQuery(run, run->spec->dataset, q));
      want_hash[q] = r.result_hash;
    }
    std::swap(run->env, reference);
  }
  run->query_stats.clear();
  run->query_cache_misses.clear();
  if (run->opt.self_test) want_hash[1] ^= 1;

  MarkMemoryBase(run);
  TC_RETURN_IF_ERROR(SetUpRepeatedly(run, [&](int) {
    return Generate(run->spec->dataset, run->opt.seed, raw_target, 1).records;
  }));
  run->raw_written = run->raw_live = in.raw_bytes;

  std::vector<double> query_s[5];
  auto round = [&](bool timed) {
    for (int q = 1; q <= 4; ++q) {
      int64_t t0 = NowNs();
      auto r = RunQuery(run, run->spec->dataset, q);
      double dt = Seconds(NowNs() - t0);
      run->checker.Check(r.ok() && r.value().result_hash == want_hash[q],
                         "SensorsQ" + std::to_string(q) + ": " +
                             (r.ok() ? "result differs from the reference"
                                     : r.status().ToString()));
      if (timed) query_s[q].push_back(dt);
    }
  };
  round(false);  // warm-up
  {
    TimedPhase timed(run);
    int64_t now = timed.start_ns();
    do {
      int64_t t0 = now;
      round(true);
      now = NowNs();
      run->op_us.Add(static_cast<double>(now - t0) / 1e3);
      ++run->ops;
    } while (now < timed.deadline_ns());
    timed.End(now);
  }
  double round_s = 0;
  for (int q = 1; q <= 4; ++q) {
    round_s += *std::min_element(query_s[q].begin(), query_s[q].end());
    run->detail["query_q" + std::to_string(q) + "_s"] = {Median(query_s[q]), "s",
                                                         query_s[q].size()};
  }
  run->op_latency_us = {round_s * 1e6, "us", run->ops};
  run->ops_per_s = {1 / round_s, "1/s", run->ops};
  CheckSampleGets(run, run->opt.seed ^ 0x5ca1ull, 256, n,
                  [](int, int64_t, const AdmValue&) {});
  return Status::OK();
}

// ---------------------------------------------------------------------------
// lookup_twitter: single-thread point lookups, 50% hits and 50% odd keys
// that miss inside the key range, on data that fits in the cache. The timing
// metrics come from the fast side of windows of kPairsPerWindow pairs (see
// Windows).
// ---------------------------------------------------------------------------

Status RunLookup(Run* run) {
  const uint64_t raw_target = run->opt.quick ? run->spec->quick_preload_bytes
                                             : run->spec->preload_bytes;
  Inputs in = Generate(run->spec->dataset, run->opt.seed, raw_target, 2);
  const uint64_t n = in.records.size();
  run->inputs["preload_records"] = n;
  run->inputs["preload_raw_bytes"] = in.raw_bytes;
  // 1% of the records are kept to compare whole against what Get returns;
  // every set-up generates the preload afresh.
  std::vector<AdmValue> sample;
  for (uint64_t i = 0; i < n; i += 100) sample.push_back(in.records[i]);
  std::vector<AdmValue>().swap(in.records);
  LookupPairs pairs(run, n, run->opt.seed ^ 0x100cull);
  MarkMemoryBase(run);
  TC_RETURN_IF_ERROR(SetUpRepeatedly(run, [&](int) {
    return Generate(run->spec->dataset, run->opt.seed, raw_target, 2).records;
  }));
  run->raw_written = run->raw_live = in.raw_bytes;
  Dataset* ds = run->env->ds();
  if (run->opt.self_test) SetId(&sample.back(), -1);

  // Warm-up: every key once.
  for (uint64_t i = 0; i < n; ++i) {
    int64_t pk = static_cast<int64_t>(2 * i);
    int64_t t0 = NowNs();
    GetResult r = DoGet(ds, pk);
    run->get_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    run->checker.Check(GetMatches(r, pk, true), GetDescription(r, pk));
  }

  {
    TimedPhase timed(run);
    int64_t end = timed.start_ns();
    while (end < timed.deadline_ns()) {
      end = pairs.Next(ds, [&](uint64_t i, const AdmValue& got) {
        if (i % 100 != 0) return;
        run->checker.Check(got == sample[i / 100], "record " + std::to_string(2 * i) +
                                                       " differs from its input");
      });
    }
    timed.End(end);
  }
  run->ops = pairs.pairs_us().count();
  run->op_us = pairs.pairs_us();
  run->ops_per_s = pairs.windows().Rate();
  run->op_latency_us = pairs.windows().Latency();
  ReportLookups(run, pairs);
  CheckTwitterCount(run, n);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

MetricMap EndToEndMetrics(const Run& run) {
  MetricMap m;
  m["ops_per_s"] = run.ops_per_s;
  m["op_latency_us"] = run.op_latency_us;
  m["stored_bytes_per_raw_byte"] = {
      Ratio(static_cast<double>(run.env->ds()->TotalPhysicalBytes()),
            static_cast<double>(run.raw_live)),
      "B/B", 1};
  m["heap_peak_mib"] = {
      static_cast<double>(run.heap_peak - std::min(run.heap_peak, run.heap_base)) /
          (1 << 20),
      "MiB", 1};
  m["setup_s"] = {Median(run.setup_s), "s", run.setup_s.size()};
  return m;
}

/// Bytes of the files left in the dataset directory, by class.
std::array<uint64_t, kFileClasses> LiveBytes(const std::string& dir) {
  std::array<uint64_t, kFileClasses> bytes{};
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    bytes[static_cast<int>(ClassifyFile(entry.path().string()))] += entry.file_size(ec);
  }
  return bytes;
}

MetricMap PerLayerMetrics(const Run& run, double ops_per_s, double calib_ms) {
  const auto layers = Tracer::Global().Layers();
  auto total_s = [&](std::string_view name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : Seconds(it->second.total_ns);
  };
  auto per_call_us = [&](std::string_view name, bool self) {
    auto it = layers.find(name);
    if (it == layers.end() || it->second.count == 0) return 0.0;
    int64_t ns = self ? it->second.self_ns : it->second.total_ns;
    return static_cast<double>(ns) / 1e3 / static_cast<double>(it->second.count);
  };
  const Env& env = *run.env;
  const tc::LsmStats st = env.ds()->AggregateStats();
  const IoCounters& io = env.fs->counters();
  const auto wal = static_cast<int>(FileClass::kWal);
  const auto data = static_cast<int>(FileClass::kData);
  const auto laf = static_cast<int>(FileClass::kLaf);
  size_t components_max = 0;
  for (size_t p = 0; p < env.ds()->partition_count(); ++p) {
    components_max = std::max(components_max,
                              env.ds()->partition(p)->primary()->component_count());
  }
  const double merge_us = static_cast<double>(st.merge_read_usecs + st.merge_transform_usecs +
                                              st.merge_compress_usecs + st.merge_write_usecs);
  const uint64_t hits = env.cache->hits();
  const uint64_t misses = env.cache->misses();
  const auto live = LiveBytes(env.dir);

  MetricMap m;
  auto count = [](uint64_t v) { return Metric{static_cast<double>(v), "count", 1}; };
  auto frac = [](double v) { return Metric{v, "frac", 1}; };
  // core: the ingest front end and Dataset's point-lookup composition.
  m["core.submit_s"] = {total_s("core.submit"), "s", 1};
  m["core.ack_wait_s"] = {total_s("core.ack_wait"), "s", 1};
  m["core.ack_p99_ms"] = {run.ack_us.Percentile(0.99) / 1e3, "ms", run.ack_us.count()};
  m["core.route_view_us"] = {per_call_us("core.route_view", false), "us", 1};
  m["core.decode_us"] = {per_call_us("core.decode", false), "us", 1};
  m["core.lookup_p99_us"] = {run.get_us.Percentile(0.99), "us", run.get_us.count()};
  // lsm: trees, filters, flush and merge.
  m["lsm.get_us"] = {per_call_us("lsm.get", true), "us", 1};
  m["lsm.filter_negative_frac"] = frac(Ratio(static_cast<double>(st.filter_negatives),
                                             static_cast<double>(st.filter_checks)));
  m["lsm.filter_fp_frac"] = frac(Ratio(static_cast<double>(st.filter_false_positives),
                                       static_cast<double>(st.filter_checks)));
  m["lsm.components_max"] = count(components_max);
  m["lsm.component_high_water"] = count(st.component_count_high_water);
  m["lsm.pages_read_per_get"] = {Ratio(static_cast<double>(st.lookup_pages_read),
                                       static_cast<double>(st.point_lookups)),
                                 "count", 1};
  m["lsm.flush_count"] = count(st.flush_count);
  m["lsm.merge_count"] = count(st.merge_count);
  m["lsm.flush_queue_high_water"] = count(st.flush_queue_high_water);
  m["lsm.write_amp"] = {st.WriteAmplification(), "B/B", 1};
  m["lsm.merge_s"] = {merge_us / 1e6, "s", 1};
  m["lsm.merge_read_frac"] = frac(Ratio(static_cast<double>(st.merge_read_usecs), merge_us));
  m["lsm.merge_transform_frac"] =
      frac(Ratio(static_cast<double>(st.merge_transform_usecs), merge_us));
  m["lsm.merge_compress_frac"] =
      frac(Ratio(static_cast<double>(st.merge_compress_usecs), merge_us));
  m["lsm.merge_write_frac"] = frac(Ratio(static_cast<double>(st.merge_write_usecs), merge_us));
  m["lsm.quiesce_s"] = {total_s("lsm.quiesce"), "s", 1};
  // storage: the file system under the dataset, and the buffer cache.
  m["storage.wal.append_bytes"] = {static_cast<double>(io.write_bytes[wal].load()), "B", 1};
  m["storage.wal.sync_count"] = count(io.sync_calls[wal].load());
  m["storage.wal.sync_s"] = {total_s("storage.wal.sync"), "s", 1};
  m["storage.component.write_bytes"] = {
      static_cast<double>(io.write_bytes[data].load() + io.write_bytes[laf].load()), "B", 1};
  m["storage.component.write_s"] = {
      total_s("storage.component.write") + total_s("storage.component.sync") +
          total_s("storage.laf.write") + total_s("storage.laf.sync"),
      "s", 1};
  m["storage.write_bytes_per_raw_byte"] = {
      Ratio(static_cast<double>(env.device->bytes_written()),
            static_cast<double>(run.raw_written)),
      "B/B", 1};
  m["storage.read_calls"] = count(io.read_calls.load());
  m["storage.read_bytes"] = {static_cast<double>(env.device->bytes_read()), "B", 1};
  m["storage.read_s"] = {total_s("storage.read"), "s", 1};
  m["storage.cache.hit_frac"] = frac(Ratio(static_cast<double>(hits),
                                           static_cast<double>(hits + misses)));
  m["storage.cache.misses"] = count(misses);
  m["storage.live_bytes.data"] = {static_cast<double>(live[data]), "B", 1};
  m["storage.live_bytes.laf"] = {static_cast<double>(live[laf]), "B", 1};
  m["storage.live_bytes.wal"] = {static_cast<double>(live[wal]), "B", 1};
  // query: the paper queries the run executed (last run of each).
  m["query.exec_s"] = {total_s("query.q1") + total_s("query.q2") + total_s("query.q3") +
                           total_s("query.q4"),
                       "s", 1};
  for (int q = 1; q <= 4; ++q) {
    std::string prefix = "query.q" + std::to_string(q) + ".";
    auto it = run.query_stats.find(q);
    tc::QueryStats qs = it == run.query_stats.end() ? tc::QueryStats{} : it->second;
    auto miss_it = run.query_cache_misses.find(q);
    m[prefix + "rows_scanned"] = count(qs.rows_scanned);
    m[prefix + "bytes_scanned"] = {static_cast<double>(qs.bytes_scanned), "B", 1};
    m[prefix + "cache_misses"] =
        count(miss_it == run.query_cache_misses.end() ? 0 : miss_it->second);
    if (q == 4) {
      m[prefix + "pre_assembly_filter_frac"] =
          frac(Ratio(static_cast<double>(qs.rows_filtered_pre_assembly),
                     static_cast<double>(qs.rows_scanned)));
    }
    if (q == 2 || q == 3) {
      for (const char* op : {"scan", "bridge"}) {
        tc::QueryOpCounters c;
        for (const auto& o : qs.operators) {
          if (o.name == op) c = o;
        }
        m[prefix + "op." + op + ".rows"] = count(c.rows);
        m[prefix + "op." + op + ".batches"] = count(c.batches);
      }
    }
  }
  m["host.calib_ms"] = {calib_ms, "ms", 2};
  m["trace.overhead_frac"] = {Ratio(run.opt.untraced_ops_per_s, ops_per_s) - 1, "frac", 1};
  m["trace.coverage_frac"] = frac(run.coverage);
  uint64_t spans = 0;
  for (const auto& [name, t] : layers) spans += t.count;
  m["trace.spans"] = count(spans);
  return m;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: tc_bench --workload <feed_twitter|scan_sensors|lookup_twitter> "
               "--seed N --seconds S --data-dir DIR\n"
               "                [--trace-out FILE --untraced-ops-per-s X] [--quick] "
               "[--self-test]\n");
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--quick") {
      opt->quick = true;
    } else if (a == "--self-test") {
      opt->self_test = true;
    } else if (a == "--workload") {
      if (!value(&opt->workload)) return false;
    } else if (a == "--data-dir") {
      if (!value(&opt->data_dir)) return false;
    } else if (a == "--trace-out") {
      if (!value(&opt->trace_out)) return false;
    } else if (a == "--seed") {
      if (!value(&v)) return false;
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      if (!value(&v)) return false;
      opt->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--untraced-ops-per-s") {
      if (!value(&v)) return false;
      opt->untraced_ops_per_s = std::strtod(v.c_str(), nullptr);
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && !opt->data_dir.empty() && opt->seconds > 0 &&
         opt->seconds <= 120;
}

/// Knobs the engine reads from TC_* variables would silently change what is
/// measured; a measurement runs with none set.
std::vector<std::string> EngineKnobsInEnvironment() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TC_", 3) == 0) {
      set.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  return set;
}

int Main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run.opt)) {
    Usage();
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (run.opt.workload == spec.name) run.spec = &spec;
  }
  if (run.spec == nullptr) {
    std::fprintf(stderr, "tc_bench: unknown workload '%s'\n", run.opt.workload.c_str());
    Usage();
    return 2;
  }
  std::vector<std::string> knobs = EngineKnobsInEnvironment();
  if (!knobs.empty()) {
    std::fprintf(stderr, "tc_bench: refusing to run with engine knobs set:");
    for (const std::string& k : knobs) std::fprintf(stderr, " %s", k.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "tc_bench: refusing to measure a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(TC_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "tc_bench: refusing to measure a %s build (need Release)\n",
                 TC_BENCH_BUILD_TYPE);
    return 2;
  }

  run.traced = !run.opt.trace_out.empty();
  if (run.traced) Tracer::Global().Enable(kMaxTraceEvents);
  const double calib_start_ms = CalibrationMs();

  Status st;
  std::string name = run.spec->name;
  if (name == "feed_twitter") {
    st = RunFeed(&run);
  } else if (name == "scan_sensors") {
    st = RunScan(&run);
  } else {
    st = RunLookup(&run);
  }
  if (!st.ok() || run.env == nullptr) {
    std::fprintf(stderr, "tc_bench: %s failed: %s\n", name.c_str(), st.ToString().c_str());
    run.env.reset();
    return 2;
  }
  const double calib_ms = (calib_start_ms + CalibrationMs()) / 2;

  MetricMap metrics = EndToEndMetrics(run);
  MetricMap per_layer;
  if (run.traced) per_layer = PerLayerMetrics(run, metrics["ops_per_s"].value, calib_ms);
  run.detail["host_calib_ms"] = {calib_ms, "ms", 2};
  run.detail["peak_rss_mib"] = {(ProcStatusKiB("VmHWM") - run.rss_base_kib) / 1024, "MiB", 1};
  run.detail["timed_s"] = {run.timed_s, "s", 1};
  run.detail["ops_mean_per_s"] = {Ratio(static_cast<double>(run.ops), run.timed_s), "1/s",
                                  run.ops};
  run.detail["op_p50_us"] = {run.op_us.Median(), "us", run.op_us.count()};

  const bool correct = run.checker.failed() == 0;
  std::string failures = "[";
  for (const std::string& msg : run.checker.messages()) {
    if (failures.size() > 1) failures += ",";
    failures += JsonString(msg);
  }
  failures += "]";
  std::string inputs = "{";
  for (const auto& [k, v] : run.inputs) {
    if (inputs.size() > 1) inputs += ",";
    inputs += JsonString(k) + ":" + std::to_string(v);
  }
  inputs += "}";
  const WorkloadSpec& spec = *run.spec;
  std::string config =
      "{\"schema_mode\":\"inferred\",\"compression\":true,\"nodes\":1,"
      "\"partitions_per_node\":" + std::to_string(kPartitionsPerNode) +
      ",\"executor_threads\":" + std::to_string(kExecutorThreads) +
      ",\"page_bytes\":" + std::to_string(kPageBytes) +
      ",\"memtable_bytes\":" + std::to_string(kMemtableBytes) +
      ",\"cache_pages\":" + std::to_string(spec.cache_pages) +
      ",\"wal_sync_every\":" + std::to_string(kWalSyncEvery) +
      ",\"device\":\"unthrottled\",\"batch_records\":" + std::to_string(kBatchRecords) +
      ",\"max_outstanding_tickets\":" + std::to_string(kMaxOutstanding) +
      ",\"lookup_pairs_per_window\":" + std::to_string(kPairsPerWindow) +
      ",\"setups\":" + std::to_string(run.setup_s.size()) + "}";
  std::string build = std::string("{\"type\":") + JsonString(TC_BENCH_BUILD_TYPE) +
                      ",\"compiler\":" + JsonString(TC_BENCH_COMPILER) +
                      ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                      "}";

  if (run.traced && !Tracer::Global().WriteChromeTrace(run.opt.trace_out)) {
    std::fprintf(stderr, "tc_bench: cannot write %s\n", run.opt.trace_out.c_str());
    run.env.reset();
    return 2;
  }
  run.env.reset();

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"traced\":%s,\"quick\":%s,"
      "\"self_test\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"failures\":%s,\"metrics\":%s,\"per_layer\":%s,\"detail\":%s,"
      "\"config\":%s,\"inputs\":%s,\"build\":%s}\n",
      JsonString(name).c_str(), static_cast<unsigned long long>(run.opt.seed),
      JsonNumber(run.opt.seconds).c_str(), run.traced ? "true" : "false",
      run.opt.quick ? "true" : "false", run.opt.self_test ? "true" : "false",
      correct ? "true" : "false", static_cast<unsigned long long>(run.checker.attempted()),
      static_cast<unsigned long long>(run.checker.failed()), failures.c_str(),
      MetricsJson(metrics).c_str(), MetricsJson(per_layer).c_str(),
      MetricsJson(run.detail).c_str(), config.c_str(), inputs.c_str(), build.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tcbench

int main(int argc, char** argv) { return tcbench::Main(argc, argv); }
