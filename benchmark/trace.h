// Instrumentation owned by the benchmark, not the engine: a span recorder and
// a timing FileSystem decorator. Spans are recorded only around calls the
// benchmark makes into the engine's public API (and, through the decorator,
// around every file operation the engine issues), so the engine itself is
// measured unmodified.
//
// A span has a name whose first component is the src/ module it times
// ("core.submit", "lsm.get", "storage.read", ...), a start, a duration and a
// parent. Parents come from a thread-local stack of open spans; a span opened
// on a thread with no open span (a writer, flush or merge thread, a query
// worker) is parented to the tracer's current context span instead — the
// phase or the query the benchmark is running. Self time is a span's duration
// minus the durations of the spans nested inside it on the same thread.
//
// Spans stay in memory: aggregates per name over every span, raw events up to
// a cap. Both are written at exit as Chrome trace-event JSON.
#ifndef TC_BENCHMARK_TRACE_H_
#define TC_BENCHMARK_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "storage/file.h"

namespace tcbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Totals of every span that carried one name.
struct LayerTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  uint64_t bytes = 0;
};

class Tracer {
 public:
  struct Event {
    std::string_view name;
    uint32_t tid = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    uint64_t bytes = 0;
  };

  static Tracer& Global() {
    static Tracer tracer;
    return tracer;
  }

  /// Turns recording on for the rest of the process; `max_events` caps the
  /// raw events kept (aggregates always cover every span).
  void Enable(size_t max_events) {
    max_events_ = max_events;
    events_.reserve(max_events);
    enabled_.store(true, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Parent of spans opened on threads that have no open span.
  void set_context(uint64_t span_id) {
    context_.store(span_id, std::memory_order_relaxed);
  }
  uint64_t context() const { return context_.load(std::memory_order_relaxed); }

  void Record(const Event& e, int64_t self_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    LayerTotals& t = layers_[e.name];
    ++t.count;
    t.total_ns += e.dur_ns;
    t.self_ns += self_ns;
    t.bytes += e.bytes;
    thread_self_ns_[e.tid] += self_ns;
    if (events_.size() < max_events_) {
      events_.push_back(e);
    } else {
      ++dropped_;
    }
  }

  std::map<std::string_view, LayerTotals> Layers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return layers_;
  }

  /// Sum of the self times of every span recorded on thread `tid` so far:
  /// the part of that thread's wall time the spans account for.
  int64_t ThreadSelfNs(uint32_t tid) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = thread_self_ns_.find(tid);
    return it == thread_self_ns_.end() ? 0 : it->second;
  }

  /// Writes the raw events as Chrome trace-event JSON (open in Perfetto or
  /// chrome://tracing), plus the per-name aggregates under "layers".
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t t0 = events_.empty() ? 0 : events_.front().start_ns;
    for (const Event& e : events_) t0 = std::min(t0, e.start_ns);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"bytes\":%llu}}\n",
                   i == 0 ? "" : ",", static_cast<int>(e.name.size()),
                   e.name.data(), static_cast<int>(e.name.find('.')),
                   e.name.data(), e.tid,
                   static_cast<double>(e.start_ns - t0) / 1e3,
                   static_cast<double>(e.dur_ns) / 1e3,
                   static_cast<unsigned long long>(e.id),
                   static_cast<unsigned long long>(e.parent),
                   static_cast<unsigned long long>(e.bytes));
    }
    std::fprintf(f, "],\n\"droppedEvents\":%llu,\n\"layers\":{",
                 static_cast<unsigned long long>(dropped_));
    bool first = true;
    for (const auto& [name, t] : layers_) {
      std::fprintf(f,
                   "%s\n\"%.*s\":{\"count\":%llu,\"total_s\":%.9f,"
                   "\"self_s\":%.9f,\"bytes\":%llu}",
                   first ? "" : ",", static_cast<int>(name.size()), name.data(),
                   static_cast<unsigned long long>(t.count),
                   static_cast<double>(t.total_ns) / 1e9,
                   static_cast<double>(t.self_ns) / 1e9,
                   static_cast<unsigned long long>(t.bytes));
      first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

  /// Small dense id of the calling thread (Chrome trace "tid").
  static uint32_t ThreadId() {
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> context_{0};
  mutable std::mutex mu_;
  std::map<std::string_view, LayerTotals> layers_;
  std::map<uint32_t, int64_t> thread_self_ns_;
  std::vector<Event> events_;
  size_t max_events_ = 0;
  uint64_t dropped_ = 0;
};

/// RAII span. A no-op (one relaxed load) while the tracer is disabled.
/// `name` must be a string literal: the tracer keeps a view of it.
class Span {
 public:
  explicit Span(const char* name, uint64_t bytes = 0) {
    Tracer& tracer = Tracer::Global();
    if (!tracer.enabled()) return;
    active_ = true;
    event_.name = name;
    event_.bytes = bytes;
    event_.tid = Tracer::ThreadId();
    event_.id = tracer.NextId();
    up_ = top_;
    event_.parent = up_ != nullptr ? up_->event_.id : tracer.context();
    top_ = this;
    event_.start_ns = NowNs();
  }

  ~Span() {
    if (!active_) return;
    event_.dur_ns = NowNs() - event_.start_ns;
    if (up_ != nullptr) up_->child_ns_ += event_.dur_ns;
    top_ = up_;
    Tracer::Global().Record(event_, event_.dur_ns - child_ns_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Id for Tracer::set_context (0 while tracing is off).
  uint64_t id() const { return event_.id; }

 private:
  static thread_local Span* top_;

  bool active_ = false;
  Tracer::Event event_;
  int64_t child_ns_ = 0;
  Span* up_ = nullptr;
};

inline thread_local Span* Span::top_ = nullptr;

/// Files the engine writes, classified by name: write-ahead-log segments
/// ("<tree>.wal.<n>"), component data files ("*.btree"), their look-aside
/// files ("*.laf"), and anything else.
enum class FileClass { kWal = 0, kData = 1, kLaf = 2, kOther = 3 };
constexpr int kFileClasses = 4;

inline FileClass ClassifyFile(std::string_view path) {
  size_t slash = path.rfind('/');
  std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  if (name.find(".wal") != std::string_view::npos) return FileClass::kWal;
  if (ends_with(".laf")) return FileClass::kLaf;
  if (ends_with(".btree")) return FileClass::kData;
  return FileClass::kOther;
}

/// Always-on I/O counters of the decorator (times come from the spans).
struct IoCounters {
  std::atomic<uint64_t> read_calls{0};
  std::atomic<uint64_t> write_bytes[kFileClasses] = {};
  std::atomic<uint64_t> sync_calls[kFileClasses] = {};
};

/// Forwards every call to `inner`, counting calls and bytes per file class
/// and recording a span around each read, write and sync.
class TimedFileSystem final : public tc::FileSystem {
 public:
  explicit TimedFileSystem(std::shared_ptr<tc::FileSystem> inner)
      : inner_(std::move(inner)) {}

  const IoCounters& counters() const { return counters_; }

  tc::Result<std::unique_ptr<tc::File>> Open(const std::string& path) override {
    return Wrap(inner_->Open(path), path);
  }
  tc::Result<std::unique_ptr<tc::File>> Create(const std::string& path) override {
    return Wrap(inner_->Create(path), path);
  }
  tc::Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  bool Exists(const std::string& path) const override {
    return inner_->Exists(path);
  }
  tc::Result<std::vector<std::string>> List(
      const std::string& dir, const std::string& prefix) const override {
    return inner_->List(dir, prefix);
  }
  tc::Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  tc::Result<uint64_t> FileSize(const std::string& path) const override {
    return inner_->FileSize(path);
  }

 private:
  class TimedFile final : public tc::File {
   public:
    TimedFile(std::unique_ptr<tc::File> inner, FileClass cls, IoCounters* counters)
        : inner_(std::move(inner)), cls_(static_cast<int>(cls)), counters_(counters) {}

    tc::Status Read(uint64_t offset, size_t n, uint8_t* buf) override {
      Span span("storage.read", n);
      counters_->read_calls.fetch_add(1, std::memory_order_relaxed);
      return inner_->Read(offset, n, buf);
    }
    tc::Status Write(uint64_t offset, const uint8_t* buf, size_t n) override {
      Span span(kWriteSpan[cls_], n);
      CountWrite(n);
      return inner_->Write(offset, buf, n);
    }
    tc::Status Append(const uint8_t* buf, size_t n, uint64_t* offset) override {
      Span span(kWriteSpan[cls_], n);
      CountWrite(n);
      return inner_->Append(buf, n, offset);
    }
    uint64_t Size() const override { return inner_->Size(); }
    tc::Status Sync() override {
      Span span(kSyncSpan[cls_]);
      counters_->sync_calls[cls_].fetch_add(1, std::memory_order_relaxed);
      return inner_->Sync();
    }

   private:
    static constexpr const char* kWriteSpan[kFileClasses] = {
        "storage.wal.write", "storage.component.write", "storage.laf.write",
        "storage.other.write"};
    static constexpr const char* kSyncSpan[kFileClasses] = {
        "storage.wal.sync", "storage.component.sync", "storage.laf.sync",
        "storage.other.sync"};

    void CountWrite(size_t n) {
      counters_->write_bytes[cls_].fetch_add(n, std::memory_order_relaxed);
    }

    std::unique_ptr<tc::File> inner_;
    int cls_;
    IoCounters* counters_;
  };

  tc::Result<std::unique_ptr<tc::File>> Wrap(
      tc::Result<std::unique_ptr<tc::File>> file, const std::string& path) {
    if (!file.ok()) return file.status();
    return {std::unique_ptr<tc::File>(new TimedFile(
        std::move(file).value(), ClassifyFile(path), &counters_))};
  }

  std::shared_ptr<tc::FileSystem> inner_;
  IoCounters counters_;
};

}  // namespace tcbench

#endif  // TC_BENCHMARK_TRACE_H_
