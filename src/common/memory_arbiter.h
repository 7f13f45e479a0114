// Node-level memory arbitration (ROADMAP "one memory budget for all
// memtables + the buffer cache"; after Luo & Carey, "Breaking Down Memory
// Walls", arXiv 2004.10360): one process-wide budget split between WRITE
// memory (every registered tree's live and sealed memtable generations) and
// READ memory (the BufferCache), replacing the static per-tree
// memtable_budget_bytes carve-outs. A dataset opts in by pointing
// DatasetOptions::arbiter at one; without it the static carve-outs apply.
//
// Protocol, from a tree's point of view:
//   * Register(name, floor, flush_fn) on open; Unregister on teardown (it
//     blocks until any in-flight flush_fn call on that registration returns,
//     so a tree may destruct immediately after).
//   * After every committed write, OnPostWrite(reg, live_bytes) reports the
//     live generation's size. While total write memory stays under the write
//     share, it returns false and the writer proceeds. Once over, the arbiter
//     picks the flush victim GLOBALLY — the largest live generation across
//     every registered tree that clears its floor. If the victim is the
//     caller itself, OnPostWrite returns true and the caller flushes under
//     its own writer lock; any other victim is flushed synchronously on the
//     calling thread through its flush_fn.
//   * OnSeal(reg, bytes) moves a generation from live to sealed accounting at
//     the flush swap; OnFlushInstalled(reg, bytes, ...) releases it when the
//     component build installs. Sealed bytes are observable (stats) and feed
//     the adaptation signal, but the flush trigger compares LIVE bytes only:
//     counting a draining build against the share would cascade tiny flushes
//     exactly when the pipeline is busiest. The sealed backlog is bounded
//     separately, by the trees' max_pending_flush_builds backpressure.
//
// Deadlock discipline:
//   * The arbiter's mutex is a LEAF on the tree side: trees call accounting
//     methods while holding their own locks, but the arbiter NEVER holds its
//     mutex while invoking a flush_fn (or any other tree code).
//   * flush_fn implementations must never block on another tree's locks;
//     LsmTree::TryArbiterFlush try-locks its writer mutex and bails out when
//     the tree is busy or its flush queue is full, so a cross-tree dispatch
//     can stall the dispatching writer only for one WAL rotation + swap.
//
// Failure semantics: a victim whose flush_fn returns false (busy writer, full
// flush queue, latched background error) just stays a candidate; the next
// over-budget write re-selects, so live memory can overshoot the share while
// a victim's writer stalls. The overshoot is still BOUNDED: once live memory
// reaches twice the write share, a writer whose dispatch was skipped flushes
// itself (if it clears its own floor) rather than retrying the stuck victim —
// live memory stays under 2x share plus the floors and in-flight records.
// The max_pending_flush_builds backpressure remains the hard bound on sealed
// memory.
//
// Adaptation: when a BufferCache is attached, every adapt_interval_flushes
// installed flushes the arbiter compares the observed mean flush size and the
// cache's hit/miss traffic, then shifts the split — toward write memory when
// flushes run tiny or the cache sits idle, toward the cache when the miss
// rate climbs — and applies it with BufferCache::SetCapacity (pinned pages
// stay exempt, as always).
#ifndef TC_COMMON_MEMORY_ARBITER_H_
#define TC_COMMON_MEMORY_ARBITER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tc {

class BufferCache;

class MemoryArbiter {
 public:
  struct Options {
    /// The one node-level budget: write memory + buffer cache together.
    size_t total_budget_bytes = 64ull << 20;
    /// Initial share of the budget owned by write memory, in percent.
    int write_pct = 50;
    /// Shift the split at runtime from flush-size and cache-traffic signals.
    bool adaptive = true;
    /// The read half of the budget (not owned; may be null — then the split
    /// never adapts and the arbiter only governs write memory).
    BufferCache* cache = nullptr;
    /// Clamp for adaptive shifts, keeping both halves alive.
    int min_write_pct = 20;
    int max_write_pct = 80;
    /// Installed flushes between adaptation decisions.
    size_t adapt_interval_flushes = 8;
    /// Minimum wall time between traffic-driven adaptation ticks
    /// (MaybeAdaptFromTraffic); <= 0 disables the time gate (every call may
    /// decide — tests use this).
    int64_t traffic_adapt_interval_ms = 1000;
  };

  /// One registered tree. Owned by the arbiter; the pointer stays valid from
  /// Register until Unregister returns. The accessors are unsynchronized
  /// observers for tests and stats surfaces.
  struct Registration {
    const std::string& tree_name() const { return name; }
    size_t live() const { return live_bytes; }
    size_t sealed() const { return sealed_bytes; }
    size_t floor() const { return floor_bytes; }

   private:
    friend class MemoryArbiter;
    std::string name;
    size_t floor_bytes = 0;
    /// Flushes the tree if it cheaply can (see TryArbiterFlush); returns
    /// whether a generation was actually sealed.
    std::function<bool()> flush_fn;
    size_t live_bytes = 0;
    size_t sealed_bytes = 0;
    bool flush_requested = false;   // victim dispatch pending/in flight
    bool callback_inflight = false;  // flush_fn executing right now
  };

  /// One split-shift record: after `flush_seq` installed flushes the write
  /// share became `write_pct` percent.
  struct SplitEvent {
    uint64_t flush_seq = 0;
    int write_pct = 0;
  };

  struct Stats {
    size_t total_budget_bytes = 0;
    size_t write_share_bytes = 0;
    size_t write_bytes_live = 0;
    size_t write_bytes_sealed = 0;
    size_t cache_capacity_bytes = 0;  // 0 when no cache is attached
    size_t registered_trees = 0;
    int write_pct = 0;
    uint64_t flushes_installed = 0;
    /// Cross-tree victim flushes dispatched through flush_fn and sealed.
    uint64_t global_flushes_triggered = 0;
    /// OnPostWrite calls that told the caller to flush itself.
    uint64_t self_flushes_triggered = 0;
    /// Victim dispatches that bailed (busy writer, full queue, error).
    uint64_t victim_skips = 0;
    uint64_t adapt_shifts = 0;
    /// Query scratch currently charged against the read share (join builds).
    size_t query_bytes_charged = 0;
    uint64_t query_charge_denials = 0;
    /// Flush-build / merge-rewrite scratch (builder pages + bloom filter bits)
    /// currently charged against the read share.
    size_t background_bytes_charged = 0;
    uint64_t background_charges = 0;
    /// MaybeAdaptFromTraffic calls that got past the time gate and decided.
    uint64_t traffic_adapt_ticks = 0;
    std::vector<SplitEvent> split_history;  // first entry = initial split
  };

  explicit MemoryArbiter(Options opts);
  /// Every registration must be gone: trees unregister in their destructors,
  /// so the arbiter must outlive the trees it governs.
  ~MemoryArbiter();

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  Registration* Register(std::string name, size_t floor_bytes,
                         std::function<bool()> flush_fn);
  /// Blocks until no flush_fn call on `reg` is in flight, then removes it
  /// (its live/sealed accounting with it).
  void Unregister(Registration* reg);

  /// Writer-side, after each committed write. Returns true iff the CALLER
  /// should flush itself; cross-tree victims are dispatched inside. Never
  /// called with the arbiter's lock held by tree code (it takes it itself).
  bool OnPostWrite(Registration* reg, size_t live_bytes);

  /// The flush swap sealed a generation of `bytes` live bytes.
  void OnSeal(Registration* reg, size_t sealed_bytes);

  /// A sealed generation's component build installed: release `mem_bytes`
  /// of sealed accounting; `physical_bytes` is the built component's on-disk
  /// size (recorded for the flush-size adaptation signal).
  void OnFlushInstalled(Registration* reg, size_t mem_bytes,
                        uint64_t physical_bytes);

  /// The registration the arbiter would flush right now (the largest live
  /// generation), or null when no tree clears its floor. Exposed for the
  /// victim-selection property tests; OnPostWrite uses the same selection.
  Registration* SuggestFlushVictim();

  /// Query-side adaptation tick (ROADMAP "time/traffic-based adapt tick"):
  /// the flush-count window above never fires during a query-heavy interval
  /// with no flushes, so memory can never shift TOWARD the cache exactly when
  /// reads need it. Queries call this at completion; at most once per
  /// traffic_adapt_interval_ms it re-reads the cache's hit/miss deltas and,
  /// on a miss rate >= 40% over enough traffic, shifts the split toward the
  /// cache. It only ever shifts in that direction — the write-starvation
  /// signals need flush samples, which this path by definition lacks.
  void MaybeAdaptFromTraffic();

  /// Query-scratch accounting against the READ share (hash-join build tables,
  /// grace-style spill thresholds): TryChargeQuery admits `bytes` unless the
  /// total charged scratch would exceed the read share (then it returns false
  /// and the caller must spill/stage instead of growing). Charges bound the
  /// query scratch by the read share's SIZE; the buffer cache itself is not
  /// shrunk mid-query, so the envelope is approximate while a charge is held.
  bool TryChargeQuery(size_t bytes);
  void ReleaseQuery(size_t bytes);

  /// Background-rewrite scratch accounting (flush builds, merge rewrites:
  /// builder page buffers + the bloom filter under construction), also
  /// against the READ share. Unlike query charges these always admit —
  /// flushes and merges are mandatory for the engine to make progress, so
  /// denial would deadlock the write path — but while held they shrink what
  /// TryChargeQuery can admit, keeping the total budget an honest
  /// approximation of the node's RSS. Charges are released when the build
  /// finishes (success or failure).
  void ChargeBackground(size_t bytes);
  void ReleaseBackground(size_t bytes);

  Stats stats() const;
  size_t write_share_bytes() const;
  /// total - write share: what TryChargeQuery admits against.
  size_t read_share_bytes() const;
  size_t total_budget_bytes() const { return opts_.total_budget_bytes; }

 private:
  Registration* PickVictimLocked();
  void AdaptLocked();
  /// Clamps and applies a new write pct: recomputes the share, resizes the
  /// cache, and records the shift. No-op when the clamped pct is unchanged.
  void ApplyWritePctLocked(int pct);

  Options opts_;
  mutable std::mutex mu_;
  std::condition_variable unregister_cv_;
  std::vector<std::unique_ptr<Registration>> regs_;
  size_t write_share_bytes_ = 0;
  int write_pct_ = 50;
  uint64_t flushes_installed_ = 0;
  uint64_t global_flushes_ = 0;
  uint64_t self_flushes_ = 0;
  uint64_t victim_skips_ = 0;
  uint64_t adapt_shifts_ = 0;
  size_t query_bytes_charged_ = 0;
  uint64_t query_charge_denials_ = 0;
  size_t background_bytes_charged_ = 0;
  uint64_t background_charges_ = 0;
  uint64_t traffic_adapt_ticks_ = 0;
  std::vector<size_t> flush_samples_;  // sealed bytes per installed flush
  uint64_t last_cache_hits_ = 0;
  uint64_t last_cache_misses_ = 0;
  std::chrono::steady_clock::time_point last_traffic_adapt_{};
  std::vector<SplitEvent> split_history_;
};

}  // namespace tc

#endif  // TC_COMMON_MEMORY_ARBITER_H_
