// Write-memory arbitration: the one flush trigger of every LSM tree (paper
// §2.2: an in-memory component is flushed when its memory budget fills). An
// arbiter owns one byte budget for the live memtable generations of every
// tree registered with it. By default each tree scope gets its own: an
// LsmTree opened without one creates a tree-owned arbiter of
// memtable_budget_bytes, and a DatasetPartition shares one arbiter of
// memtable_budget_bytes among its primary, pk-index and secondary trees. A
// caller-supplied DatasetOptions::arbiter shares one budget across
// partitions and datasets (after Luo & Carey, "Breaking Down Memory Walls",
// arXiv 2004.10360 — its write half only; the buffer cache keeps its fixed
// capacity).
//
// Protocol, from a tree's point of view:
//   * Register(flush_fn) on open; Unregister on teardown, after the
//     tree's own flush builds have drained (Unregister also blocks until any
//     in-flight flush_fn call on that registration returns, so a tree may
//     destruct immediately after).
//   * After every committed write, OnPostWrite(reg, live_bytes) reports the
//     live generation's size. While total live memory stays under the
//     budget, it returns false and the writer proceeds. Once over, the
//     arbiter picks the flush victim — the largest live generation across
//     every registered tree that clears the flush floor. If the victim is
//     the caller itself, OnPostWrite returns true and the caller flushes
//     under its own writer lock; any other victim is flushed synchronously
//     on the calling thread through its flush_fn.
//   * OnSeal(reg, bytes) moves a generation from live to sealed accounting at
//     the flush swap; OnFlushInstalled(reg, bytes) releases it when the
//     component build installs. Sealed bytes are observable (stats), but the
//     flush trigger compares LIVE bytes only: counting a draining build
//     against the budget would cascade tiny flushes exactly when the
//     pipeline is busiest. The sealed backlog is bounded separately, by the
//     trees' max_pending_flush_builds backpressure.
//   LsmTree calls OnPostWrite and OnSeal with its writer mutex held, and
//   OnFlushInstalled from the flush build (writer mutex not held).
//
// A single registration behaves exactly like a per-tree threshold: the floor
// is capped at the budget, so the tree flushes itself once its live
// generation reaches the budget.
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
// over-budget write re-selects, so live memory can overshoot the budget while
// a victim's writer stalls. The overshoot is still BOUNDED: once live memory
// reaches twice the budget, a writer whose dispatch was skipped flushes
// itself (if it clears the floor) rather than retrying the stuck victim —
// live memory stays under 2x the budget plus the floors and in-flight
// records. The max_pending_flush_builds backpressure remains the hard bound
// on sealed memory.
#ifndef TC_COMMON_MEMORY_ARBITER_H_
#define TC_COMMON_MEMORY_ARBITER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace tc {

class MemoryArbiter {
 public:
  /// Smallest live generation the arbiter flushes (capped at the budget):
  /// one tree's pressure cannot shred another's memtable into page-sized
  /// components.
  static constexpr size_t kFlushFloorBytes = 64 * 1024;

  /// One registered tree. Owned by the arbiter; the pointer stays valid from
  /// Register until Unregister returns. live() is an unsynchronized observer
  /// for tests.
  struct Registration {
    size_t live() const { return live_bytes; }

   private:
    friend class MemoryArbiter;
    /// Flushes the tree if it cheaply can (see TryArbiterFlush); returns
    /// whether a generation was actually sealed.
    std::function<bool()> flush_fn;
    size_t live_bytes = 0;
    size_t sealed_bytes = 0;
    bool flush_requested = false;   // victim dispatch pending/in flight
    bool callback_inflight = false;  // flush_fn executing right now
  };

  struct Stats {
    size_t write_bytes_live = 0;
    size_t write_bytes_sealed = 0;
    size_t registered_trees = 0;
    uint64_t flushes_installed = 0;
    /// Cross-tree victim flushes dispatched through flush_fn and sealed.
    uint64_t global_flushes_triggered = 0;
    /// OnPostWrite calls that told the caller to flush itself.
    uint64_t self_flushes_triggered = 0;
    /// Victim dispatches that bailed (busy writer, full queue, error).
    uint64_t victim_skips = 0;
  };

  explicit MemoryArbiter(size_t write_budget_bytes);
  /// Every registration must be gone: trees unregister in their destructors,
  /// so the arbiter must outlive the trees it governs.
  ~MemoryArbiter();

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  Registration* Register(std::function<bool()> flush_fn);
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
  /// of sealed accounting.
  void OnFlushInstalled(Registration* reg, size_t mem_bytes);

  /// The registration the arbiter would flush right now (the largest live
  /// generation), or null when no tree clears the floor. Exposed for the
  /// victim-selection property tests; OnPostWrite uses the same selection.
  Registration* SuggestFlushVictim();

  Stats stats() const;

 private:
  Registration* PickVictimLocked();
  size_t LiveTotalLocked() const;

  const size_t write_budget_bytes_;
  const size_t floor_bytes_;  // kFlushFloorBytes capped at the budget, >= 1
  mutable std::mutex mu_;
  std::condition_variable unregister_cv_;
  std::vector<std::unique_ptr<Registration>> regs_;
  uint64_t flushes_installed_ = 0;
  uint64_t global_flushes_ = 0;
  uint64_t self_flushes_ = 0;
  uint64_t victim_skips_ = 0;
};

}  // namespace tc

#endif  // TC_COMMON_MEMORY_ARBITER_H_
