// The LSM in-memory component (paper §2.2). Holds the latest operation per
// primary key. Records are kept in the dataset's uncompacted on-ingest format;
// the tuple compactor deliberately does not maintain schema for in-memory
// records (§3.1.1) — inference happens at flush.
//
// Delete/upsert entries capture the previous *on-disk* version of the record
// ("old payload") so the flush can process its anti-schema (§3.2.2). Versions
// that only ever lived in this memtable never contributed to the schema and
// are simply replaced.
//
// Concurrency: one MemTable is a *generation*. Writers (serialized by the
// tree's writer mutex) mutate the live generation; a flush retires it by
// Seal()ing it and swapping in a fresh one, after which the old generation is
// frozen forever — ReadViews that pinned it (and the pooled flush build that
// turns it into a component) keep reading it without synchronization. Reads
// of the LIVE generation race only with the single writer, so mutators take
// this table's internal lock exclusively and the copy-out read API
// (Find/Snapshot and the size observers) takes it shared; on a sealed
// generation the copy-out readers skip the lock entirely. The
// pointer/iterator API (Get/begin/end/LowerBound) is writer-side only: it is
// safe on the writer thread (nothing else mutates) and on sealed
// generations, but must not be used to read a live generation from another
// thread.
#ifndef TC_LSM_MEMTABLE_H_
#define TC_LSM_MEMTABLE_H_

#include <atomic>
#include <map>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "common/bytes.h"
#include "common/span.h"
#include "common/status.h"
#include "lsm/btree_component.h"

namespace tc {

/// One op of a batched tree write (LsmTree::Write): a key plus its encoded
/// payload (viewed, not owned — alive until the batch call returns; empty for
/// deletes). Ops never carry old versions: for upserts and deletes the tree
/// captures the previous on-disk version per op and hands it to Put/Delete;
/// inserts go through InsertBatch, which captures nothing.
struct MemPutOp {
  BtreeKey key;
  std::string_view payload;
};

class MemTable {
 public:
  struct Entry {
    bool anti = false;        // latest op is a delete
    Buffer payload;           // new record bytes (empty when anti)
    bool has_old = false;     // an on-disk version existed when first touched
    Buffer old_payload;       // that version's bytes (for anti-schema)
  };

  /// A copied-out entry, detached from the map (safe to hold without locks).
  struct ScanEntry {
    BtreeKey key;
    bool anti = false;
    Buffer payload;
  };

  /// Inserts or replaces the entry for `key`. `old_payload`, when present, is
  /// the current on-disk version (captured by the caller's point lookup); it
  /// is retained across subsequent updates to the same key so its anti-schema
  /// is processed exactly once at flush.
  void Put(const BtreeKey& key, Buffer payload, std::optional<Buffer> old_payload);

  /// Registers a delete.
  void Delete(const BtreeKey& key, std::optional<Buffer> old_payload);

  /// Applies a whole batch of inserts under ONE exclusive-lock acquisition:
  /// the entries are sorted by key first (stable, so duplicate keys apply in
  /// submission order) and inserted as a run with hinted placement —
  /// ascending-key batches pay amortized O(1) map placement per entry instead
  /// of a lock round-trip plus O(log n) each. Because copy-out readers take
  /// the same lock shared, a concurrent Snapshot()/Find() observes either
  /// none or all of the batch.
  void InsertBatch(Span<const MemPutOp> ops);

  /// Latest entry for `key`, or nullptr. Writer-side API: the returned
  /// pointer aliases the map and is only stable while no mutator runs.
  const Entry* Get(const BtreeKey& key) const;

  /// Copy-out point read, safe from any thread concurrently with the writer.
  std::optional<ScanEntry> Find(const BtreeKey& key) const;

  /// Copies every entry with key >= `*from` (all entries when null) and
  /// <= `*to` (to the end when null) into `out`, in key order — the merged
  /// iterator's in-memory snapshot. Safe from any thread concurrently with
  /// the writer. Bounded scans pass `to` so a narrow seek copies O(range),
  /// not O(memtable).
  void Snapshot(const BtreeKey* from, const BtreeKey* to,
                std::vector<ScanEntry>* out) const;

  /// True when `key` has an entry (live or anti).
  bool Contains(const BtreeKey& key) const;

  size_t entry_count() const;
  size_t approximate_bytes() const;
  bool empty() const;
  void Clear();

  /// Freezes this generation for good: mutators TC_CHECK against it, and the
  /// copy-out readers stop taking the internal lock (there is nothing left to
  /// race with). Called by the flush swap, after the writer's last mutation
  /// and before the generation is published to the flush queue.
  void Seal();
  bool sealed() const { return sealed_.load(std::memory_order_acquire); }

  using ConstIterator = std::map<BtreeKey, Entry>::const_iterator;
  // Writer-side iteration (flush builds, tests on quiesced tables).
  ConstIterator begin() const { return map_.begin(); }
  ConstIterator end() const { return map_.end(); }
  /// First entry with key >= `key`.
  ConstIterator LowerBound(const BtreeKey& key) const { return map_.lower_bound(key); }

 private:
  // Guards map_/bytes_ between the single writer (exclusive) and concurrent
  // copy-out readers (shared). See the class comment for the generation
  // discipline that makes this enough.
  mutable std::shared_mutex sync_;
  std::map<BtreeKey, Entry> map_;
  size_t bytes_ = 0;
  // Release-published after the last mutation; an acquire-load observing true
  // therefore observes the final map, so lock-free reads are safe. A stale
  // false only costs the shared-lock slow path.
  std::atomic<bool> sealed_{false};
};

}  // namespace tc

#endif  // TC_LSM_MEMTABLE_H_
