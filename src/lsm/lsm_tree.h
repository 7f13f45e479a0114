// One partition's LSM index (paper §2.2): an in-memory component plus a list
// of immutable on-disk components, with flush, merge (selectable policy),
// anti-matter deletes, WAL-backed recovery, and the transformer hook the
// tuple compactor plugs into (§3.1). The LSM tree itself is format-agnostic:
// payloads are opaque bytes. Flush, bulk load and merge write every component
// through one build tail (ComponentWriter) that passes each live payload
// through the one ComponentTransformer, which decides whether records are
// inferred and compacted and which schema blob the component persists.
// Scans and merges read through one newest-version k-way merge (Cursor) over
// the pinned memtable generations and the components, newest first.
//
// Concurrency model (snapshot reads + concurrent background work, ROADMAP
// "Parallelism"):
//   * Every read goes through a ReadView — an immutable value pinning the
//     memtable generations (live + any sealed ones awaiting their pooled
//     flush build) and the shared_ptr component vector as of one instant.
//     Acquisition is O(components) under the structure mutex `mu_`; the
//     search itself runs entirely OUTSIDE any tree lock, so point lookups and
//     scans from many threads proceed in parallel with each other and with
//     flush/merge rewrites.
//   * Writers are serialized by `write_mu_` (held across WAL append and
//     memtable update) and take `mu_` only for the brief structure swaps —
//     readers never wait out a flush or merge rewrite.
//   * Flush seals the live generation, swaps in a fresh one, rotates the WAL
//     to a new segment, and submits the component build as a job; merges
//     are jobs too. There is one scheduling path, and `merge_pool` only picks
//     the executor. With a pool the writer pays just the swap and the
//     rotation, sealed generations stay readable from the flush queue until
//     their component installs, and at most `max_pending_flush_builds`
//     generations may be queued before writers stall (backpressure).
//     Without one the jobs are caller-runs (TaskGroup on a null pool): the
//     build, its install and the whole merge cascade run on the writer
//     thread before Flush returns — deterministic, what unit tests, the
//     figure benches and crash-recovery replay use.
//   * A tree runs at most one merge at a time. Flush builds keep installing
//     (prepending) while it rewrites, so it installs over its contiguous
//     input run wherever that run has shifted to; its cascade then
//     re-decides over the whole component vector.
//   * Merge retires its input components by dropping them from the component
//     vector into a deferred-deletion list (ComponentReclaimer); the physical
//     files are deleted only when the last view referencing them is released.
//   * A background build failure latches a sticky error that gates writers,
//     short-circuits queued/cascading jobs, and surfaces from
//     WaitForMerges(); deferred-deletion failures latch into the reclaimer's
//     own sticky error, surfaced the same way. A call that flushes returns
//     the latched error too, so a caller-runs failure reaches the very call
//     whose flush ran the failing job.
#ifndef TC_LSM_LSM_TREE_H_
#define TC_LSM_LSM_TREE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/memory_arbiter.h"
#include "common/status.h"
#include "common/task_pool.h"
#include "lsm/btree_component.h"
#include "lsm/memtable.h"
#include "lsm/merge_policy.h"
#include "lsm/wal.h"
#include "storage/buffer_cache.h"

namespace tc {

/// Kind of a write: every layer's one write path (LsmTree, DatasetPartition,
/// IngestFrontEnd) takes a batch of ops of one kind.
enum class WriteOp : uint8_t { kInsert, kUpsert, kDelete };

/// The one hook on every component the tree writes (paper §3.1): flush,
/// bulk load and merge stream each live payload through Transform, so the
/// tuple compactor piggybacks schema inference and record compaction on
/// every rewrite (after Mycelium's transformation-embedded LSM-tree). Calls
/// may come from a flush build and a merge at once, so an
/// implementation must be thread-safe.
class ComponentTransformer {
 public:
  virtual ~ComponentTransformer() = default;
  /// Rewrites one live payload for the component being written into `out`.
  /// `*rewritten` (when non-null) is set iff `out` differs from `payload` —
  /// merges count those records as re-compacted.
  virtual Status Transform(std::string_view payload, Buffer* out,
                           bool* rewritten) = 0;
  /// Processes the anti-schema of a removed on-disk record version (§3.2.2);
  /// the flush build calls it before transforming the entry's new version.
  virtual Status OnRemovedVersion(std::string_view old_payload) = 0;
  /// The schema blob persisted in the metadata page of the component just
  /// written (empty for datasets without inferred schemas). A crash between a
  /// merge's write and a concurrently-inferring flush build's install can
  /// persist counters for records that replay re-infers — counter inflation
  /// (pruning runs later than ideal), never a decode error.
  virtual Status SchemaBlob(Buffer* out) = 0;
  /// Called during startup after on-disk components are recovered and before
  /// the WAL is replayed: `blob` is the newest valid component's schema
  /// (paper §3.1.2 — recovery reloads the schema, then replays the log, and
  /// the replayed memtable flushes through the transformer normally).
  virtual Status OnRecoveredSchema(const Buffer& blob) = 0;
};

/// Sealed generations a tree queues for their build before writers stall.
inline constexpr size_t kDefaultMaxPendingFlushBuilds = 2;

struct LsmTreeOptions {
  std::shared_ptr<FileSystem> fs;
  BufferCache* cache = nullptr;
  std::string dir;
  std::string name;
  size_t page_size = 32 * 1024;
  size_t memtable_budget_bytes = 4 * 1024 * 1024;
  CompressionKind compression = CompressionKind::kNone;
  /// Bloom filters built into every flushed/merged/bulk-loaded component.
  BloomFilterConfig filter;
  std::shared_ptr<MergePolicy> merge_policy;  // default: prefix(32 MiB, 5)
  bool use_wal = true;
  /// fdatasync cadence for the WAL; 0 disables syncing (bulk loads, benches).
  size_t wal_sync_every = 0;
  /// Hook on every component write (not owned). Null copies payloads
  /// through byte for byte; flushes and bulk loads then persist an empty
  /// schema blob, and merges the newest input's.
  ComponentTransformer* transformer = nullptr;
  /// Cold-level recompression: components produced by BOTTOM merges — plans
  /// covering the oldest component, whose output is read-mostly from then
  /// on — are written with this heavier codec instead of `compression`.
  /// kNone disables; readers are unaffected either way (components
  /// self-describe their codec via the LAF sidecar).
  CompressionKind merge_recompress = CompressionKind::kNone;
  /// Optional fast existence filter (the primary-key index of §3.2.2): when it
  /// returns false the expensive old-version point lookup is skipped. Invoked
  /// on the writer thread; implementations read through snapshots, so they
  /// must not take this tree's locks.
  std::function<bool(const BtreeKey&)> key_may_exist;
  /// Capture old on-disk versions on upsert/delete (needed by the tuple
  /// compactor's anti-schema processing and by secondary index maintenance).
  bool capture_old_versions = false;
  /// Executor for flush builds and merges (not owned; must outlive the
  /// tree). Null = caller-runs: the same jobs run on the thread that flushes,
  /// finished before the flush returns.
  TaskPool* merge_pool = nullptr;
  /// Backpressure for flush builds: writers stall once this many sealed
  /// generations await their component build (clamped to >= 1; never
  /// reached caller-runs, where each build finishes inside its flush).
  size_t max_pending_flush_builds = kDefaultMaxPendingFlushBuilds;
  /// Write-memory arbiter shared with other trees (not owned; must outlive
  /// the tree). The tree registers on Open, reports its live/sealed
  /// generation bytes, and flushes when the arbiter picks it as the victim;
  /// `memtable_budget_bytes` is then ignored. Null = the tree owns an arbiter
  /// of `memtable_budget_bytes`, i.e. it flushes once its live generation
  /// reaches that budget.
  MemoryArbiter* arbiter = nullptr;
};

struct LsmStats {
  uint64_t flush_count = 0;
  uint64_t merge_count = 0;
  uint64_t bytes_flushed = 0;       // physical bytes written by flushes
  uint64_t bytes_merged = 0;        // physical bytes written by merges
  /// Bulk loads tracked apart from flushes: a bulk-built component is written
  /// exactly once by construction, so folding it into bytes_flushed would
  /// dilute WriteAmplification() toward 1.0 and make the fig17 policy axis
  /// incomparable between fed and bulk-loaded datasets.
  uint64_t bulk_load_count = 0;
  uint64_t bytes_bulk_loaded = 0;
  uint64_t point_lookups = 0;
  uint64_t old_version_lookups = 0;
  /// Disk-component filter probes across all point-lookup entry points
  /// (Get, GetDiskVersion, upsert old-version capture). Only components that
  /// carry a filter and pass the fence check count.
  uint64_t filter_checks = 0;
  /// Filter probes answering "definitely absent" — each one is a component
  /// whose B-tree was never touched.
  uint64_t filter_negatives = 0;
  /// Filter said "maybe" but the B-tree search missed (the measured FPR is
  /// filter_false_positives / filter_checks on a miss-only workload).
  uint64_t filter_false_positives = 0;
  /// Pages fetched from DISK by point lookups (cache hits and pinned interior
  /// pages are free) — the fast-path counter: a hot lookup should add <= 1.
  uint64_t lookup_pages_read = 0;
  /// Most on-disk components ever live at once — the worst case a point
  /// lookup pays under this merge schedule (the fig24 policy-axis metric).
  uint64_t component_count_high_water = 0;
  /// Most sealed generations ever queued for a flush build at once (bounded
  /// by max_pending_flush_builds; 1 once a caller-runs tree has flushed).
  uint64_t flush_queue_high_water = 0;

  // Merge transformation pipeline: per-stage CPU inside the merge rewrite
  // loop, attributable instead of one opaque number. read = positioning and
  // advancing the newest-version cursor over the inputs; transform = the ComponentTransformer's re-encoding;
  // compress = codec time inside the builder's page writes; write = builder
  // Add/Finish minus the codec time.
  uint64_t merge_read_usecs = 0;
  uint64_t merge_transform_usecs = 0;
  uint64_t merge_compress_usecs = 0;
  uint64_t merge_write_usecs = 0;
  /// The same transform/compress/write stage clocks for flush and bulk-load
  /// builds (the merge's read stage has no flush counterpart: a flush
  /// iterates its sealed memtable).
  uint64_t flush_transform_usecs = 0;
  uint64_t flush_compress_usecs = 0;
  uint64_t flush_write_usecs = 0;
  /// Surviving records whose payload the transformer actually rewrote
  /// (re-compacted against a newer schema), and their input payload bytes.
  uint64_t merge_records_recompacted = 0;
  uint64_t merge_bytes_recompacted = 0;
  /// Bottom-merge outputs written with the heavier recompression codec:
  /// component count and their physical output bytes.
  uint64_t merge_components_recompressed = 0;
  uint64_t merge_bytes_recompressed = 0;

  /// (bytes_flushed + bytes_merged) / bytes_flushed — the fig17 policy-axis
  /// metric; 1.0 means the policy never rewrote a flushed byte. Bulk-loaded
  /// bytes are excluded on both sides.
  double WriteAmplification() const {
    if (bytes_flushed == 0) return 1.0;
    return static_cast<double>(bytes_flushed + bytes_merged) /
           static_cast<double>(bytes_flushed);
  }

  /// Share of merge-rewrite CPU spent on the transformation stages (transform
  /// + compress) rather than data movement (read + write). 0.0 when no merge
  /// ran.
  double MergePipelineCpuShare() const {
    uint64_t total = merge_read_usecs + merge_transform_usecs +
                     merge_compress_usecs + merge_write_usecs;
    if (total == 0) return 0.0;
    return static_cast<double>(merge_transform_usecs + merge_compress_usecs) /
           static_cast<double>(total);
  }
};

/// Deferred deletion of retired (merged-away or destroyed) components: files
/// are physically deleted only once no ReadView pins the component. Shared by
/// a tree and every view it hands out, so the last releaser — tree or view,
/// in either order — reclaims the files.
class ComponentReclaimer {
 public:
  ComponentReclaimer(std::shared_ptr<FileSystem> fs, BufferCache* cache)
      : fs_(std::move(fs)), cache_(cache) {}

  /// Takes ownership of a component that left the tree's component vector.
  void Retire(std::shared_ptr<BtreeComponent> comp);

  /// Deletes the files of every retired component nobody else references.
  /// Returns the first deletion error of THIS drain (deferred entries are not
  /// an error) and also latches it into sticky_error(): drains run from merge
  /// jobs and view destructors, call sites that have nowhere good to report
  /// to, so the owning tree surfaces the latched error instead.
  Status Drain();

  /// First deletion error any drain ever hit; never cleared.
  Status sticky_error() const;

  /// Lock-free fast path for the per-view release check.
  bool has_pending() const { return pending_.load(std::memory_order_acquire); }

 private:
  std::shared_ptr<FileSystem> fs_;
  BufferCache* cache_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<BtreeComponent>> retired_;
  Status sticky_error_;  // first Drain failure, guarded by mu_
  std::atomic<bool> pending_{false};
};

/// Read-path counters shared between the tree and its views (views may be
/// searched long after acquisition; the tree aggregates them into LsmStats).
struct LsmReadCounters {
  std::atomic<uint64_t> point_lookups{0};
  std::atomic<uint64_t> old_version_lookups{0};
  std::atomic<uint64_t> filter_checks{0};
  std::atomic<uint64_t> filter_negatives{0};
  std::atomic<uint64_t> filter_false_positives{0};
  std::atomic<uint64_t> lookup_pages_read{0};
};

class LsmTree {
 public:
  /// An immutable snapshot of the tree: the pinned memtable generations
  /// (live, plus any sealed generations whose pooled flush build has not
  /// installed yet) plus the on-disk component vector at acquisition time.
  /// All searching happens without tree locks. A view observes every write
  /// committed before its acquisition; writes applied to the pinned live
  /// generation while it is still live also become visible (read-committed
  /// in memory), but once a flush retires that generation the view is fully
  /// frozen — later flushes, merges, and deletes are never observed. Views
  /// are value types; share one across threads via ReadViewRef. Releasing a
  /// view drains the deferred-deletion list, so retired component files
  /// disappear exactly when the last reader lets go.
  class ReadView {
   public:
    ReadView(ReadView&&) = default;
    ReadView& operator=(ReadView&&) = default;
    ReadView(const ReadView&) = delete;
    ReadView& operator=(const ReadView&) = delete;
    ~ReadView();

    /// Point lookup across the pinned memtable generation and components,
    /// newest first. Runs without any tree lock.
    Result<std::optional<Buffer>> Get(const BtreeKey& key) const;

    /// Point lookup skipping the memtable (the current on-disk version).
    Result<std::optional<Buffer>> GetDiskVersion(const BtreeKey& key) const;

    size_t component_count() const { return comps_.size(); }
    const std::vector<std::shared_ptr<BtreeComponent>>& components() const {
      return comps_;
    }
    /// The generation that was live at acquisition time.
    const MemTable& memtable() const { return *mem_; }
    /// Sealed generations still awaiting their pooled flush build, newest
    /// first — empty in the common case (caller-runs, or an idle queue).
    /// Lookups and scans must consult memtable() first, then these in order
    /// (newer shadows older).
    const std::vector<std::shared_ptr<const MemTable>>& pending_memtables()
        const {
      return pending_mems_;
    }
    /// Total on-disk physical bytes of the pinned components (data files +
    /// LAFs) — the Figure 16 metric.
    uint64_t physical_bytes() const;
    /// Schema blob of the newest pinned component (empty when none).
    Buffer newest_schema_blob() const;

   private:
    friend class LsmTree;
    ReadView() = default;

    std::shared_ptr<const MemTable> mem_;  // live generation at acquisition
    // Sealed-but-unbuilt generations, newest first; only populated when the
    // flush queue was non-empty, so the common point-lookup path stays
    // allocation-free.
    std::vector<std::shared_ptr<const MemTable>> pending_mems_;
    std::vector<std::shared_ptr<BtreeComponent>> comps_;  // newest first
    std::shared_ptr<LsmReadCounters> counters_;
    std::shared_ptr<ComponentReclaimer> reclaimer_;
  };
  using ReadViewRef = std::shared_ptr<const ReadView>;

  /// Opens (or creates) the tree; removes invalid components and replays the
  /// WAL, then flushes the restored memtable (paper §3.1.2).
  static Result<std::unique_ptr<LsmTree>> Open(LsmTreeOptions options);

  /// Cancels merge jobs that have not started, waits out running ones, then
  /// releases the tree's own pins and reclaims whatever no view still holds.
  /// Queued flush builds are canceled only when a WAL backs the tree (the
  /// sealed generations keep their WAL segments on disk for the next Open to
  /// replay); WAL-less trees drain them. The live generation is never
  /// flushed here, so a WAL-less tree loses its unflushed entries.
  ~LsmTree();

  /// Snapshot acquisition: O(components) pointer copies under `mu_`.
  ReadView View() const;
  /// Heap-shared variant for callers that hand one snapshot to several
  /// consumers (query pipelines, iterators).
  ReadViewRef AcquireView() const;

  /// The tree's one write path: applies a batch of ops of one kind under ONE
  /// writer-lock acquisition, with ONE group-committed WAL append (a single
  /// buffered write + at most one fdatasync per the sync cadence), then
  /// checks the memtable budget once, so a flush triggers at batch
  /// granularity. All-or-nothing durability: when this returns OK the whole
  /// batch is logged (and synced, at cadence 1); on error none of it is
  /// acknowledged.
  ///  * kInsert assumes new keys: one memtable lock round for the batch, no
  ///    old-version lookup — the insert-only feed path of Figure 17a.
  ///  * kUpsert (delete-if-exists + insert, §2.2) and kDelete (anti-matter)
  ///    apply per op, in order. On a memtable miss each captures the old
  ///    on-disk version when capture_old_versions is set, so the flush can
  ///    process its anti-schema (§3.2.2). A kDelete op's payload is ignored.
  /// `old_out`, if non-null, is resized to ops.size(): slot i holds the
  /// version ops[i] replaced — the live memtable's entry, or the captured
  /// on-disk version on a miss — and nullopt when there was none (always,
  /// for kInsert).
  Status Write(WriteOp op, Span<const MemPutOp> ops,
               std::vector<std::optional<Buffer>>* old_out = nullptr);

  /// Single-record calls: each is a Write batch of one, `old_out` receiving
  /// slot 0.
  Status Insert(const BtreeKey& key, std::string_view payload);
  Status Upsert(const BtreeKey& key, std::string_view payload,
                std::optional<Buffer>* old_out = nullptr);
  Status Delete(const BtreeKey& key, std::optional<Buffer>* old_out = nullptr);

  /// Point lookup through a fresh snapshot (thin wrapper over ReadView::Get).
  Result<std::optional<Buffer>> Get(const BtreeKey& key);

  /// Point lookup skipping the memtable (the current on-disk version).
  Result<std::optional<Buffer>> GetDiskVersion(const BtreeKey& key);

  /// Flushes the in-memory component if non-empty, then consults the merge
  /// policy. The sealed generation is queued for its build job (subject to
  /// the max_pending_flush_builds backpressure). With a pool, Flush returns
  /// as soon as the swap is done — call WaitForMerges() to quiesce; without
  /// one, it returns with the component installed and the merge cascade
  /// done. Returns the sticky background error, if any.
  Status Flush();

  /// Blocks until no background work — merge or flush build — is scheduled
  /// or running for this tree; returns the sticky background error, if any
  /// (build failures and deferred-deletion failures alike). Caller-runs work
  /// is always finished already, so without a pool this only reports.
  Status WaitForMerges();

  /// Builds a single on-disk component from externally sorted entries
  /// (bulk-load, §4.3). The tree must be empty.
  Status BulkLoad(
      const std::function<Status(std::function<Status(const BtreeKey&,
                                                      std::string_view)>)>& feed);

 private:
  // The one newest-version k-way merge (paper §2.2): the read side of every
  // scan (Iterator) and every merge (BuildMergedComponent). Its sources rank
  // newest first — one in-memory run per pinned generation, then one
  // iterator per component — and it yields each key once, as that key's
  // newest version, anti-matter included: the caller decides what a
  // tombstone means. Each step takes a linear minimum over the sources; on a
  // key tie the newer source wins.
  class Cursor {
   public:
    Cursor() = default;
    /// Ranks `mems` before `comps`, each newest first; both must outlive the
    /// cursor. Every positioning copies the in-memory generations from the
    /// seek key up to the inclusive `upper` (to the end when absent).
    Cursor(const std::vector<const MemTable*>& mems,
           const std::vector<std::shared_ptr<BtreeComponent>>& comps,
           const std::optional<BtreeKey>& upper);

    Status SeekToFirst() { return Position(nullptr); }
    Status Seek(const BtreeKey& key) { return Position(&key); }
    bool Valid() const { return top_ != nullptr; }
    /// Advances every source positioned at key().
    Status Next();
    const BtreeKey& key() const { return *top_->key; }
    bool anti() const { return top_->anti; }
    /// Valid until the next Next or positioning: the winning source is not
    /// advanced before then, and it owns the bytes — a component iterator
    /// keeps its page pinned, a run its copied entry.
    std::string_view payload() const { return top_->payload; }

   private:
    struct Source {
      const MemTable* mem = nullptr;  // an in-memory generation, copied to run
      std::vector<MemTable::ScanEntry> run;
      size_t pos = 0;
      std::unique_ptr<BtreeComponent::Iterator> it;  // or a component's
      // The current entry; key is null once the source is exhausted.
      const BtreeKey* key = nullptr;
      bool anti = false;
      std::string_view payload;

      void Load();
      Status Advance();
    };

    Status Position(const BtreeKey* from);
    // Points top_ at the source holding the smallest key (null when all are
    // exhausted); the first — newest — source wins a tie.
    void Settle();

    std::vector<Source> sources_;
    std::optional<BtreeKey> upper_;
    Source* top_ = nullptr;
  };

 public:
  /// Merged forward scan with anti-matter annihilation over one snapshot.
  /// Readers get snapshot isolation: Seek/SeekToFirst pins the tree structure
  /// (tree-constructed iterators acquire a fresh view per seek; view-
  /// constructed iterators reuse the given one) and copies the in-memory
  /// entries, so concurrent writers, flushes, and merges are never observed
  /// mid-scan — the cursor sees exactly the records visible at seek time.
  class Iterator {
   public:
    /// Iterates the tree's state as of the next Seek/SeekToFirst call.
    explicit Iterator(LsmTree* tree);
    /// Iterates the given snapshot (coherent with other readers of `view`).
    explicit Iterator(ReadViewRef view);

    /// Pre-assembly payload predicate (§3.4.2-deep). Must be installed before
    /// positioning; entries whose payload fails it are skipped by the cursor
    /// itself. The predicate runs on the SURVIVING version of each key, after
    /// anti-matter annihilation across components — evaluating it inside the
    /// per-component cursors would be unsound, since a non-matching newer
    /// version must still shadow an older matching one. Rejected entries
    /// never surface to the operator tree. The callback is format-aware (the
    /// LSM tree itself stays format-agnostic) and may count scanned/filtered
    /// rows.
    using PayloadFilter = std::function<Result<bool>(std::string_view)>;
    void set_payload_filter(PayloadFilter filter) { filter_ = std::move(filter); }

    /// Optional inclusive upper bound, installed before positioning: the
    /// in-memory snapshot then copies O(range) entries instead of the whole
    /// memtable tail — what keeps a narrow range scan cheap during ingestion.
    /// The cursor does not itself stop at the bound; the caller must treat
    /// the first surfaced key past it as end-of-scan (beyond the bound,
    /// memtable entries — including anti-matter — are not consulted).
    void set_upper_bound(const BtreeKey& key) { upper_bound_ = key; }

    Status SeekToFirst();
    Status Seek(const BtreeKey& key);
    bool Valid() const { return cursor_.Valid(); }
    Status Next();
    const BtreeKey& key() const { return cursor_.key(); }
    /// A view, not a copy: valid until the next Next/Seek/SeekToFirst (a
    /// component's page stays pinned until then). Copy what must outlive it.
    std::string_view payload() const { return cursor_.payload(); }

   private:
    Status Position(const BtreeKey* seek_key);
    // Steps the cursor past anti-matter and filter-rejected versions.
    Status SkipRejected();

    LsmTree* tree_ = nullptr;  // null for view-constructed iterators
    ReadViewRef view_;
    std::optional<BtreeKey> upper_bound_;
    PayloadFilter filter_;
    Cursor cursor_;
  };

  /// Coherent component count via a snapshot (cheap; safe under concurrency).
  size_t component_count() const { return View().component_count(); }
  /// Total on-disk physical bytes via a snapshot — the Figure 16 metric.
  uint64_t physical_bytes() const { return View().physical_bytes(); }
  /// Aggregate statistics snapshot (copies under the structure mutex).
  LsmStats stats() const;
  const char* merge_policy_name() const { return opts_.merge_policy->name(); }
  /// Schema blob of the newest valid component (empty when none) — what crash
  /// recovery reloads (§3.1.2).
  Buffer newest_schema_blob() const { return View().newest_schema_blob(); }

  /// Retires every component and deletes this tree's files (testing and bench
  /// cleanup). Files pinned by still-live views are deleted when those views
  /// release.
  Status DestroyAll();

 private:
  LsmTree() = default;

  /// A merge captured under `mu_`: the pinned inputs rewrite without locks.
  struct MergePlan {
    std::vector<std::shared_ptr<BtreeComponent>> inputs;  // newest first
    bool drop_tombstones = false;
    uint64_t cid_min = 0;
    uint64_t cid_max = 0;
  };

  /// Per-stage accounting accumulated lock-free during one component build
  /// (flush, bulk load or merge), folded into stats_ under mu_ at install.
  /// Nanoseconds, so the per-record stage clocks do not truncate to zero.
  struct StageCounters {
    uint64_t read_nanos = 0;  // merge only: the cursor over the inputs
    uint64_t transform_nanos = 0;
    uint64_t compress_nanos = 0;
    uint64_t write_nanos = 0;
    uint64_t records_recompacted = 0;
    uint64_t bytes_recompacted = 0;
    bool recompressed = false;  // output written with the heavy tier
  };

  // A sealed generation whose component build is queued on the pool. The
  // generation stays readable (views pin it from this queue) and its WAL
  // segment stays on disk until the build installs.
  struct PendingFlush {
    uint64_t cid = 0;
    std::shared_ptr<MemTable> mem;
    std::string wal_path;  // empty when the tree runs without a WAL
  };

  std::string ComponentPath(uint64_t cid_min, uint64_t cid_max) const;
  std::string WalSegmentPath(uint64_t seq) const;
  // Writer-side (write_mu_ held), after every committed write: reports the
  // live generation to the arbiter and flushes when told to.
  Status MaybeFlushPostWrite();
  // The arbiter's flush_fn: called on ANOTHER tree's writer thread when this
  // tree is the global flush victim. Never blocks — try-locks write_mu_ and
  // bails when the writer is busy, the flush queue is full, or an error is
  // latched. Returns whether a generation was sealed; its own flush errors
  // latch into background_error_ (there is no caller to report to).
  bool TryArbiterFlush();
  Status RecoverComponents();
  Status ReplayWal();
  // Writer-side (write_mu_ held): seals the live generation, rotates the WAL,
  // submits its build and schedules merges; returns the sticky background
  // error (caller-runs jobs have finished by then).
  Status FlushLocked();
  // The one way a component is written — flush, bulk load and merge each
  // stream their entries through one, which passes every live payload
  // through the transformer (defined in lsm_tree.cpp).
  class ComponentWriter;
  // Streams one sealed generation into a component file, processing the
  // anti-schema of each replaced on-disk version first. Runs inside
  // FlushBuildJob — at most one flush build per tree at a time, in
  // generation order, because schema evolution is order-dependent.
  Result<std::shared_ptr<BtreeComponent>> BuildFlushComponent(
      const MemTable& mem, uint64_t cid, StageCounters* counters);
  // Flush job: builds the oldest queued generation, installs it, reschedules
  // itself while generations remain queued.
  void FlushBuildJob(bool canceled);
  // *Locked methods require `mu_` to be held by the caller.
  // Returns the policy's plan over the whole component vector and marks a
  // merge scheduled; empty while a merge is already scheduled, during WAL
  // replay, or once an error is latched.
  std::optional<MergePlan> ScheduleMergeLocked();
  // Submits the MergeJob for a scheduled plan, if any. Called WITHOUT mu_: a
  // caller-runs job runs inside Submit and takes mu_ itself.
  void SubmitMerge(std::optional<MergePlan> plan);
  Result<MergePlan> DecideMergeLocked();
  void InstallMergedLocked(const MergePlan& plan,
                           std::shared_ptr<BtreeComponent> merged);
  // Sticky first background failure (never cleared) — build errors and the
  // reclaimer's deferred-deletion errors; every writer entry point gates on
  // it. Takes mu_ itself.
  Status BackgroundError() const;
  Status BackgroundErrorLocked() const;
  // Writer-side old-version capture for a live-memtable miss (requires
  // capture_old_versions), over one View(): a sealed generation queued for
  // its pooled flush build shadows the disk — the version surviving in it is
  // exactly what the disk will hold once that build installs (its tombstone
  // means "no previous version") — otherwise the current on-disk version is
  // looked up, always guarded by the key_may_exist filter (every point-lookup
  // entry point consults it; a false from the pk index proves absence).
  Result<std::optional<Buffer>> CaptureOldVersion(const BtreeKey& key);
  // Rewrites the plan's pinned inputs into one component through the staged
  // transformation pipeline (read -> transform -> compress -> write), filling
  // `counters`. Lock-free: inputs are immutable files read through the
  // (thread-safe) buffer cache.
  Result<std::shared_ptr<BtreeComponent>> BuildMergedComponent(
      const MergePlan& plan, StageCounters* counters);
  // Requires mu_: folds one rewrite's pipeline counters into stats_;
  // `merged_physical_bytes` is the freshly installed component's on-disk size
  // (the recompressed-bytes figure when the rewrite switched codecs).
  void FoldMergeCountersLocked(const StageCounters& counters,
                               uint64_t merged_physical_bytes);
  // Requires mu_: folds one flush or bulk-load build's stage clocks into
  // stats_.
  void FoldFlushCountersLocked(const StageCounters& counters);
  // Executes one scheduled merge, then re-decides (cascade); short-circuits
  // when canceled or an error is latched.
  void MergeJob(MergePlan plan, bool canceled);

  LsmTreeOptions opts_;
  std::shared_ptr<const Compressor> compressor_;

  // Serializes writers (Write/Flush/BulkLoad/DestroyAll) end to end: WAL
  // append, memtable update, generation swaps. Readers and pool jobs never
  // take it.
  std::mutex write_mu_;

  // Guards the STRUCTURE only — the component vector, the live memtable
  // pointer, the flush queue, stats_, and the merge-scheduling state. Held
  // for view acquisition and swaps, never across component searches or
  // rewrites. Mutable so const observers (View) can lock it. Lock order:
  // write_mu_ before mu_; memtable-internal locks nest innermost.
  mutable std::mutex mu_;
  std::shared_ptr<MemTable> mem_;     // live generation; swapped by flush
  std::vector<std::shared_ptr<BtreeComponent>> components_;  // newest first
  // Sealed generations awaiting pooled builds, oldest first. Builds run one
  // at a time in queue order; views pin every queued generation.
  std::deque<PendingFlush> flush_queue_;
  bool flush_build_running_ = false;  // a FlushBuildJob is scheduled/running
  std::condition_variable flush_cv_;  // backpressure (with mu_)
  bool merge_scheduled_ = false;  // a MergeJob is scheduled/running
  Status background_error_;       // sticky first background failure
  bool replaying_ = false;        // WAL replay in progress: no merge decisions

  // Track this tree's jobs, split by kind: WaitForMerges() waits on both;
  // the destructor always cancels queued MERGE jobs (their inputs stay live
  // in the tree), but cancels queued FLUSH builds only when a WAL backs the
  // tree — without one, a sealed generation has no segment to replay, so
  // teardown drains its build (the pk/secondary index trees run WAL-less;
  // their live generation is still lost). Caller-runs groups without a pool.
  std::unique_ptr<TaskGroup> flush_jobs_;
  std::unique_ptr<TaskGroup> merge_jobs_;

  std::shared_ptr<ComponentReclaimer> reclaimer_;
  std::shared_ptr<LsmReadCounters> counters_;
  // Set when opts_.arbiter was null; opts_.arbiter then points at it.
  std::unique_ptr<MemoryArbiter> owned_arbiter_;
  // Live from Open until the destructor unregisters, after the flush builds
  // drained; the arbiter keeps it valid while any TryArbiterFlush dispatch
  // is in flight.
  MemoryArbiter::Registration* arbiter_reg_ = nullptr;
  // Batch→WAL op conversion scratch, reused across batches (writer-side,
  // guarded by write_mu_).
  std::vector<WalAppendOp> wal_batch_;
  std::unique_ptr<WriteAheadLog> wal_;  // live segment (writer-side)
  uint64_t wal_seq_ = 0;   // writer-side; suffix of the live segment
  uint64_t next_cid_ = 1;  // writer-side (write_mu_)
  LsmStats stats_;         // non-read-counter fields; guarded by mu_
};

}  // namespace tc

#endif  // TC_LSM_LSM_TREE_H_
