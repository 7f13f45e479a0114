// Public dataset API: the equivalent of AsterixDB's CREATE DATASET plus the
// experiment configurations of the paper's §4 ("Schema Configuration"):
//   * kOpen      — only the primary key declared; records stored in the
//                  self-describing ADM physical format (names + offsets).
//   * kClosed    — every field declared; ADM format without names.
//   * kInferred  — only the primary key declared; records stored vector-based
//                  and compacted by the tuple compactor at flush time.
//   * kSchemalessVB — vector-based format without the compactor (the SL-VB
//                  configuration of §4.4.4 / Figure 21).
//   * kBson      — BSON-like storage (the MongoDB baseline of Figure 16).
// Page-level compression (§2.4) is orthogonal and controlled by `compression`.
#ifndef TC_CORE_DATASET_H_
#define TC_CORE_DATASET_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adm/value.h"
#include "common/span.h"
#include "core/tuple_compactor.h"
#include "format/adm_format.h"
#include "lsm/lsm_tree.h"
#include "lsm/secondary_index.h"
#include "schema/type_descriptor.h"
#include "storage/buffer_cache.h"

namespace tc {

/// Per-record failures of a batched write: (record position, status). For
/// the Dataset batch APIs the position is the index into the submitted batch;
/// for DatasetPartition::Write it is the position within the passed span
/// (callers owning a wider batch remap via EncodedWrite's `index`).
using BatchErrors = std::vector<std::pair<size_t, Status>>;

/// One routed, pre-encoded write — the handoff unit between the
/// route-and-encode step (Dataset::Route) and DatasetPartition::Write.
/// `index` is the caller's batch offset, carried along so a bad record deep
/// in a 10k-record feed stays locatable. Deletes carry only the pk.
struct EncodedWrite {
  size_t index = 0;
  int64_t pk = 0;
  /// Secondary-index key of the new version (inserts and upserts on a
  /// dataset with a secondary index).
  int64_t sk = 0;
  Buffer payload;
};

enum class SchemaMode {
  kOpen,
  kClosed,
  kInferred,
  kSchemalessVB,
  kBson,
};

const char* SchemaModeName(SchemaMode mode);

struct DatasetOptions {
  std::string name = "dataset";
  std::string dir = "data";
  SchemaMode mode = SchemaMode::kInferred;
  /// Declared type; must declare at least the (bigint) primary key.
  DatasetType type = DatasetType::OpenWithPk("id");
  bool compression = false;
  size_t page_size = 32 * 1024;
  /// Write budget of each partition, shared by its primary, pk-index and
  /// secondary trees: once their live memtables together reach it, the
  /// largest one flushes.
  size_t memtable_budget_bytes = 4 * 1024 * 1024;
  /// Write-memory arbiter shared by every tree of every partition (not
  /// owned; must outlive the dataset), so one budget spans partitions and
  /// datasets; memtable_budget_bytes is then ignored. Null = one arbiter of
  /// memtable_budget_bytes per partition.
  MemoryArbiter* arbiter = nullptr;
  /// Merge-policy selection + knobs for every LSM tree of a partition
  /// (primary, primary-key index, secondary index).
  MergePolicyConfig merge = {};
  /// Bloom-filter policy for every tree of a partition.
  BloomFilterConfig filter = {};
  /// Bottom-level merge outputs switch to this heavier codec; a codec not
  /// compiled into this build makes Open fail with NotSupported. (Inferred-
  /// mode merges always re-compact surviving uncompacted records against the
  /// newest schema: the tuple compactor transforms every component write.)
  CompressionKind merge_recompress = CompressionKind::kNone;
  bool use_wal = true;
  size_t wal_sync_every = 64;
  /// Primary-key index for upsert existence checks (paper §3.2.2, Fig. 17b).
  bool primary_key_index = false;
  /// Name of a top-level integer field to index (paper §4.4.5), empty =
  /// none. Inserted and upserted records must carry it as tinyint .. bigint.
  std::string secondary_index_field;
  /// Executor for LSM merges AND flush builds across every partition's trees
  /// (not owned; must outlive the dataset). Null = caller-runs: the same
  /// jobs run on the writer thread and finish inside the flush that started
  /// them — deterministic, what unit tests use. ClusterHarness wires its
  /// nproc-sized pool here. Each tree runs at most one merge at a time and
  /// lets kDefaultMaxPendingFlushBuilds sealed generations queue for their
  /// build before writers stall.
  TaskPool* merge_pool = nullptr;

  std::shared_ptr<FileSystem> fs;   // required
  BufferCache* cache = nullptr;     // required; page_size must match
};

/// A coherent snapshot across one partition's trees: a query that resolves
/// secondary-index hits against the primary index (or consults the pk index)
/// sees ONE LSM state for the whole partition instead of re-reading a moving
/// structure per lookup. Null entries mean the partition has no such index.
struct PartitionReadView {
  LsmTree::ReadViewRef primary;
  LsmTree::ReadViewRef pk_index;
  LsmTree::ReadViewRef secondary;
};

/// One data partition: a primary LSM B+-tree index plus optional primary-key
/// and secondary indexes, and (for kInferred) the partition-local tuple
/// compactor with its independently inferred schema (§3.4.1).
class DatasetPartition {
 public:
  static Result<std::unique_ptr<DatasetPartition>> Open(const DatasetOptions* opts,
                                                        int partition_id);

  /// The partition's one write path; single-record writes are batches of
  /// one. Applies writes the route-and-encode step accepted under ONE
  /// writer-lock acquisition: one group-committed primary LsmTree::Write
  /// (single WAL write + fsync per group; upserts and deletes capture the
  /// versions they replace), one pk-index Write, then secondary-index
  /// maintenance from the replaced versions — all inside the same critical
  /// section, so concurrent feeds interleave at batch granularity. `errors`
  /// entries are positions within `writes`. A batch-level failure (primary or
  /// pk-index write) marks every record failed, is returned, and sets
  /// `*batch_failed` when provided; a per-record failure (secondary
  /// maintenance) leaves it false.
  Status Write(WriteOp op, Span<const EncodedWrite> writes,
               BatchErrors* errors = nullptr, bool* batch_failed = nullptr);

  Result<std::optional<AdmValue>> Get(int64_t pk);

  /// Pins a coherent snapshot of every tree in this partition (primary, and
  /// the pk/secondary indexes when configured).
  PartitionReadView AcquireReadView() const;
  /// Point lookup + decode against a pinned snapshot.
  Result<std::optional<AdmValue>> Get(const PartitionReadView& view, int64_t pk);
  /// Primary keys with secondary key in [lo, hi] under `view` (which must
  /// have been acquired from this partition, with a secondary index).
  Result<std::vector<int64_t>> SecondaryRangeScan(const PartitionReadView& view,
                                                  int64_t lo, int64_t hi) const;

  Status Flush();
  /// Drains scheduled background merges on every tree of this partition;
  /// returns the first sticky background error. No-op without a merge pool.
  Status WaitForBackgroundWork();

  /// Encodes a record in this partition's storage format (uncompacted for
  /// vector-based modes; compaction happens at flush).
  Status EncodeRecord(const AdmValue& record, Buffer* out) const;
  /// Decodes a stored payload. For kInferred the current schema snapshot
  /// resolves compacted FieldNameIDs. Pass a schema explicitly with
  /// DecodeWith when operating from a broadcast snapshot.
  Status DecodeRecord(std::string_view payload, AdmValue* out) const;
  Status DecodeWith(std::string_view payload, const Schema* schema,
                    AdmValue* out) const;

  /// Partition-local inferred schema snapshot (empty schema for non-inferred
  /// modes).
  Schema SchemaSnapshot() const;

  int partition_id() const { return id_; }
  LsmTree* primary() { return primary_.get(); }
  const LsmTree* primary() const { return primary_.get(); }
  SecondaryIndex* secondary() { return secondary_.get(); }
  LsmTree* pk_index() { return pk_index_.get(); }
  const DatasetOptions& options() const { return *opts_; }

  uint64_t physical_bytes() const;

 private:
  DatasetPartition() = default;

  // Moves the secondary-index entry of one applied write: drops the
  // replaced version's entry, adds the new version's.
  Status MaintainSecondary(WriteOp op, const EncodedWrite& w,
                           const std::optional<Buffer>& old_payload);

  const DatasetOptions* opts_ = nullptr;
  int id_ = 0;
  // Serializes writers targeting this partition (concurrent data feeds hash
  // records from several ingest threads into the same partition).
  std::mutex write_mu_;
  // Point-lookup decode cache: cloning the schema per Get() is wasteful, so
  // DecodeRecord keeps a snapshot and refreshes it only when the compactor's
  // schema version moves. The mutex guards the pointer and the version, not
  // the decodes, which each hold their own reference to the snapshot.
  mutable std::mutex decode_mu_;
  mutable std::shared_ptr<const Schema> decode_schema_;
  mutable uint64_t decode_schema_version_ = UINT64_MAX;
  // The partition's write budget when opts_->arbiter is null. Declared
  // before the trees, so it outlives them: they unregister on destruction.
  std::unique_ptr<MemoryArbiter> arbiter_;
  std::unique_ptr<TupleCompactor> compactor_;  // kInferred only
  std::unique_ptr<LsmTree> primary_;
  std::unique_ptr<LsmTree> pk_index_;          // optional
  std::unique_ptr<SecondaryIndex> secondary_;  // optional
};

/// A dataset spread across hash partitions (paper §2.2): each record is
/// hash-partitioned on its primary key; partitions operate independently,
/// including their inferred schemas.
class Dataset {
 public:
  static Result<std::unique_ptr<Dataset>> Open(DatasetOptions options,
                                               size_t num_partitions);

  /// Single-record writes: each is a batch of one, routed and encoded like
  /// a batch record and handed straight to the owning partition's Write.
  Status Insert(const AdmValue& record);
  Status Upsert(const AdmValue& record);
  Status Delete(int64_t pk);
  Result<std::optional<AdmValue>> Get(int64_t pk);

  /// Batched writes across partitions: the batch is routed and encoded
  /// (Route), then applied with one DatasetPartition::Write — one
  /// writer-lock/WAL/memtable round — per touched partition. Per-record
  /// failures (bad primary or secondary key, encode errors, index
  /// maintenance) are reported in `errors` by submitted-batch index while
  /// the healthy records still apply; the first error doubles as the return
  /// status. Within a partition, records apply in submission order. Upserts
  /// and deletes capture the versions they replace and move their index
  /// entries.
  Status InsertBatch(Span<const AdmValue> records, BatchErrors* errors = nullptr);
  Status UpsertBatch(Span<const AdmValue> records, BatchErrors* errors = nullptr);
  /// Error positions index into `pks`.
  Status DeleteBatch(Span<const int64_t> pks, BatchErrors* errors = nullptr);

  /// Writes routed to each partition, indexed by partition.
  using RoutedWrites = std::vector<std::vector<EncodedWrite>>;

  /// The route-and-encode step every write shares. Each item — a record, or
  /// a pk for a delete by key — gets its primary key checked and is routed
  /// to its owning partition. Unless `op` is kDelete (deletes carry only the
  /// pk), its payload is encoded and, on a dataset with a secondary index,
  /// its secondary key extracted; both keys must be integers (tinyint ..
  /// bigint). Accepted writes are appended to `(*routed)[partition]` in
  /// submission order; rejected ones go to `errors` by item index and reach
  /// no tree. Returns the first rejection. Instantiated for AdmValue and
  /// int64_t.
  template <typename Item>
  Status Route(WriteOp op, Span<const Item> items, RoutedWrites* routed,
               BatchErrors* errors) const;

  /// Parses ADM text and inserts (convenience for examples). When
  /// `batch_offset` is given (multi-record feeds), any error message is
  /// prefixed with "record N: " so one bad record in a 10k batch is
  /// locatable.
  Status InsertJson(std::string_view text,
                    std::optional<size_t> batch_offset = std::nullopt);

  Status FlushAll();
  /// Drains background merges across all partitions (see DatasetPartition).
  Status WaitForBackgroundWork();

  /// Sorts records per partition and bulk-loads one component per partition
  /// (paper §4.3 bulk-load experiments). Dataset must be empty.
  Status BulkLoad(std::vector<AdmValue> records);

  /// Primary keys in [lo, hi] via the secondary index on the configured field.
  Result<std::vector<int64_t>> SecondaryRangeScan(int64_t lo, int64_t hi);

  size_t partition_count() const { return partitions_.size(); }
  DatasetPartition* partition(size_t i) { return partitions_[i].get(); }
  const DatasetOptions& options() const { return opts_; }

  /// Total on-disk footprint across partitions (Figure 16 metric).
  uint64_t TotalPhysicalBytes() const;
  /// Aggregated LSM stats across partitions.
  LsmStats AggregateStats() const;

  /// Extracts the primary key from a record per the declared type.
  Result<int64_t> PrimaryKeyOf(const AdmValue& record) const;
  size_t PartitionOf(int64_t pk) const;

  /// Removes all on-disk state.
  Status DestroyAll();

 private:
  Dataset() = default;

  // Route's per-item step; returns the owning partition.
  Result<size_t> EncodeWrite(WriteOp op, const AdmValue& record,
                             EncodedWrite* out) const;
  Result<size_t> EncodeWrite(WriteOp op, int64_t pk, EncodedWrite* out) const;
  // A single-record write: one EncodedWrite, no per-partition buckets.
  template <typename Item>
  Status WriteOne(WriteOp op, const Item& item);
  // A batched write: Route, then one partition Write per touched partition.
  template <typename Item>
  Status WriteBatch(WriteOp op, Span<const Item> items, BatchErrors* errors);

  DatasetOptions opts_;
  std::vector<std::unique_ptr<DatasetPartition>> partitions_;
};

}  // namespace tc

#endif  // TC_CORE_DATASET_H_
