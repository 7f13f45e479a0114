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
#include "common/env_config.h"
#include "common/span.h"
#include "core/tuple_compactor.h"
#include "format/adm_format.h"
#include "lsm/lsm_tree.h"
#include "lsm/secondary_index.h"
#include "schema/type_descriptor.h"
#include "storage/buffer_cache.h"

namespace tc {

/// Per-record failures of a batched insert: (record position, status). For
/// the public InsertBatch APIs the position is the index into the submitted
/// batch; for the lower-level InsertEncodedBatch it is the position within
/// the passed span (callers owning a wider batch remap via EncodedWrite's
/// `index`).
using BatchErrors = std::vector<std::pair<size_t, Status>>;

/// One pre-encoded record of a batch — the handoff unit between the
/// partitioning front ends (Dataset::InsertBatch, IngestFrontEnd's
/// per-partition writers) and DatasetPartition::InsertEncodedBatch. `record`
/// is viewed, not owned; `index` is the caller's batch offset, carried along
/// so a bad record deep in a 10k-record feed stays locatable.
struct EncodedWrite {
  size_t index = 0;
  int64_t pk = 0;
  const AdmValue* record = nullptr;
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
  size_t memtable_budget_bytes = 4 * 1024 * 1024;
  /// Memtable carve-outs for a partition's auxiliary trees, as divisors of
  /// memtable_budget_bytes (the pk index stores keys only; the secondary
  /// index stores key pairs — neither earns a full budget). Each tree gets
  /// max(min_tree_budget_bytes, memtable_budget_bytes / divisor). The same
  /// carve-outs size the per-tree arbiter floors when an arbiter is attached.
  size_t pk_index_budget_divisor =
      static_cast<size_t>(EnvInt64("TC_PK_BUDGET_DIVISOR", 16));
  size_t secondary_budget_divisor =
      static_cast<size_t>(EnvInt64("TC_SK_BUDGET_DIVISOR", 8));
  size_t min_tree_budget_bytes =
      static_cast<size_t>(EnvInt64("TC_MIN_TREE_BUDGET", 64 * 1024));
  /// Node-level memory arbiter shared by every tree of every partition (not
  /// owned; must outlive the dataset). When set, flush triggering is global
  /// across all registered trees and the per-tree budgets above only define
  /// floors; null = the historical static per-tree budgets. ClusterHarness
  /// wires one from TC_MEMORY_BUDGET across all its partitions.
  MemoryArbiter* arbiter = nullptr;
  /// Merge-policy selection + knobs for every LSM tree of a partition
  /// (primary, primary-key index, secondary index). Defaults honor the
  /// TC_MERGE_POLICY / TC_MERGE_* environment knobs so every bench, example,
  /// and cluster node can switch the merge schedule without recompiling.
  MergePolicyConfig merge = MergePolicyConfig::FromEnv();
  /// Bloom-filter + lookup fast-path policy for every tree of a partition.
  /// Defaults honor TC_BLOOM_BITS_PER_KEY / TC_FILTER_CACHE.
  BloomFilterConfig filter = BloomFilterConfig::FromEnv();
  /// Merge transformation pipeline knobs (all honor environment overrides so
  /// benches and cluster nodes flip them without recompiling):
  ///  * merge_transform (TC_MERGE_TRANSFORM, default on): inferred-mode
  ///    partitions re-compact surviving records against the newest schema
  ///    during merge rewrites instead of splicing bytes through.
  ///  * merge_recompress (TC_MERGE_RECOMPRESS: none|snappy|heavy|zstd|lz4,
  ///    default none): bottom-level merge outputs switch to this heavier
  ///    codec; unavailable codecs fall back to the built-in heavy tier.
  bool merge_transform = EnvInt64("TC_MERGE_TRANSFORM", 1) != 0;
  CompressionKind merge_recompress =
      CompressionKindFromEnv("TC_MERGE_RECOMPRESS", CompressionKind::kNone);
  bool use_wal = true;
  size_t wal_sync_every = 64;
  /// Primary-key index for upsert existence checks (paper §3.2.2, Fig. 17b).
  bool primary_key_index = false;
  /// Name of a top-level bigint field to index (paper §4.4.5), empty = none.
  std::string secondary_index_field;
  /// Executor for LSM merges AND flush builds across every partition's trees
  /// (not owned; must outlive the dataset). Null = caller-runs: the same
  /// jobs run on the writer thread and finish inside the flush that started
  /// them — deterministic, what unit tests use. ClusterHarness wires its
  /// nproc-sized pool here. The per-tree merge
  /// concurrency cap and the pooled-flush backpressure bound ride in
  /// `merge.max_concurrent_merges` / `merge.max_pending_flush_builds`
  /// (TC_MERGE_CONCURRENT / TC_FLUSH_PENDING).
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

  Status Insert(const AdmValue& record);
  Status Upsert(const AdmValue& record);
  Status Delete(int64_t pk);
  Result<std::optional<AdmValue>> Get(int64_t pk);

  /// Batched insert into THIS partition (every record must hash here when
  /// routed through a Dataset; direct callers just own the whole batch).
  /// Encodes outside the partition writer lock, then applies everything in
  /// one critical section. Per-record encode/pk failures go to `errors` (by
  /// batch index) and the remaining records still apply; the first error also
  /// comes back as the return status.
  Status InsertBatch(Span<const AdmValue> records, BatchErrors* errors = nullptr);

  /// The batch back end: applies pre-encoded records under ONE writer-lock
  /// acquisition — one group-committed primary InsertBatch (single WAL write
  /// + fsync per group), one pk-index InsertBatch, then the secondary-index
  /// maintenance loop, all inside the same critical section so concurrent
  /// feeds interleave at batch granularity. `errors` entries are positions
  /// within `writes` (remap via writes[pos].index); a batch-level failure
  /// (WAL/LSM primary or pk-index write) marks every record failed, is
  /// returned, and sets `*batch_failed` when provided — per-record rejections
  /// (secondary-index maintenance) leave it false.
  Status InsertEncodedBatch(Span<EncodedWrite> writes,
                            BatchErrors* errors = nullptr,
                            bool* batch_failed = nullptr);

  /// Batched upsert into THIS partition: encode outside the writer lock,
  /// then one group-committed primary UpsertBatch (old versions captured
  /// per-record inside), one pk-index round, and the secondary maintenance
  /// loop — the InsertBatch shape with upsert semantics (fig17 §(f)).
  Status UpsertBatch(Span<const AdmValue> records, BatchErrors* errors = nullptr);

  /// The upsert batch back end (see InsertEncodedBatch for the errors /
  /// batch_failed contract).
  Status UpsertEncodedBatch(Span<EncodedWrite> writes,
                            BatchErrors* errors = nullptr,
                            bool* batch_failed = nullptr);

  /// Batched delete by primary key; error positions index into `pks`.
  Status DeleteBatch(Span<const int64_t> pks, BatchErrors* errors = nullptr,
                     bool* batch_failed = nullptr);

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

  Status MaintainIndexesOnWrite(int64_t pk, const AdmValue& record,
                                const std::optional<Buffer>& old_payload,
                                bool is_delete);
  Result<int64_t> ExtractSecondaryKey(const AdmValue& record) const;

  const DatasetOptions* opts_ = nullptr;
  int id_ = 0;
  // Serializes writers targeting this partition (concurrent data feeds hash
  // records from several ingest threads into the same partition).
  std::mutex write_mu_;
  // Point-lookup decode cache: cloning the schema per Get() is wasteful, so
  // DecodeRecord keeps a snapshot and refreshes it only when the compactor's
  // schema version moves.
  mutable std::mutex decode_mu_;
  mutable Schema decode_schema_;
  mutable uint64_t decode_schema_version_ = UINT64_MAX;
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

  Status Insert(const AdmValue& record);
  Status Upsert(const AdmValue& record);
  Status Delete(int64_t pk);
  Result<std::optional<AdmValue>> Get(int64_t pk);

  /// Batched insert across partitions: records are hash-partitioned, encoded,
  /// and applied with one writer-lock/WAL/memtable round per touched
  /// partition. Per-record failures (bad pk, encode errors, index
  /// maintenance) are reported in `errors` by submitted-batch index while the
  /// healthy records still apply; the first error doubles as the return
  /// status. Within a partition, records apply in submission order.
  Status InsertBatch(Span<const AdmValue> records, BatchErrors* errors = nullptr);

  /// Batched upsert across partitions: InsertBatch's hash-partition + encode
  /// front end over the group-committed upsert back end (old-version capture
  /// and index maintenance included).
  Status UpsertBatch(Span<const AdmValue> records, BatchErrors* errors = nullptr);

  /// Batched delete across partitions; error positions index into `pks`.
  Status DeleteBatch(Span<const int64_t> pks, BatchErrors* errors = nullptr);

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

  DatasetOptions opts_;
  std::vector<std::unique_ptr<DatasetPartition>> partitions_;
};

}  // namespace tc

#endif  // TC_CORE_DATASET_H_
