#include "core/dataset.h"

#include <algorithm>

#include "adm/parser.h"
#include "format/bson_format.h"
#include "format/vector_format.h"

namespace tc {
namespace {

// Memtable carve-outs of a partition's auxiliary trees, as divisors of
// memtable_budget_bytes: the pk index stores keys only, the secondary index
// key pairs.
constexpr size_t kPkIndexBudgetDivisor = 16;
constexpr size_t kSecondaryBudgetDivisor = 8;

}  // namespace

const char* SchemaModeName(SchemaMode mode) {
  switch (mode) {
    case SchemaMode::kOpen: return "open";
    case SchemaMode::kClosed: return "closed";
    case SchemaMode::kInferred: return "inferred";
    case SchemaMode::kSchemalessVB: return "sl-vb";
    case SchemaMode::kBson: return "bson";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// DatasetPartition
// ---------------------------------------------------------------------------

Result<std::unique_ptr<DatasetPartition>> DatasetPartition::Open(
    const DatasetOptions* opts, int partition_id) {
  TC_CHECK(opts->fs != nullptr && opts->cache != nullptr);
  auto p = std::unique_ptr<DatasetPartition>(new DatasetPartition());
  p->opts_ = opts;
  p->id_ = partition_id;

  if (opts->mode == SchemaMode::kInferred) {
    p->compactor_ = std::make_unique<TupleCompactor>(&opts->type);
  }

  // The auxiliary-tree carve-outs. With an arbiter they become the per-tree
  // flush floors instead of budgets.
  size_t min_budget = std::max<size_t>(1, opts->min_tree_budget_bytes);
  size_t pk_carve = std::max<size_t>(
      min_budget, opts->memtable_budget_bytes / kPkIndexBudgetDivisor);
  size_t sk_carve = std::max<size_t>(
      min_budget, opts->memtable_budget_bytes / kSecondaryBudgetDivisor);

  std::string part_suffix = ".p" + std::to_string(partition_id);
  LsmTreeOptions lsm;
  lsm.fs = opts->fs;
  lsm.cache = opts->cache;
  lsm.dir = opts->dir;
  lsm.name = opts->name + part_suffix;
  lsm.page_size = opts->page_size;
  lsm.memtable_budget_bytes = opts->memtable_budget_bytes;
  lsm.compression = opts->compression ? CompressionKind::kSnappy
                                      : CompressionKind::kNone;
  lsm.filter = opts->filter;
  lsm.merge_policy = MakeMergePolicy(opts->merge);
  lsm.merge_pool = opts->merge_pool;
  lsm.max_concurrent_merges = opts->merge.max_concurrent_merges;
  lsm.max_pending_flush_builds = opts->merge.max_pending_flush_builds;
  lsm.use_wal = opts->use_wal;
  lsm.wal_sync_every = opts->wal_sync_every;
  lsm.transformer = p->compactor_.get();
  // Merge transformation pipeline: inferred-mode partitions re-compact
  // surviving records during merges (the compactor doubles as the tree's
  // MergeTransformer); every tree may recompress bottom-level merge outputs.
  lsm.merge_transformer =
      opts->merge_transform ? p->compactor_.get() : nullptr;
  lsm.merge_recompress = opts->merge_recompress;
  lsm.capture_old_versions = opts->mode == SchemaMode::kInferred ||
                             !opts->secondary_index_field.empty();
  lsm.arbiter = opts->arbiter;
  lsm.arbiter_floor_bytes = min_budget;

  // Optional primary-key index for upsert existence checks (§3.2.2).
  if (opts->primary_key_index) {
    LsmTreeOptions pk = lsm;
    pk.name = opts->name + part_suffix + ".pkidx";
    pk.transformer = nullptr;
    pk.merge_transformer = nullptr;  // key-only payloads: nothing to re-encode
    pk.capture_old_versions = false;
    pk.use_wal = false;  // rebuilt through primary WAL replay on recovery
    pk.memtable_budget_bytes = pk_carve;
    pk.arbiter_floor_bytes = pk_carve;
    TC_ASSIGN_OR_RETURN(p->pk_index_, LsmTree::Open(std::move(pk)));
    LsmTree* pk_tree = p->pk_index_.get();
    lsm.key_may_exist = [pk_tree](const BtreeKey& key) {
      auto hit = pk_tree->Get(key);
      return hit.ok() && hit.value().has_value();
    };
  }

  TC_ASSIGN_OR_RETURN(p->primary_, LsmTree::Open(std::move(lsm)));

  if (!opts->secondary_index_field.empty()) {
    LsmTreeOptions sk = {};
    sk.fs = opts->fs;
    sk.cache = opts->cache;
    sk.dir = opts->dir;
    sk.name = opts->name + part_suffix + ".sidx";
    sk.page_size = opts->page_size;
    sk.memtable_budget_bytes = sk_carve;
    sk.compression = opts->compression ? CompressionKind::kSnappy
                                       : CompressionKind::kNone;
    sk.filter = opts->filter;
    sk.merge_policy = MakeMergePolicy(opts->merge);
    sk.merge_recompress = opts->merge_recompress;
    sk.merge_pool = opts->merge_pool;
    sk.max_concurrent_merges = lsm.max_concurrent_merges;
    sk.max_pending_flush_builds = lsm.max_pending_flush_builds;
    sk.use_wal = false;
    sk.arbiter = opts->arbiter;
    sk.arbiter_floor_bytes = sk_carve;
    TC_ASSIGN_OR_RETURN(p->secondary_, SecondaryIndex::Open(std::move(sk)));
  }

  // Crash recovery: the compactor reloaded the newest valid component's
  // schema via FlushTransformer::OnRecoveredSchema during LsmTree::Open.
  return p;
}

Status DatasetPartition::EncodeRecord(const AdmValue& record, Buffer* out) const {
  switch (opts_->mode) {
    case SchemaMode::kOpen:
    case SchemaMode::kClosed:
      return EncodeAdmRecord(record, opts_->type, out);
    case SchemaMode::kInferred:
    case SchemaMode::kSchemalessVB:
      return EncodeVectorRecord(record, opts_->type, out);
    case SchemaMode::kBson:
      return EncodeBsonRecord(record, out);
  }
  return Status::Internal("bad mode");
}

Status DatasetPartition::DecodeWith(std::string_view payload, const Schema* schema,
                                    AdmValue* out) const {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(payload.data());
  switch (opts_->mode) {
    case SchemaMode::kOpen:
    case SchemaMode::kClosed:
      return DecodeAdmRecord(data, payload.size(), opts_->type, out);
    case SchemaMode::kInferred:
    case SchemaMode::kSchemalessVB:
      return DecodeVectorRecord(VectorRecordView(data, payload.size()),
                                opts_->type, schema, out);
    case SchemaMode::kBson:
      return DecodeBsonRecord(data, payload.size(), out);
  }
  return Status::Internal("bad mode");
}

Status DatasetPartition::DecodeRecord(std::string_view payload,
                                      AdmValue* out) const {
  if (opts_->mode == SchemaMode::kInferred) {
    std::lock_guard<std::mutex> lock(decode_mu_);
    uint64_t version = compactor_->SchemaVersion();
    if (version != decode_schema_version_) {
      decode_schema_ = compactor_->Snapshot();
      decode_schema_version_ = version;
    }
    return DecodeWith(payload, &decode_schema_, out);
  }
  return DecodeWith(payload, nullptr, out);
}

Schema DatasetPartition::SchemaSnapshot() const {
  if (compactor_ != nullptr) return compactor_->Snapshot();
  return Schema();
}

Result<int64_t> DatasetPartition::ExtractSecondaryKey(
    const AdmValue& record) const {
  const AdmValue* v = record.FindField(opts_->secondary_index_field);
  if (v == nullptr || !IsScalar(v->tag()) || v->tag() == AdmTag::kString) {
    return Status::InvalidArgument("secondary index field missing or non-numeric");
  }
  return v->int_value();
}

Status DatasetPartition::MaintainIndexesOnWrite(
    int64_t pk, const AdmValue& record, const std::optional<Buffer>& old_payload,
    bool is_delete) {
  if (secondary_ == nullptr) return Status::OK();
  if (old_payload.has_value()) {
    AdmValue old_rec;
    TC_RETURN_IF_ERROR(DecodeRecord(
        std::string_view(reinterpret_cast<const char*>(old_payload->data()),
                         old_payload->size()),
        &old_rec));
    TC_ASSIGN_OR_RETURN(int64_t old_sk, ExtractSecondaryKey(old_rec));
    TC_RETURN_IF_ERROR(secondary_->Delete(old_sk, pk));
  }
  if (!is_delete) {
    TC_ASSIGN_OR_RETURN(int64_t sk, ExtractSecondaryKey(record));
    TC_RETURN_IF_ERROR(secondary_->Insert(sk, pk));
  }
  return Status::OK();
}

Status DatasetPartition::Insert(const AdmValue& record) {
  // A batch of one: the single-record path IS the batch path, so there is
  // exactly one write-side code path to reason about (and to test).
  return InsertBatch(SingletonSpan<const AdmValue>(record));
}

Status DatasetPartition::InsertBatch(Span<const AdmValue> records,
                                     BatchErrors* errors) {
  // Encode outside the writer lock — pure per-record work that concurrent
  // feed threads can overlap; only the apply step serializes.
  std::vector<EncodedWrite> writes;
  writes.reserve(records.size());
  Status first_error;
  for (size_t i = 0; i < records.size(); ++i) {
    EncodedWrite w;
    w.index = i;
    w.record = &records[i];
    const AdmValue* pk_field = records[i].FindField(opts_->type.primary_key_field);
    Status st = pk_field == nullptr
                    ? Status::InvalidArgument("record missing primary key")
                    : EncodeRecord(records[i], &w.payload);
    if (!st.ok()) {
      if (errors != nullptr) errors->emplace_back(i, st);
      if (first_error.ok()) first_error = st;
      continue;
    }
    w.pk = pk_field->int_value();
    writes.push_back(std::move(w));
  }
  BatchErrors apply_errors;
  Status st = InsertEncodedBatch(writes, &apply_errors);
  for (auto& [pos, rec_st] : apply_errors) {
    if (errors != nullptr) errors->emplace_back(writes[pos].index, rec_st);
    if (first_error.ok()) first_error = rec_st;
  }
  if (first_error.ok()) first_error = st;
  return first_error;
}

Status DatasetPartition::InsertEncodedBatch(Span<EncodedWrite> writes,
                                            BatchErrors* errors,
                                            bool* batch_failed) {
  if (batch_failed != nullptr) *batch_failed = false;
  if (writes.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(write_mu_);
  std::vector<MemPutOp> ops;
  ops.reserve(writes.size());
  for (const EncodedWrite& w : writes) {
    ops.push_back(MemPutOp{
        BtreeKey{w.pk, 0},
        std::string_view(reinterpret_cast<const char*>(w.payload.data()),
                         w.payload.size())});
  }
  // A batch-level failure (primary or pk-index write) means nothing of the
  // batch was acknowledged: report every record as failed so async
  // submitters can attribute it to their tickets.
  auto fail_batch = [&](const Status& st) {
    if (errors != nullptr) {
      for (size_t i = 0; i < writes.size(); ++i) errors->emplace_back(i, st);
    }
    if (batch_failed != nullptr) *batch_failed = true;
    return st;
  };
  // One group-committed append + one memtable lock round for the whole batch.
  Status st = primary_->InsertBatch(ops);
  if (!st.ok()) return fail_batch(st);
  if (pk_index_ != nullptr) {
    for (MemPutOp& op : ops) op.payload = {};
    Status pk_st = pk_index_->InsertBatch(ops);
    if (!pk_st.ok()) return fail_batch(pk_st);
  }
  // Secondary maintenance stays per-record (it decodes old versions), but
  // runs inside the same critical section so a concurrent reader never sees
  // a batch half-indexed relative to another writer's interleaving.
  Status first_error;
  for (size_t i = 0; i < writes.size(); ++i) {
    Status rec_st = MaintainIndexesOnWrite(writes[i].pk, *writes[i].record,
                                           std::nullopt, /*is_delete=*/false);
    if (!rec_st.ok()) {
      if (errors != nullptr) errors->emplace_back(i, rec_st);
      if (first_error.ok()) first_error = rec_st;
    }
  }
  return first_error;
}

Status DatasetPartition::UpsertBatch(Span<const AdmValue> records,
                                     BatchErrors* errors) {
  // InsertBatch's shape: encode outside the writer lock, apply in one
  // critical section through the encoded back end.
  std::vector<EncodedWrite> writes;
  writes.reserve(records.size());
  Status first_error;
  for (size_t i = 0; i < records.size(); ++i) {
    EncodedWrite w;
    w.index = i;
    w.record = &records[i];
    const AdmValue* pk_field = records[i].FindField(opts_->type.primary_key_field);
    Status st = pk_field == nullptr
                    ? Status::InvalidArgument("record missing primary key")
                    : EncodeRecord(records[i], &w.payload);
    if (!st.ok()) {
      if (errors != nullptr) errors->emplace_back(i, st);
      if (first_error.ok()) first_error = st;
      continue;
    }
    w.pk = pk_field->int_value();
    writes.push_back(std::move(w));
  }
  BatchErrors apply_errors;
  Status st = UpsertEncodedBatch(writes, &apply_errors);
  for (auto& [pos, rec_st] : apply_errors) {
    if (errors != nullptr) errors->emplace_back(writes[pos].index, rec_st);
    if (first_error.ok()) first_error = rec_st;
  }
  if (first_error.ok()) first_error = st;
  return first_error;
}

Status DatasetPartition::UpsertEncodedBatch(Span<EncodedWrite> writes,
                                            BatchErrors* errors,
                                            bool* batch_failed) {
  if (batch_failed != nullptr) *batch_failed = false;
  if (writes.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(write_mu_);
  std::vector<MemPutOp> ops;
  ops.reserve(writes.size());
  for (const EncodedWrite& w : writes) {
    ops.push_back(MemPutOp{
        BtreeKey{w.pk, 0},
        std::string_view(reinterpret_cast<const char*>(w.payload.data()),
                         w.payload.size())});
  }
  auto fail_batch = [&](const Status& st) {
    if (errors != nullptr) {
      for (size_t i = 0; i < writes.size(); ++i) errors->emplace_back(i, st);
    }
    if (batch_failed != nullptr) *batch_failed = true;
    return st;
  };
  // One group-committed WAL append; the per-record old-version captures run
  // inside UpsertBatch, feeding the secondary maintenance below.
  std::vector<std::optional<Buffer>> olds;
  Status st = primary_->UpsertBatch(ops, &olds);
  if (!st.ok()) return fail_batch(st);
  if (pk_index_ != nullptr) {
    // Key presence is all the pk index stores, so a blind batched put covers
    // first-writes and overwrites alike.
    for (MemPutOp& op : ops) op.payload = {};
    Status pk_st = pk_index_->InsertBatch(ops);
    if (!pk_st.ok()) return fail_batch(pk_st);
  }
  Status first_error;
  for (size_t i = 0; i < writes.size(); ++i) {
    Status rec_st = MaintainIndexesOnWrite(writes[i].pk, *writes[i].record,
                                           olds[i], /*is_delete=*/false);
    if (!rec_st.ok()) {
      if (errors != nullptr) errors->emplace_back(i, rec_st);
      if (first_error.ok()) first_error = rec_st;
    }
  }
  return first_error;
}

Status DatasetPartition::DeleteBatch(Span<const int64_t> pks, BatchErrors* errors,
                                     bool* batch_failed) {
  if (batch_failed != nullptr) *batch_failed = false;
  if (pks.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(write_mu_);
  std::vector<BtreeKey> keys;
  keys.reserve(pks.size());
  for (int64_t pk : pks) keys.push_back(BtreeKey{pk, 0});
  auto fail_batch = [&](const Status& st) {
    if (errors != nullptr) {
      for (size_t i = 0; i < pks.size(); ++i) errors->emplace_back(i, st);
    }
    if (batch_failed != nullptr) *batch_failed = true;
    return st;
  };
  std::vector<std::optional<Buffer>> olds;
  Status st = primary_->DeleteBatch(keys, &olds);
  if (!st.ok()) return fail_batch(st);
  if (pk_index_ != nullptr) {
    Status pk_st = pk_index_->DeleteBatch(keys);
    if (!pk_st.ok()) return fail_batch(pk_st);
  }
  Status first_error;
  const AdmValue empty = AdmValue::Object();
  for (size_t i = 0; i < pks.size(); ++i) {
    Status rec_st =
        MaintainIndexesOnWrite(pks[i], empty, olds[i], /*is_delete=*/true);
    if (!rec_st.ok()) {
      if (errors != nullptr) errors->emplace_back(i, rec_st);
      if (first_error.ok()) first_error = rec_st;
    }
  }
  return first_error;
}

Status DatasetPartition::Upsert(const AdmValue& record) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const AdmValue* pk_field = record.FindField(opts_->type.primary_key_field);
  if (pk_field == nullptr) return Status::InvalidArgument("record missing primary key");
  int64_t pk = pk_field->int_value();
  Buffer payload;
  TC_RETURN_IF_ERROR(EncodeRecord(record, &payload));
  std::optional<Buffer> old;
  TC_RETURN_IF_ERROR(primary_->Upsert(
      BtreeKey{pk, 0},
      std::string_view(reinterpret_cast<const char*>(payload.data()),
                       payload.size()),
      &old));
  if (pk_index_ != nullptr) {
    TC_RETURN_IF_ERROR(pk_index_->Upsert(BtreeKey{pk, 0}, {}, nullptr));
  }
  return MaintainIndexesOnWrite(pk, record, old, /*is_delete=*/false);
}

Status DatasetPartition::Delete(int64_t pk) {
  std::lock_guard<std::mutex> lock(write_mu_);
  std::optional<Buffer> old;
  TC_RETURN_IF_ERROR(primary_->Delete(BtreeKey{pk, 0}, &old));
  if (pk_index_ != nullptr) {
    TC_RETURN_IF_ERROR(pk_index_->Delete(BtreeKey{pk, 0}, nullptr));
  }
  return MaintainIndexesOnWrite(pk, AdmValue::Object(), old, /*is_delete=*/true);
}

PartitionReadView DatasetPartition::AcquireReadView() const {
  PartitionReadView view;
  view.primary = primary_->AcquireView();
  if (pk_index_ != nullptr) view.pk_index = pk_index_->AcquireView();
  if (secondary_ != nullptr) view.secondary = secondary_->AcquireView();
  return view;
}

Result<std::optional<AdmValue>> DatasetPartition::Get(int64_t pk) {
  return Get(AcquireReadView(), pk);
}

Result<std::optional<AdmValue>> DatasetPartition::Get(
    const PartitionReadView& view, int64_t pk) {
  TC_ASSIGN_OR_RETURN(auto payload, view.primary->Get(BtreeKey{pk, 0}));
  if (!payload.has_value()) return std::optional<AdmValue>{};
  AdmValue out;
  TC_RETURN_IF_ERROR(DecodeRecord(
      std::string_view(reinterpret_cast<const char*>(payload->data()),
                       payload->size()),
      &out));
  return std::optional<AdmValue>{std::move(out)};
}

Result<std::vector<int64_t>> DatasetPartition::SecondaryRangeScan(
    const PartitionReadView& view, int64_t lo, int64_t hi) const {
  if (secondary_ == nullptr || view.secondary == nullptr) {
    return Status::InvalidArgument("partition has no secondary index");
  }
  return secondary_->RangeScan(view.secondary, lo, hi);
}

Status DatasetPartition::Flush() {
  TC_RETURN_IF_ERROR(primary_->Flush());
  if (pk_index_ != nullptr) TC_RETURN_IF_ERROR(pk_index_->Flush());
  if (secondary_ != nullptr) TC_RETURN_IF_ERROR(secondary_->Flush());
  // A flush may have scheduled merges; leave the partition quiesced so
  // post-flush observers (benches, tests) see a settled component layout.
  return WaitForBackgroundWork();
}

Status DatasetPartition::WaitForBackgroundWork() {
  TC_RETURN_IF_ERROR(primary_->WaitForMerges());
  if (pk_index_ != nullptr) TC_RETURN_IF_ERROR(pk_index_->WaitForMerges());
  if (secondary_ != nullptr) {
    TC_RETURN_IF_ERROR(secondary_->tree()->WaitForMerges());
  }
  return Status::OK();
}

uint64_t DatasetPartition::physical_bytes() const {
  uint64_t total = primary_->physical_bytes();
  if (pk_index_ != nullptr) total += pk_index_->physical_bytes();
  if (secondary_ != nullptr) total += secondary_->physical_bytes();
  return total;
}

// ---------------------------------------------------------------------------
// Dataset
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Dataset>> Dataset::Open(DatasetOptions options,
                                               size_t num_partitions) {
  TC_CHECK(num_partitions >= 1);
  auto ds = std::unique_ptr<Dataset>(new Dataset());
  ds->opts_ = std::move(options);
  for (size_t i = 0; i < num_partitions; ++i) {
    TC_ASSIGN_OR_RETURN(auto part,
                        DatasetPartition::Open(&ds->opts_, static_cast<int>(i)));
    ds->partitions_.push_back(std::move(part));
  }
  return ds;
}

Result<int64_t> Dataset::PrimaryKeyOf(const AdmValue& record) const {
  const AdmValue* pk = record.FindField(opts_.type.primary_key_field);
  if (pk == nullptr) return Status::InvalidArgument("record missing primary key");
  switch (pk->tag()) {
    case AdmTag::kTinyInt:
    case AdmTag::kSmallInt:
    case AdmTag::kInt:
    case AdmTag::kBigInt:
      return pk->int_value();
    default:
      return Status::InvalidArgument("primary key must be an integer");
  }
}

size_t Dataset::PartitionOf(int64_t pk) const {
  // Fibonacci hashing spreads sequential keys uniformly — but only through
  // the HIGH bits: the multiplier is odd, so `h % 2^k` degenerates to
  // `pk % 2^k` (an all-even key set would leave half of 2 partitions empty).
  uint64_t h = static_cast<uint64_t>(pk) * 0x9e3779b97f4a7c15ull;
  return static_cast<size_t>((h >> 32) % partitions_.size());
}

Status Dataset::Insert(const AdmValue& record) {
  TC_ASSIGN_OR_RETURN(int64_t pk, PrimaryKeyOf(record));
  return partitions_[PartitionOf(pk)]->Insert(record);
}

Status Dataset::InsertBatch(Span<const AdmValue> records, BatchErrors* errors) {
  // Hash-partition + encode up front (no locks), then one apply round per
  // touched partition. Per-partition buckets keep submission order, so
  // records for the same key apply in the order the caller gave them.
  std::vector<std::vector<EncodedWrite>> buckets(partitions_.size());
  Status first_error;
  for (size_t i = 0; i < records.size(); ++i) {
    EncodedWrite w;
    w.index = i;
    w.record = &records[i];
    auto pk = PrimaryKeyOf(records[i]);
    Status st = pk.ok() ? Status::OK() : pk.status();
    if (st.ok()) {
      w.pk = pk.value();
      st = partitions_[PartitionOf(w.pk)]->EncodeRecord(records[i], &w.payload);
    }
    if (!st.ok()) {
      if (errors != nullptr) errors->emplace_back(i, st);
      if (first_error.ok()) first_error = st;
      continue;
    }
    buckets[PartitionOf(w.pk)].push_back(std::move(w));
  }
  for (size_t p = 0; p < buckets.size(); ++p) {
    if (buckets[p].empty()) continue;
    BatchErrors part_errors;
    Status st = partitions_[p]->InsertEncodedBatch(buckets[p], &part_errors);
    for (auto& [pos, rec_st] : part_errors) {
      if (errors != nullptr) errors->emplace_back(buckets[p][pos].index, rec_st);
    }
    if (first_error.ok() && !st.ok()) first_error = st;
  }
  return first_error;
}

Status Dataset::UpsertBatch(Span<const AdmValue> records, BatchErrors* errors) {
  // InsertBatch's front end with the upsert back end: hash-partition +
  // encode without locks, one apply round per touched partition.
  std::vector<std::vector<EncodedWrite>> buckets(partitions_.size());
  Status first_error;
  for (size_t i = 0; i < records.size(); ++i) {
    EncodedWrite w;
    w.index = i;
    w.record = &records[i];
    auto pk = PrimaryKeyOf(records[i]);
    Status st = pk.ok() ? Status::OK() : pk.status();
    if (st.ok()) {
      w.pk = pk.value();
      st = partitions_[PartitionOf(w.pk)]->EncodeRecord(records[i], &w.payload);
    }
    if (!st.ok()) {
      if (errors != nullptr) errors->emplace_back(i, st);
      if (first_error.ok()) first_error = st;
      continue;
    }
    buckets[PartitionOf(w.pk)].push_back(std::move(w));
  }
  for (size_t p = 0; p < buckets.size(); ++p) {
    if (buckets[p].empty()) continue;
    BatchErrors part_errors;
    Status st = partitions_[p]->UpsertEncodedBatch(buckets[p], &part_errors);
    for (auto& [pos, rec_st] : part_errors) {
      if (errors != nullptr) errors->emplace_back(buckets[p][pos].index, rec_st);
    }
    if (first_error.ok() && !st.ok()) first_error = st;
  }
  return first_error;
}

Status Dataset::DeleteBatch(Span<const int64_t> pks, BatchErrors* errors) {
  std::vector<std::vector<int64_t>> buckets(partitions_.size());
  // Original batch positions, parallel to `buckets`, for error remapping.
  std::vector<std::vector<size_t>> indices(partitions_.size());
  for (size_t i = 0; i < pks.size(); ++i) {
    size_t p = PartitionOf(pks[i]);
    buckets[p].push_back(pks[i]);
    indices[p].push_back(i);
  }
  Status first_error;
  for (size_t p = 0; p < buckets.size(); ++p) {
    if (buckets[p].empty()) continue;
    BatchErrors part_errors;
    Status st = partitions_[p]->DeleteBatch(buckets[p], &part_errors);
    for (auto& [pos, rec_st] : part_errors) {
      if (errors != nullptr) errors->emplace_back(indices[p][pos], rec_st);
    }
    if (first_error.ok() && !st.ok()) first_error = st;
  }
  return first_error;
}

Status Dataset::Upsert(const AdmValue& record) {
  TC_ASSIGN_OR_RETURN(int64_t pk, PrimaryKeyOf(record));
  return partitions_[PartitionOf(pk)]->Upsert(record);
}

Status Dataset::Delete(int64_t pk) {
  return partitions_[PartitionOf(pk)]->Delete(pk);
}

Result<std::optional<AdmValue>> Dataset::Get(int64_t pk) {
  return partitions_[PartitionOf(pk)]->Get(pk);
}

Status Dataset::InsertJson(std::string_view text,
                           std::optional<size_t> batch_offset) {
  Status st;
  auto parsed = ParseAdm(text);
  if (!parsed.ok()) {
    st = parsed.status();
  } else {
    st = Insert(parsed.value());
  }
  if (st.ok() || !batch_offset.has_value()) return st;
  // Thread the feed position into the message: "parse error" alone is
  // useless when the caller just streamed 10k records.
  return st.Annotate("record " + std::to_string(*batch_offset));
}

Status Dataset::FlushAll() {
  for (auto& p : partitions_) TC_RETURN_IF_ERROR(p->Flush());
  return Status::OK();
}

Status Dataset::BulkLoad(std::vector<AdmValue> records) {
  // Partition, then sort each partition by primary key (the paper: bulk load
  // sorts the records and builds a single component bottom-up).
  std::vector<std::vector<std::pair<int64_t, const AdmValue*>>> buckets(
      partitions_.size());
  for (const AdmValue& r : records) {
    TC_ASSIGN_OR_RETURN(int64_t pk, PrimaryKeyOf(r));
    buckets[PartitionOf(pk)].emplace_back(pk, &r);
  }
  for (size_t i = 0; i < partitions_.size(); ++i) {
    auto& bucket = buckets[i];
    std::sort(bucket.begin(), bucket.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    DatasetPartition* part = partitions_[i].get();
    Buffer payload;
    TC_RETURN_IF_ERROR(part->primary()->BulkLoad(
        [&](std::function<Status(const BtreeKey&, std::string_view)> add)
            -> Status {
          for (const auto& [pk, rec] : bucket) {
            payload.clear();
            TC_RETURN_IF_ERROR(part->EncodeRecord(*rec, &payload));
            TC_RETURN_IF_ERROR(
                add(BtreeKey{pk, 0},
                    std::string_view(reinterpret_cast<const char*>(payload.data()),
                                     payload.size())));
          }
          return Status::OK();
        }));
    if (part->pk_index() != nullptr) {
      TC_RETURN_IF_ERROR(part->pk_index()->BulkLoad(
          [&](std::function<Status(const BtreeKey&, std::string_view)> add)
              -> Status {
            for (const auto& [pk, rec] : bucket) {
              TC_RETURN_IF_ERROR(add(BtreeKey{pk, 0}, {}));
            }
            return Status::OK();
          }));
    }
    if (part->secondary() != nullptr) {
      for (const auto& [pk, rec] : bucket) {
        const AdmValue* v = rec->FindField(opts_.secondary_index_field);
        if (v == nullptr) continue;
        TC_RETURN_IF_ERROR(part->secondary()->Insert(v->int_value(), pk));
      }
      TC_RETURN_IF_ERROR(part->secondary()->Flush());
    }
  }
  return Status::OK();
}

Result<std::vector<int64_t>> Dataset::SecondaryRangeScan(int64_t lo, int64_t hi) {
  std::vector<int64_t> all;
  for (auto& p : partitions_) {
    if (p->secondary() == nullptr) {
      return Status::InvalidArgument("dataset has no secondary index");
    }
    // Only the secondary tree is read here (callers do their own primary
    // lookups), so pin just it rather than a full partition triple.
    TC_ASSIGN_OR_RETURN(auto pks, p->secondary()->RangeScan(lo, hi));
    all.insert(all.end(), pks.begin(), pks.end());
  }
  return all;
}

Status Dataset::WaitForBackgroundWork() {
  for (auto& p : partitions_) TC_RETURN_IF_ERROR(p->WaitForBackgroundWork());
  return Status::OK();
}

uint64_t Dataset::TotalPhysicalBytes() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += p->physical_bytes();
  return total;
}

LsmStats Dataset::AggregateStats() const {
  LsmStats agg;
  for (const auto& p : partitions_) {
    const LsmStats s = p->primary()->stats();
    agg.flush_count += s.flush_count;
    agg.merge_count += s.merge_count;
    agg.bytes_flushed += s.bytes_flushed;
    agg.bytes_merged += s.bytes_merged;
    agg.bulk_load_count += s.bulk_load_count;
    agg.bytes_bulk_loaded += s.bytes_bulk_loaded;
    agg.point_lookups += s.point_lookups;
    agg.old_version_lookups += s.old_version_lookups;
    agg.filter_checks += s.filter_checks;
    agg.filter_negatives += s.filter_negatives;
    agg.filter_false_positives += s.filter_false_positives;
    agg.lookup_pages_read += s.lookup_pages_read;
    agg.merge_read_usecs += s.merge_read_usecs;
    agg.merge_transform_usecs += s.merge_transform_usecs;
    agg.merge_compress_usecs += s.merge_compress_usecs;
    agg.merge_write_usecs += s.merge_write_usecs;
    agg.merge_records_recompacted += s.merge_records_recompacted;
    agg.merge_bytes_recompacted += s.merge_bytes_recompacted;
    agg.merge_components_recompressed += s.merge_components_recompressed;
    agg.merge_bytes_recompressed += s.merge_bytes_recompressed;
    // The high-water marks are per-tree costs/levels, not additive: report
    // the worst partition.
    agg.component_count_high_water =
        std::max(agg.component_count_high_water, s.component_count_high_water);
    agg.concurrent_merges_high_water = std::max(
        agg.concurrent_merges_high_water, s.concurrent_merges_high_water);
    agg.flush_queue_high_water =
        std::max(agg.flush_queue_high_water, s.flush_queue_high_water);
  }
  return agg;
}

Status Dataset::DestroyAll() {
  for (auto& p : partitions_) {
    TC_RETURN_IF_ERROR(p->primary()->DestroyAll());
    if (p->pk_index() != nullptr) TC_RETURN_IF_ERROR(p->pk_index()->DestroyAll());
    if (p->secondary() != nullptr) {
      TC_RETURN_IF_ERROR(p->secondary()->tree()->DestroyAll());
    }
  }
  return Status::OK();
}

}  // namespace tc
