#include "core/dataset.h"

#include <algorithm>

#include "adm/parser.h"
#include "format/bson_format.h"
#include "format/vector_format.h"

namespace tc {
namespace {

// An integer (tinyint .. bigint) key field: the only key type the primary
// and secondary indexes take. `what` names the key in error messages.
Result<int64_t> IntegerKey(const AdmValue& record, const std::string& field,
                           const char* what) {
  const AdmValue* v = record.FindField(field);
  if (v == nullptr) {
    return Status::InvalidArgument(std::string("record missing ") + what);
  }
  switch (v->tag()) {
    case AdmTag::kTinyInt:
    case AdmTag::kSmallInt:
    case AdmTag::kInt:
    case AdmTag::kBigInt:
      return v->int_value();
    default:
      return Status::InvalidArgument(std::string(what) + " must be an integer");
  }
}

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

  // The partition's trees share one write budget: the caller's arbiter, or
  // one of memtable_budget_bytes owned by the partition.
  MemoryArbiter* arbiter = opts->arbiter;
  if (arbiter == nullptr) {
    p->arbiter_ = std::make_unique<MemoryArbiter>(opts->memtable_budget_bytes);
    arbiter = p->arbiter_.get();
  }

  std::string part_suffix = ".p" + std::to_string(partition_id);
  LsmTreeOptions lsm;
  lsm.fs = opts->fs;
  lsm.cache = opts->cache;
  lsm.dir = opts->dir;
  lsm.name = opts->name + part_suffix;
  lsm.page_size = opts->page_size;
  lsm.compression = opts->compression ? CompressionKind::kSnappy
                                      : CompressionKind::kNone;
  lsm.filter = opts->filter;
  lsm.merge_policy = MakeMergePolicy(opts->merge);
  lsm.merge_pool = opts->merge_pool;
  lsm.use_wal = opts->use_wal;
  lsm.wal_sync_every = opts->wal_sync_every;
  // Inferred-mode partitions infer and compact at every component write —
  // flush, bulk load and merge; every tree may recompress bottom-level merge
  // outputs.
  lsm.transformer = p->compactor_.get();
  lsm.merge_recompress = opts->merge_recompress;
  lsm.capture_old_versions = opts->mode == SchemaMode::kInferred ||
                             !opts->secondary_index_field.empty();
  lsm.arbiter = arbiter;

  // The index trees run on the primary's options minus what only the primary
  // does: their key-only entries need no transformer, old-version capture or
  // existence filter. No WAL either, and recovery does not rebuild them:
  // primary WAL replay restores only the primary, so entries still in an
  // index tree's memtable at a restart are lost — and, for the pk index,
  // their later upserts skip the old-version capture (an open bug, see the
  // ROADMAP's crash-anywhere item).
  auto index_options = [&](const char* suffix) {
    LsmTreeOptions o = lsm;
    o.name = opts->name + part_suffix + suffix;
    o.transformer = nullptr;
    o.capture_old_versions = false;
    o.key_may_exist = nullptr;
    o.use_wal = false;
    return o;
  };

  // Optional primary-key index for upsert existence checks (§3.2.2).
  if (opts->primary_key_index) {
    TC_ASSIGN_OR_RETURN(p->pk_index_, LsmTree::Open(index_options(".pkidx")));
    LsmTree* pk_tree = p->pk_index_.get();
    lsm.key_may_exist = [pk_tree](const BtreeKey& key) {
      auto hit = pk_tree->Get(key);
      return hit.ok() && hit.value().has_value();
    };
  }

  TC_ASSIGN_OR_RETURN(p->primary_, LsmTree::Open(lsm));

  if (!opts->secondary_index_field.empty()) {
    TC_ASSIGN_OR_RETURN(p->secondary_,
                        SecondaryIndex::Open(index_options(".sidx")));
  }

  // Crash recovery: the compactor reloaded the newest valid component's
  // schema via ComponentTransformer::OnRecoveredSchema during LsmTree::Open.
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
    // The payload was read first, so the snapshot taken here already names
    // every FieldNameID it holds (IDs are stable). Only the refresh is
    // locked: the decode reads its own reference to an immutable snapshot.
    std::shared_ptr<const Schema> schema;
    {
      std::lock_guard<std::mutex> lock(decode_mu_);
      uint64_t version = compactor_->SchemaVersion();
      if (version != decode_schema_version_) {
        decode_schema_ = std::make_shared<const Schema>(compactor_->Snapshot());
        decode_schema_version_ = version;
      }
      schema = decode_schema_;
    }
    return DecodeWith(payload, schema.get(), out);
  }
  return DecodeWith(payload, nullptr, out);
}

Schema DatasetPartition::SchemaSnapshot() const {
  if (compactor_ != nullptr) return compactor_->Snapshot();
  return Schema();
}

Status DatasetPartition::MaintainSecondary(
    WriteOp op, const EncodedWrite& w, const std::optional<Buffer>& old_payload) {
  if (old_payload.has_value()) {
    AdmValue old_rec;
    TC_RETURN_IF_ERROR(DecodeRecord(
        std::string_view(reinterpret_cast<const char*>(old_payload->data()),
                         old_payload->size()),
        &old_rec));
    TC_ASSIGN_OR_RETURN(int64_t old_sk,
                        IntegerKey(old_rec, opts_->secondary_index_field,
                                   "secondary key"));
    TC_RETURN_IF_ERROR(secondary_->Delete(old_sk, w.pk));
  }
  if (op == WriteOp::kDelete) return Status::OK();
  return secondary_->Insert(w.sk, w.pk);
}

Status DatasetPartition::Write(WriteOp op, Span<const EncodedWrite> writes,
                               BatchErrors* errors, bool* batch_failed) {
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
  // Only the secondary maintenance below consumes the replaced versions, and
  // inserts assume new keys: the feed path asks for none.
  std::vector<std::optional<Buffer>> olds;
  Status st = primary_->Write(
      op, ops, secondary_ != nullptr && op != WriteOp::kInsert ? &olds : nullptr);
  if (!st.ok()) return fail_batch(st);
  if (pk_index_ != nullptr) {
    // Key presence is all the pk index stores, so a blind batched put covers
    // first writes and overwrites alike.
    for (MemPutOp& m : ops) m.payload = {};
    Status pk_st = pk_index_->Write(
        op == WriteOp::kDelete ? WriteOp::kDelete : WriteOp::kInsert, ops);
    if (!pk_st.ok()) return fail_batch(pk_st);
  }
  if (secondary_ == nullptr) return Status::OK();
  // Secondary maintenance stays per-record (it decodes old versions), but
  // runs inside the same critical section so a concurrent reader never sees
  // a batch half-indexed relative to another writer's interleaving.
  const std::optional<Buffer> none;
  Status first_error;
  for (size_t i = 0; i < writes.size(); ++i) {
    Status rec_st =
        MaintainSecondary(op, writes[i], olds.empty() ? none : olds[i]);
    if (!rec_st.ok()) {
      if (errors != nullptr) errors->emplace_back(i, rec_st);
      if (first_error.ok()) first_error = rec_st;
    }
  }
  return first_error;
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
  return IntegerKey(record, opts_.type.primary_key_field, "primary key");
}

size_t Dataset::PartitionOf(int64_t pk) const {
  // Fibonacci hashing spreads sequential keys uniformly — but only through
  // the HIGH bits: the multiplier is odd, so `h % 2^k` degenerates to
  // `pk % 2^k` (an all-even key set would leave half of 2 partitions empty).
  uint64_t h = static_cast<uint64_t>(pk) * 0x9e3779b97f4a7c15ull;
  return static_cast<size_t>((h >> 32) % partitions_.size());
}

Result<size_t> Dataset::EncodeWrite(WriteOp op, const AdmValue& record,
                                    EncodedWrite* out) const {
  TC_ASSIGN_OR_RETURN(out->pk, PrimaryKeyOf(record));
  size_t p = PartitionOf(out->pk);
  if (op == WriteOp::kDelete) return p;
  // The secondary key is checked before anything is applied: a record the
  // index cannot take must not land in the primary either.
  if (!opts_.secondary_index_field.empty()) {
    TC_ASSIGN_OR_RETURN(out->sk, IntegerKey(record, opts_.secondary_index_field,
                                            "secondary key"));
  }
  TC_RETURN_IF_ERROR(partitions_[p]->EncodeRecord(record, &out->payload));
  return p;
}

Result<size_t> Dataset::EncodeWrite(WriteOp /*op*/, int64_t pk,
                                    EncodedWrite* out) const {
  // A delete by key: nothing to check or encode.
  out->pk = pk;
  return PartitionOf(pk);
}

template <typename Item>
Status Dataset::Route(WriteOp op, Span<const Item> items, RoutedWrites* routed,
                      BatchErrors* errors) const {
  routed->resize(partitions_.size());
  Status first_error;
  for (size_t i = 0; i < items.size(); ++i) {
    EncodedWrite w;
    w.index = i;
    Result<size_t> p = EncodeWrite(op, items[i], &w);
    if (!p.ok()) {
      if (errors != nullptr) errors->emplace_back(i, p.status());
      if (first_error.ok()) first_error = p.status();
      continue;
    }
    (*routed)[p.value()].push_back(std::move(w));
  }
  return first_error;
}

template Status Dataset::Route(WriteOp, Span<const AdmValue>, RoutedWrites*,
                               BatchErrors*) const;
template Status Dataset::Route(WriteOp, Span<const int64_t>, RoutedWrites*,
                               BatchErrors*) const;

template <typename Item>
Status Dataset::WriteOne(WriteOp op, const Item& item) {
  EncodedWrite w;
  TC_ASSIGN_OR_RETURN(size_t p, EncodeWrite(op, item, &w));
  return partitions_[p]->Write(op, SingletonSpan<const EncodedWrite>(w));
}

template <typename Item>
Status Dataset::WriteBatch(WriteOp op, Span<const Item> items,
                           BatchErrors* errors) {
  RoutedWrites routed;
  Status first_error = Route(op, items, &routed, errors);
  for (size_t p = 0; p < routed.size(); ++p) {
    if (routed[p].empty()) continue;
    BatchErrors part_errors;
    Status st = partitions_[p]->Write(op, routed[p], &part_errors);
    for (auto& [pos, rec_st] : part_errors) {
      if (errors != nullptr) errors->emplace_back(routed[p][pos].index, rec_st);
    }
    if (first_error.ok() && !st.ok()) first_error = st;
  }
  return first_error;
}

Status Dataset::Insert(const AdmValue& record) {
  return WriteOne(WriteOp::kInsert, record);
}

Status Dataset::Upsert(const AdmValue& record) {
  return WriteOne(WriteOp::kUpsert, record);
}

Status Dataset::Delete(int64_t pk) { return WriteOne(WriteOp::kDelete, pk); }

Status Dataset::InsertBatch(Span<const AdmValue> records, BatchErrors* errors) {
  return WriteBatch(WriteOp::kInsert, records, errors);
}

Status Dataset::UpsertBatch(Span<const AdmValue> records, BatchErrors* errors) {
  return WriteBatch(WriteOp::kUpsert, records, errors);
}

Status Dataset::DeleteBatch(Span<const int64_t> pks, BatchErrors* errors) {
  return WriteBatch(WriteOp::kDelete, pks, errors);
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
  // Route and encode every record first, with the checks every write makes,
  // so a bad record fails the load before any tree is touched. Then sort
  // each partition by primary key (the paper: bulk load sorts the records
  // and builds a single component bottom-up).
  RoutedWrites routed;
  TC_RETURN_IF_ERROR(Route(WriteOp::kInsert, Span<const AdmValue>(records),
                           &routed, nullptr));
  for (size_t i = 0; i < partitions_.size(); ++i) {
    auto& bucket = routed[i];
    std::sort(bucket.begin(), bucket.end(),
              [](const EncodedWrite& a, const EncodedWrite& b) { return a.pk < b.pk; });
    DatasetPartition* part = partitions_[i].get();
    TC_RETURN_IF_ERROR(part->primary()->BulkLoad(
        [&](std::function<Status(const BtreeKey&, std::string_view)> add)
            -> Status {
          for (const EncodedWrite& w : bucket) {
            TC_RETURN_IF_ERROR(
                add(BtreeKey{w.pk, 0},
                    std::string_view(reinterpret_cast<const char*>(w.payload.data()),
                                     w.payload.size())));
          }
          return Status::OK();
        }));
    if (part->pk_index() != nullptr) {
      TC_RETURN_IF_ERROR(part->pk_index()->BulkLoad(
          [&](std::function<Status(const BtreeKey&, std::string_view)> add)
              -> Status {
            for (const EncodedWrite& w : bucket) {
              TC_RETURN_IF_ERROR(add(BtreeKey{w.pk, 0}, {}));
            }
            return Status::OK();
          }));
    }
    if (part->secondary() != nullptr) {
      for (const EncodedWrite& w : bucket) {
        TC_RETURN_IF_ERROR(part->secondary()->Insert(w.sk, w.pk));
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
    agg.flush_transform_usecs += s.flush_transform_usecs;
    agg.flush_compress_usecs += s.flush_compress_usecs;
    agg.flush_write_usecs += s.flush_write_usecs;
    agg.merge_records_recompacted += s.merge_records_recompacted;
    agg.merge_bytes_recompacted += s.merge_bytes_recompacted;
    agg.merge_components_recompressed += s.merge_components_recompressed;
    agg.merge_bytes_recompressed += s.merge_bytes_recompressed;
    // The high-water marks are per-tree costs/levels, not additive: report
    // the worst partition.
    agg.component_count_high_water =
        std::max(agg.component_count_high_water, s.component_count_high_water);
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
