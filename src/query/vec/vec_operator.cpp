#include "query/vec/vec_operator.h"

#include <algorithm>
#include <optional>

#include "format/vector_format.h"
#include "query/scan_predicate.h"

namespace tc {
namespace {

/// `ctx`'s counter cell for operator `name`, or null when it has none.
VecOpCounters* OpCounters(const PartitionContext& ctx, const char* name) {
  return ctx.vec_counters != nullptr ? ctx.vec_counters->For(name) : nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Columnar fast-path extraction: the shared PackedPathWalk (query/path_walk.h)
// collects, per requested path, the scalar walker items and shape-run fields
// it matches — both point into the payload, so nothing is decoded or
// allocated until the scan appends them typed into the batch columns
// (AppendItem, AppendStrided).
// ---------------------------------------------------------------------------

namespace {

/// Appends one scalar walker item to `col`, decoded straight from the packed
/// bytes: no AdmValue for the int, double and string families.
void AppendItem(const VectorRecordWalker::Item& it, ColumnVector* col) {
  AdmTag t = it.tag;
  if (t == AdmTag::kMissing) {
    col->AppendMissing();
  } else if (t == AdmTag::kNull) {
    col->AppendNull();
  } else if (t == AdmTag::kBoolean) {
    col->AppendInt64(t, it.fixed[0] != 0 ? 1 : 0);
  } else if (IsIntFamily(t)) {
    col->AppendInt64(t, PackedIntOf(t, it.fixed));
  } else if (IsFloatFamily(t)) {
    col->AppendDouble(t, PackedDoubleOf(t, it.fixed));
  } else if (IsVariableLengthScalar(t)) {
    col->AppendString(t, it.var);
  } else if (t == AdmTag::kUuid) {
    col->AppendString(t, std::string_view(reinterpret_cast<const char*>(it.fixed), 16));
  } else {
    col->AppendValue(DecodeVectorScalarItem(it));  // point
  }
}

/// Appends `count` values of `first`'s tag whose payloads lie `stride` bytes
/// apart from `first`'s: a shape run's int and float fields as one typed
/// run, anything else item by item.
void AppendStrided(const VectorRecordWalker::Item& first, size_t count, size_t stride,
                   ColumnVector* col) {
  const AdmTag t = first.tag;
  const uint8_t* p = first.fixed;
  if (count > 1 && IsIntFamily(t)) {
    col->AppendInt64Run(t, count, [&](size_t i) { return PackedIntOf(t, p + i * stride); });
  } else if (count > 1 && IsFloatFamily(t)) {
    col->AppendDoubleRun(t, count,
                         [&](size_t i) { return PackedDoubleOf(t, p + i * stride); });
  } else {
    VectorRecordWalker::Item it = first;
    for (size_t i = 0; i < count; ++i) {
      if (p != nullptr) it.fixed = p + i * stride;  // null: zero-width tags
      AppendItem(it, col);
    }
  }
}

}  // namespace

VecPathExtractor::VecPathExtractor(const std::vector<FieldPath>& paths,
                                   const Schema* schema)
    : matches_(paths.size()), wildcard_(paths.size(), 0) {
  walk_.Bind(
      paths.size(),
      [&paths](size_t p) -> const std::vector<PathStep>& { return paths[p].steps; },
      schema);
  for (size_t p = 0; p < paths.size(); ++p) {
    if (paths[p].HasWildcard()) {
      wildcard_[p] = 1;
      any_wildcard_ = true;
    } else {
      ++exact_paths_;
    }
  }
}

// The terminal: a wildcard path keeps every match in walk order (nested
// wildcards flatten into one list), an exact path its one match, and the walk
// stops once every exact path resolved unless a wildcard path is requested.
// A NESTED value at any terminal bails the whole record out to the generic
// GetValues fallback: subtree materialisation is exactly what this path
// avoids implementing twice.
struct VecPathExtractor::Hooks : PathWalkHooks {
  explicit Hooks(VecPathExtractor* ex) : ex(ex), remaining(ex->exact_paths_) {}

  bool Terminal(size_t p, const Item& it) {
    if (IsNested(it.tag)) {
      fast = false;
      return true;
    }
    ex->matches_[p].push_back({it, 1, 0});
    return ex->wildcard_[p] == 0 && --remaining == 0 && !ex->any_wildcard_;
  }

  // A shape run adds each `a[*].b` path's field as one match: the run's
  // items hold scalars only, so none bails out.
  size_t TryRun(VectorRecordWalker* walker,
                const std::vector<PackedPathWalk::Active>& actives) {
    VectorRecordWalker::ShapeRun run;
    return ex->walk_.TakeShapeRun(
        walker, actives, &run, [&](size_t p, const VectorRecordWalker::ShapeField& f) {
          Item first;
          first.tag = f.tag;
          first.fixed = run.base != nullptr ? run.base + f.offset : nullptr;
          ex->matches_[p].push_back({first, run.count, run.stride});
          return false;
        });
  }

  VecPathExtractor* ex;
  size_t remaining;
  bool fast = true;
};

Result<bool> VecPathExtractor::Extract(const VectorRecordView& view,
                                       const DatasetType& type) {
  for (auto& got : matches_) got.clear();
  Hooks hooks(this);
  TC_RETURN_IF_ERROR(walk_.Walk(view, type, &hooks));
  return hooks.fast;  // exact paths without an item are missing values
}

void VecPathExtractor::AppendRow(ColumnVector* cols) const {
  for (size_t c = 0; c < matches_.size(); ++c) {
    ColumnVector& col = cols[c];
    if (wildcard_[c] != 0) {
      ColumnVector& list = col.BeginList();
      for (const Match& m : matches_[c]) AppendStrided(m.item, m.count, m.stride, &list);
      col.EndList();
    } else if (matches_[c].empty()) {
      col.AppendMissing();
    } else {
      AppendItem(matches_[c][0].item, &col);
    }
  }
}

// ---------------------------------------------------------------------------
// The two primary-index sources
// ---------------------------------------------------------------------------

VecSourceOperator::VecSourceOperator(DatasetPartition* partition,
                                     const RecordAccessor* accessor, ScanSpec spec,
                                     size_t batch_rows, ScanCounters* counters,
                                     const PartitionReadView* view,
                                     VecOpCounters* op_counters)
    : partition_(partition), accessor_(accessor), spec_(std::move(spec)),
      batch_rows_(std::max<size_t>(1, batch_rows)), counters_(counters),
      shared_view_(view), op_counters_(op_counters) {}

VecSourceOperator::~VecSourceOperator() = default;

Status VecSourceOperator::OpenSource() {
  // Pin the snapshot this source reads: the query's shared partition view
  // when provided, a private one otherwise.
  view_ = shared_view_ != nullptr ? shared_view_->primary
                                  : partition_->primary()->AcquireView();
  matcher_.reset();
  if (spec_.predicate != nullptr) {
    if (!accessor_->SupportsScanPredicate()) {
      return Status::NotSupported("scan predicate on this storage format");
    }
    // One reusable matcher per source: the per-record evaluation state (term
    // flags, scope stack) is allocated once, not once per row.
    pred_paths_ = spec_.predicate->Paths();
    matcher_ = std::make_unique<ScanPredicateMatcher>();
  }
  // Columnar fast path: vector-based records with consolidated access extract
  // scalar and [*] paths without the generic builder machinery.
  extractor_.reset();
  bool fast = !spec_.paths.empty() &&
              (accessor_->mode() == SchemaMode::kInferred ||
               accessor_->mode() == SchemaMode::kSchemalessVB) &&
              accessor_->consolidate();
  for (const FieldPath& p : spec_.paths) {
    if (p.steps.empty()) fast = false;
  }
  if (fast) {
    extractor_ = std::make_unique<VecPathExtractor>(spec_.paths, &accessor_->schema());
  }
  return Status::OK();
}

Result<bool> VecSourceOperator::Admit(std::string_view payload) {
  CountRead(payload);
  if (matcher_ == nullptr) return true;
  TC_ASSIGN_OR_RETURN(bool match, matcher_->Matches(*accessor_, payload,
                                                    *spec_.predicate, pred_paths_));
  if (!match) ++counters_->filtered_pre_assembly;
  return match;
}

void VecSourceOperator::BeginBatch(ColumnBatch* batch) {
  batch->Reset(spec_.paths.size());
  batch->partition = partition_->partition_id();
  fallback_rows_ = 0;
}

Status VecSourceOperator::Append(std::string_view payload, ColumnBatch* batch) {
  if (!spec_.paths.empty()) {
    bool fast_done = false;
    if (extractor_ != nullptr) {
      VectorRecordView view(reinterpret_cast<const uint8_t*>(payload.data()),
                            payload.size());
      TC_ASSIGN_OR_RETURN(fast_done, extractor_->Extract(view, *accessor_->type()));
    }
    if (fast_done) {
      extractor_->AppendRow(batch->cols.data());
    } else {
      ++fallback_rows_;
      scratch_.clear();
      TC_RETURN_IF_ERROR(accessor_->GetValues(payload, spec_.paths, &scratch_));
      for (size_t c = 0; c < spec_.paths.size(); ++c) {
        batch->cols[c].AppendValue(scratch_[c]);
      }
    }
  }
  if (spec_.attach_record) {
    batch->records.push_back(std::make_shared<Buffer>(payload.begin(), payload.end()));
  }
  ++batch->rows;
  return Status::OK();
}

bool VecSourceOperator::EndBatch(const ColumnBatch& batch) {
  if (batch.rows == 0) return false;
  if (op_counters_ != nullptr) {
    ++op_counters_->batches;
    op_counters_->rows += batch.rows;
    op_counters_->bytes += batch.ByteSize();
    op_counters_->fallback_rows += fallback_rows_;
  }
  return true;
}

VecScanOperator::VecScanOperator(DatasetPartition* partition,
                                 const RecordAccessor* accessor, ScanSpec spec,
                                 size_t batch_rows, ScanCounters* counters,
                                 const PartitionReadView* view,
                                 VecOpCounters* op_counters)
    : VecSourceOperator(partition, accessor, std::move(spec), batch_rows, counters,
                        view, op_counters) {}

Status VecScanOperator::Open() {
  TC_RETURN_IF_ERROR(OpenSource());
  // The iterator holds the view alive, so merged-away components stay
  // readable until the scan ends.
  it_ = std::make_unique<LsmTree::Iterator>(view_);
  if (spec_.predicate != nullptr) {
    // Lower the predicate into the merged LSM cursor: non-matching positions
    // are rejected on the packed payload bytes and never assembled. They are
    // still rows the scan read, so the filter counts them.
    it_->set_payload_filter(
        [this](std::string_view payload) -> Result<bool> { return Admit(payload); });
  }
  first_ = true;
  return Status::OK();
}

Result<bool> VecScanOperator::Next(ColumnBatch* batch) {
  BeginBatch(batch);
  while (batch->rows < batch_rows_) {
    if (first_) {
      TC_RETURN_IF_ERROR(it_->SeekToFirst());
      first_ = false;
    } else if (it_->Valid()) {
      TC_RETURN_IF_ERROR(it_->Next());
    }
    if (!it_->Valid()) break;
    std::string_view payload = it_->payload();
    if (spec_.predicate == nullptr) CountRead(payload);  // else the filter did
    TC_RETURN_IF_ERROR(Append(payload, batch));
  }
  return EndBatch(*batch);
}

VecLookupOperator::VecLookupOperator(DatasetPartition* partition,
                                     const RecordAccessor* accessor,
                                     std::vector<int64_t> pks, ScanSpec spec,
                                     size_t batch_rows, ScanCounters* counters,
                                     const PartitionReadView* view,
                                     VecOpCounters* op_counters)
    : VecSourceOperator(partition, accessor, std::move(spec), batch_rows, counters,
                        view, op_counters),
      pks_(std::move(pks)) {}

Status VecLookupOperator::Open() {
  pos_ = 0;
  return OpenSource();
}

Result<bool> VecLookupOperator::Next(ColumnBatch* batch) {
  BeginBatch(batch);
  while (batch->rows < batch_rows_ && pos_ < pks_.size()) {
    // Every lookup resolves against the pinned snapshot: the operator (and,
    // with a shared view, the whole query) sees one LSM state.
    TC_ASSIGN_OR_RETURN(std::optional<Buffer> record,
                        view_->Get(BtreeKey{pks_[pos_++], 0}));
    if (!record.has_value()) continue;  // deleted since indexed
    std::string_view payload(reinterpret_cast<const char*>(record->data()),
                             record->size());
    TC_ASSIGN_OR_RETURN(bool admitted, Admit(payload));
    if (admitted) TC_RETURN_IF_ERROR(Append(payload, batch));
  }
  return EndBatch(*batch);
}

// ---------------------------------------------------------------------------
// VecFilterOperator
// ---------------------------------------------------------------------------

namespace {

bool Int64Satisfies(int64_t v, CompareOp op, int64_t lit) {
  switch (op) {
    case CompareOp::kEq: return v == lit;
    case CompareOp::kNe: return v != lit;
    case CompareOp::kLt: return v < lit;
    case CompareOp::kLe: return v <= lit;
    case CompareOp::kGt: return v > lit;
    case CompareOp::kGe: return v >= lit;
  }
  return false;
}

/// True when every literal of the term is int-family: the typed int64 column
/// compare is then exactly AdmScalarSatisfies for int-family values.
bool AllIntLiterals(const PredicateTerm& term) {
  if (term.in_list.empty()) return IsIntFamily(term.literal.tag());
  for (const AdmValue& l : term.in_list) {
    if (!IsIntFamily(l.tag())) return false;
  }
  return true;
}

bool TermMatchesAt(const ColumnVector& col, size_t r, const PredicateTerm& term,
                   bool int_fast) {
  if (!col.HasValueAt(r)) return false;
  if (int_fast && !term.path.HasWildcard() &&
      col.kind() == ColumnVector::Kind::kInt64 && IsIntFamily(col.TagAt(r))) {
    int64_t v = col.Int64At(r);
    if (term.in_list.empty()) {
      return Int64Satisfies(v, term.op, term.literal.int_value());
    }
    for (const AdmValue& l : term.in_list) {
      if (Int64Satisfies(v, term.op, l.int_value())) return true;
    }
    return false;
  }
  return EvalPredicateTerm(col.ValueAt(r), term);
}

}  // namespace

VecFilterOperator::VecFilterOperator(std::unique_ptr<VecOperator> child,
                                     std::shared_ptr<const ScanPredicate> pred,
                                     size_t first_col, VecOpCounters* op_counters)
    : child_(std::move(child)), pred_(std::move(pred)), first_col_(first_col),
      op_counters_(op_counters) {}

Status VecFilterOperator::Open() {
  int_fast_.assign(pred_->terms.size(), 0);
  for (size_t t = 0; t < pred_->terms.size(); ++t) {
    int_fast_[t] = AllIntLiterals(pred_->terms[t]) ? 1 : 0;
  }
  return child_->Open();
}

Result<bool> VecFilterOperator::Next(ColumnBatch* batch) {
  while (true) {
    TC_ASSIGN_OR_RETURN(bool ok, child_->Next(batch));
    if (!ok) return false;
    TC_CHECK(first_col_ + pred_->terms.size() <= batch->cols.size());
    sel_scratch_.clear();
    batch->ForEachActive([&](size_t r) {
      for (size_t t = 0; t < pred_->terms.size(); ++t) {
        if (!TermMatchesAt(batch->cols[first_col_ + t], r, pred_->terms[t],
                           int_fast_[t] != 0)) {
          return;
        }
      }
      sel_scratch_.push_back(static_cast<uint32_t>(r));
    });
    if (sel_scratch_.empty()) continue;  // fully filtered: pull the next batch
    std::swap(batch->sel, sel_scratch_);
    batch->sel_active = true;
    if (op_counters_ != nullptr) {
      ++op_counters_->batches;
      op_counters_->rows += batch->sel.size();
      op_counters_->bytes += batch->ByteSize();
    }
    return true;
  }
}

// ---------------------------------------------------------------------------
// VecProjectOperator
// ---------------------------------------------------------------------------

VecProjectOperator::VecProjectOperator(std::unique_ptr<VecOperator> child,
                                       std::vector<size_t> keep,
                                       VecOpCounters* op_counters)
    : child_(std::move(child)), keep_(std::move(keep)), op_counters_(op_counters) {}

Status VecProjectOperator::Open() { return child_->Open(); }

Result<bool> VecProjectOperator::Next(ColumnBatch* batch) {
  TC_ASSIGN_OR_RETURN(bool ok, child_->Next(batch));
  if (!ok) return false;
  std::vector<ColumnVector> out;
  out.reserve(keep_.size());
  for (size_t k : keep_) {
    TC_CHECK(k < batch->cols.size());
    out.push_back(std::move(batch->cols[k]));
  }
  batch->cols = std::move(out);
  if (op_counters_ != nullptr) {
    ++op_counters_->batches;
    op_counters_->rows += batch->ActiveRows();
    op_counters_->bytes += batch->ByteSize();
  }
  return true;
}

// ---------------------------------------------------------------------------
// The source builders
// ---------------------------------------------------------------------------

namespace {

/// The one predicate-placement decision behind MakeVecScan and MakeVecLookup
/// (see vec_operator.h). `make_source(spec, batch_rows)` builds the source.
template <typename MakeSource>
VecScanPipeline PlaceSourcePredicate(const PartitionContext& ctx, ScanSpec spec,
                                     bool push_predicate, size_t batch_rows,
                                     const char* filter_name,
                                     MakeSource&& make_source) {
  VecScanPipeline out;
  out.batch_rows = batch_rows > 0 ? batch_rows : kDefaultVecBatchRows;
  std::shared_ptr<const ScanPredicate> pred;
  if (!push_predicate || !ctx.accessor->SupportsScanPredicate()) {
    std::swap(pred, spec.predicate);
  }
  const size_t first_pred_col = spec.paths.size();
  if (pred != nullptr) {
    for (const FieldPath& p : pred->Paths()) spec.paths.push_back(p);
  }
  out.op = make_source(std::move(spec), out.batch_rows);
  if (pred != nullptr) {
    out.op.reset(new VecFilterOperator(std::move(out.op), pred, first_pred_col,
                                       OpCounters(ctx, filter_name)));
    std::vector<size_t> keep(first_pred_col);
    for (size_t i = 0; i < first_pred_col; ++i) keep[i] = i;
    out.op.reset(new VecProjectOperator(std::move(out.op), std::move(keep)));
  }
  return out;
}

}  // namespace

VecScanPipeline MakeVecScan(const PartitionContext& ctx, ScanSpec spec,
                            bool push_predicate, size_t batch_rows,
                            const char* scan_name, const char* filter_name) {
  return PlaceSourcePredicate(
      ctx, std::move(spec), push_predicate, batch_rows, filter_name,
      [&](ScanSpec source_spec, size_t rows) -> std::unique_ptr<VecOperator> {
        return std::make_unique<VecScanOperator>(
            ctx.partition, ctx.accessor, std::move(source_spec), rows, ctx.counters,
            ctx.view, OpCounters(ctx, scan_name));
      });
}

VecScanPipeline MakeVecLookup(const PartitionContext& ctx, std::vector<int64_t> pks,
                              ScanSpec spec, bool push_predicate,
                              size_t batch_rows) {
  return PlaceSourcePredicate(
      ctx, std::move(spec), push_predicate, batch_rows, "filter",
      [&](ScanSpec source_spec, size_t rows) -> std::unique_ptr<VecOperator> {
        return std::make_unique<VecLookupOperator>(
            ctx.partition, ctx.accessor, std::move(pks), std::move(source_spec),
            rows, ctx.counters, ctx.view, OpCounters(ctx, "lookup"));
      });
}

}  // namespace tc
