#include "query/vec/vec_operator.h"

#include <algorithm>

#include "common/env_config.h"
#include "format/vector_format.h"
#include "query/scan_predicate.h"

namespace tc {
namespace {

/// TC_VEC_BATCH_ROWS (default 1024, min 1); read only by MakeVecScan.
size_t VecBatchRowsFromEnv() {
  return static_cast<size_t>(std::max<int64_t>(1, EnvInt64("TC_VEC_BATCH_ROWS", 1024)));
}

}  // namespace

// ---------------------------------------------------------------------------
// Columnar fast-path extraction: one walk over the record's packed vectors
// collects, per requested path, the scalar walker items it matches — items
// point into the payload, so nothing is decoded or allocated until the scan
// appends them typed into the batch columns (AppendItem). The walk skeleton
// mirrors GetValuesVector (field_access.cpp) and ScanPredicateMatcher's
// MatchVector (scan_predicate.cpp): scope stack, active-path matching with
// [*] matching every item of a collection scope, declared-type propagation.
// A structural change to any of the three walks MUST be mirrored in the
// others; VecFastPath.ExtractorMatchesGetValuesVector pins this one to
// GetValuesVector. The terminal differs: exact paths keep their first
// occurrence (and the walk stops once all of them resolved, unless a wildcard
// path is requested), wildcard paths keep every match in walk order (nested
// wildcards flatten into one list), and a NESTED value at any terminal bails
// the whole record out to the generic GetValues fallback (subtree
// materialization is exactly what this path avoids implementing twice).
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

}  // namespace

class VecPathExtractor {
 public:
  /// `paths` must outlive the extractor; every path is non-empty — the
  /// eligibility check in VecScanOperator::Open.
  explicit VecPathExtractor(const std::vector<FieldPath>& paths)
      : paths_(&paths), items_(paths.size()), wildcard_(paths.size(), 0) {
    for (size_t p = 0; p < paths.size(); ++p) {
      if (paths[p].HasWildcard()) {
        wildcard_[p] = 1;
        any_wildcard_ = true;
      } else {
        ++exact_paths_;
      }
    }
  }

  /// Attempts the direct extraction from one payload. Returns false (items
  /// unspecified) when the record needs the GetValues fallback.
  Result<bool> Extract(const VectorRecordView& view, const DatasetType& type,
                       const Schema* schema);

  /// The scalar items path `p` matched in the last Extract, in record order:
  /// at most one for an exact path, the list's items for a wildcard path.
  /// They point into the payload.
  const std::vector<VectorRecordWalker::Item>& items(size_t p) const {
    return items_[p];
  }
  bool wildcard(size_t p) const { return wildcard_[p] != 0; }

 private:
  struct Active {
    size_t path;
    size_t step;
  };
  struct Scope {
    bool is_object = false;
    size_t item_index = 0;
    const TypeDescriptor* decl = nullptr;
    std::vector<Active> actives;
  };

  Scope& PushScope() {
    if (depth_ == scopes_.size()) scopes_.emplace_back();
    Scope& s = scopes_[depth_++];
    s.is_object = false;
    s.item_index = 0;
    s.decl = nullptr;
    s.actives.clear();
    return s;
  }

  const std::vector<FieldPath>* paths_;
  std::vector<std::vector<VectorRecordWalker::Item>> items_;
  std::vector<uint8_t> wildcard_;
  size_t exact_paths_ = 0;
  bool any_wildcard_ = false;
  std::vector<Scope> scopes_;
  size_t depth_ = 0;
  std::vector<Active> child_actives_;
  std::string name_;
};

Result<bool> VecPathExtractor::Extract(const VectorRecordView& view,
                                       const DatasetType& type,
                                       const Schema* schema) {
  TC_RETURN_IF_ERROR(view.Validate());
  const std::vector<FieldPath>& paths = *paths_;
  for (auto& got : items_) got.clear();
  size_t remaining = exact_paths_;

  VectorRecordWalker walker(view);
  VectorRecordWalker::Item it;
  bool done = false;
  TC_RETURN_IF_ERROR(walker.Next(&it, &done));
  if (done || it.tag != AdmTag::kObject) {
    return Status::Corruption("vb: record root is not an object");
  }

  depth_ = 0;
  {
    Scope& root = PushScope();
    root.is_object = true;
    root.decl = type.root.get();
    for (size_t p = 0; p < paths.size(); ++p) root.actives.push_back({p, 0});
  }
  while (true) {
    TC_RETURN_IF_ERROR(walker.Next(&it, &done));
    if (done) break;
    if (it.tag == AdmTag::kEndNest) {
      if (--depth_ == 0) return Status::Corruption("vb: scope underflow");
      if (!scopes_[depth_ - 1].is_object) ++scopes_[depth_ - 1].item_index;
      continue;
    }
    Scope& scope = scopes_[depth_ - 1];
    name_.clear();
    if (scope.is_object && !scope.actives.empty()) {
      TC_RETURN_IF_ERROR(ResolveVectorFieldName(it, scope.decl, schema, &name_));
    }

    child_actives_.clear();
    for (const Active& a : scope.actives) {
      const PathStep& st = paths[a.path].steps[a.step];
      bool match = false;
      if (scope.is_object) {
        match = st.kind == PathStep::kField && st.name == name_;
      } else if (st.kind == PathStep::kWildcard) {
        match = true;
      } else if (st.kind == PathStep::kIndex) {
        match = st.index == scope.item_index;
      }
      if (!match) continue;
      if (a.step + 1 < paths[a.path].steps.size()) {
        child_actives_.push_back({a.path, a.step + 1});
        continue;
      }
      // Terminal. A wildcard path keeps every match; an exact path keeps its
      // first (records violating the unique-field-name contract take
      // first-occurrence-wins, matching GetValuesVector).
      std::vector<VectorRecordWalker::Item>& got = items_[a.path];
      bool exact = wildcard_[a.path] == 0;
      if (exact && !got.empty()) continue;
      if (IsNested(it.tag)) return false;  // subtree: generic fallback
      got.push_back(it);
      if (exact && --remaining == 0 && !any_wildcard_) return true;
    }

    const TypeDescriptor* item_decl = nullptr;
    if (scope.is_object) {
      if (it.declared && scope.decl != nullptr &&
          it.declared_index < scope.decl->field_count()) {
        item_decl = scope.decl->field_type(it.declared_index).get();
      }
    } else {
      item_decl = scope.decl;
    }

    if (IsNested(it.tag)) {
      bool child_is_object = it.tag == AdmTag::kObject;
      const TypeDescriptor* child_decl =
          child_is_object ? item_decl
                          : (item_decl != nullptr ? item_decl->item_type().get()
                                                  : nullptr);
      Scope& child = PushScope();
      child.is_object = child_is_object;
      child.decl = child_decl;
      std::swap(child.actives, child_actives_);
    } else if (!scope.is_object) {
      ++scope.item_index;
    }
  }
  return true;  // exact paths without an item are missing values
}

// ---------------------------------------------------------------------------
// VecScanOperator
// ---------------------------------------------------------------------------

VecScanOperator::VecScanOperator(DatasetPartition* partition,
                                 const RecordAccessor* accessor, ScanSpec spec,
                                 size_t batch_rows, ScanCounters* counters,
                                 const PartitionReadView* view,
                                 VecOpCounters* op_counters)
    : partition_(partition), accessor_(accessor), spec_(std::move(spec)),
      batch_rows_(std::max<size_t>(1, batch_rows)), counters_(counters),
      shared_view_(view), op_counters_(op_counters) {}

VecScanOperator::~VecScanOperator() = default;

Status VecScanOperator::Open() {
  // Pin the snapshot this scan runs against: the query's shared partition
  // view when provided, a private one otherwise. The iterator holds the view
  // alive, so merged-away components stay readable until the scan ends.
  view_ = shared_view_ != nullptr ? shared_view_->primary
                                  : partition_->primary()->AcquireView();
  it_ = std::make_unique<LsmTree::Iterator>(view_);
  counts_in_filter_ = false;
  if (spec_.predicate != nullptr) {
    if (!accessor_->SupportsScanPredicate()) {
      return Status::NotSupported("scan predicate on this storage format");
    }
    // Lower the predicate into the merged LSM cursor: non-matching positions
    // are rejected on the packed payload bytes and never assembled. They are
    // still rows the scan read, so the filter callback owns the counters —
    // and the reusable matcher, so the per-record evaluation state (term
    // flags, scope stack) is allocated once per scan, not once per row.
    pred_paths_ = spec_.predicate->Paths();
    matcher_ = std::make_unique<ScanPredicateMatcher>();
    const RecordAccessor* accessor = accessor_;
    std::shared_ptr<const ScanPredicate> pred = spec_.predicate;
    const std::vector<FieldPath>* paths = &pred_paths_;
    ScanCounters* counters = counters_;
    ScanPredicateMatcher* matcher = matcher_.get();
    it_->set_payload_filter(
        [accessor, pred, paths, counters,
         matcher](std::string_view payload) -> Result<bool> {
          ++counters->rows;
          counters->bytes += payload.size();
          TC_ASSIGN_OR_RETURN(bool match,
                              matcher->Matches(*accessor, payload, *pred, *paths));
          if (!match) ++counters->filtered_pre_assembly;
          return match;
        });
    counts_in_filter_ = true;
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
  if (fast) extractor_ = std::make_unique<VecPathExtractor>(spec_.paths);
  first_ = true;
  return Status::OK();
}

Result<bool> VecScanOperator::Next(ColumnBatch* batch) {
  batch->Reset(spec_.paths.size());
  batch->partition = partition_->partition_id();
  uint64_t fallback_rows = 0;
  while (batch->rows < batch_rows_) {
    if (first_) {
      TC_RETURN_IF_ERROR(it_->SeekToFirst());
      first_ = false;
    } else if (it_->Valid()) {
      TC_RETURN_IF_ERROR(it_->Next());
    }
    if (!it_->Valid()) break;
    std::string_view payload = it_->payload();
    if (!counts_in_filter_) {
      ++counters_->rows;
      counters_->bytes += payload.size();
    }
    if (!spec_.paths.empty()) {
      bool fast_done = false;
      if (extractor_ != nullptr) {
        VectorRecordView view(reinterpret_cast<const uint8_t*>(payload.data()),
                              payload.size());
        TC_ASSIGN_OR_RETURN(
            fast_done,
            extractor_->Extract(view, *accessor_->type(), &accessor_->schema()));
      }
      if (fast_done) {
        for (size_t c = 0; c < spec_.paths.size(); ++c) {
          const std::vector<VectorRecordWalker::Item>& items = extractor_->items(c);
          ColumnVector& col = batch->cols[c];
          if (extractor_->wildcard(c)) {
            ColumnVector& list = col.BeginList();
            for (const VectorRecordWalker::Item& item : items) AppendItem(item, &list);
            col.EndList();
          } else if (items.empty()) {
            col.AppendMissing();
          } else {
            AppendItem(items[0], &col);
          }
        }
      } else {
        ++fallback_rows;
        scratch_.clear();
        TC_RETURN_IF_ERROR(accessor_->GetValues(payload, spec_.paths, &scratch_));
        for (size_t c = 0; c < spec_.paths.size(); ++c) {
          batch->cols[c].AppendValue(scratch_[c]);
        }
      }
    }
    if (spec_.attach_record) {
      batch->records.push_back(
          std::make_shared<Buffer>(payload.begin(), payload.end()));
    }
    ++batch->rows;
  }
  if (batch->rows == 0) return false;
  if (op_counters_ != nullptr) {
    ++op_counters_->batches;
    op_counters_->rows += batch->rows;
    op_counters_->bytes += batch->ByteSize();
    op_counters_->fallback_rows += fallback_rows;
  }
  return true;
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
// Bridges
// ---------------------------------------------------------------------------

VecToRowBridge::VecToRowBridge(std::unique_ptr<VecOperator> child,
                               VecOpCounters* op_counters)
    : child_(std::move(child)), op_counters_(op_counters) {}

Status VecToRowBridge::Open() {
  pos_ = 0;
  have_ = false;
  return child_->Open();
}

Result<bool> VecToRowBridge::Next(Row* row) {
  while (true) {
    if (have_ && pos_ < order_.size()) {
      size_t r = order_[pos_++];
      row->partition = batch_.partition;
      row->cols.clear();
      for (const ColumnVector& c : batch_.cols) row->cols.push_back(c.ValueAt(r));
      row->record = r < batch_.records.size() ? batch_.records[r] : nullptr;
      return true;
    }
    have_ = false;
    TC_ASSIGN_OR_RETURN(bool ok, child_->Next(&batch_));
    if (!ok) return false;
    order_.clear();
    batch_.ForEachActive(
        [this](size_t r) { order_.push_back(static_cast<uint32_t>(r)); });
    pos_ = 0;
    have_ = true;
    if (op_counters_ != nullptr) {
      ++op_counters_->batches;
      op_counters_->rows += order_.size();
    }
  }
}

// ---------------------------------------------------------------------------
// The scan builder
// ---------------------------------------------------------------------------

VecScanPipeline MakeVecScan(const PartitionContext& ctx, ScanSpec spec,
                            bool push_predicate, size_t batch_rows,
                            const char* scan_name, const char* filter_name) {
  auto counters = [&ctx](const char* name) -> VecOpCounters* {
    return ctx.vec_counters != nullptr ? ctx.vec_counters->For(name) : nullptr;
  };
  VecScanPipeline out;
  out.batch_rows = batch_rows > 0 ? batch_rows : VecBatchRowsFromEnv();
  std::shared_ptr<const ScanPredicate> pred;
  if (!push_predicate) std::swap(pred, spec.predicate);
  const size_t first_pred_col = spec.paths.size();
  if (pred != nullptr) {
    for (const FieldPath& p : pred->Paths()) spec.paths.push_back(p);
  }
  out.op.reset(new VecScanOperator(ctx.partition, ctx.accessor, std::move(spec),
                                   out.batch_rows, ctx.counters, ctx.view,
                                   counters(scan_name)));
  if (pred != nullptr) {
    out.op.reset(new VecFilterOperator(std::move(out.op), pred, first_pred_col,
                                       counters(filter_name)));
    std::vector<size_t> keep(first_pred_col);
    for (size_t i = 0; i < first_pred_col; ++i) keep[i] = i;
    out.op.reset(new VecProjectOperator(std::move(out.op), std::move(keep)));
  }
  return out;
}

}  // namespace tc
