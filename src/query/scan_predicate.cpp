#include "query/scan_predicate.h"

namespace tc {

std::vector<FieldPath> ScanPredicate::Paths() const {
  std::vector<FieldPath> paths;
  paths.reserve(terms.size());
  for (const auto& t : terms) paths.push_back(t.path);
  return paths;
}

bool TermScalarSatisfies(const AdmValue& v, const PredicateTerm& term) {
  if (term.in_list.empty()) {
    return AdmScalarSatisfies(v, term.op, term.literal, term.fold_case);
  }
  for (const AdmValue& l : term.in_list) {
    if (AdmScalarSatisfies(v, term.op, l, term.fold_case)) return true;
  }
  return false;
}

bool EvalPredicateTerm(const AdmValue& extracted, const PredicateTerm& term) {
  if (term.path.HasWildcard()) {
    // Wildcard extraction yields a (possibly empty) array; the term holds iff
    // SOME matched item satisfies the comparison. Nested items never do.
    if (!extracted.is_collection()) return false;
    for (size_t i = 0; i < extracted.size(); ++i) {
      if (TermScalarSatisfies(extracted.item(i), term)) return true;
    }
    return false;
  }
  return TermScalarSatisfies(extracted, term);
}

bool EvalPredicateRow(const std::vector<AdmValue>& cols, const ScanPredicate& pred,
                      size_t first_col) {
  TC_CHECK(first_col + pred.terms.size() <= cols.size());
  for (size_t i = 0; i < pred.terms.size(); ++i) {
    if (!EvalPredicateTerm(cols[first_col + i], pred.terms[i])) return false;
  }
  return true;
}

FilterOperator::Predicate MakeRowPredicate(
    std::shared_ptr<const ScanPredicate> pred, size_t first_col) {
  return [pred, first_col](const Row& row) {
    return EvalPredicateRow(row.cols, *pred, first_col);
  };
}

// ---------------------------------------------------------------------------
// Lowered evaluation over the packed vectors.
//
// The walk skeleton (scope stack, active-path matching, declared-type
// propagation) deliberately mirrors GetValuesVector in field_access.cpp; the
// terminal behavior differs enough — in-place compares with conjunction
// short-circuits and term states here, subtree materialization with builder
// fan-out there — that parameterizing one walker over both would bury the
// §4.4.4 hot loop under callbacks. A structural change to either walk MUST be
// mirrored in the other, and in the vectorized scan's VecPathExtractor
// (vec/vec_operator.cpp), the third walk on this skeleton;
// LoweredPredicateEquivalence.RandomizedAcrossModesAndChurn pins this one to
// GetValuesVector.
//
// The per-record state (term flags, scope stack, name buffer) lives in the
// ScanPredicateMatcher so a scan evaluating millions of records reuses the
// same capacity instead of reallocating the stack per row.
// ---------------------------------------------------------------------------

namespace {

// IN-list-aware wrappers over the packed-leaf kernels: the per-leaf cost of a
// k-literal term is k kernel calls on the (rare) leaves that reach a terminal,
// matching TermScalarSatisfies semantics exactly.
bool PackedTermLeafSatisfies(const VectorRecordWalker::Item& item,
                             const PredicateTerm& term) {
  if (term.in_list.empty()) {
    return PackedLeafSatisfies(item, term.op, term.literal, term.fold_case);
  }
  for (const AdmValue& l : term.in_list) {
    if (PackedLeafSatisfies(item, term.op, l, term.fold_case)) return true;
  }
  return false;
}

bool AnyPackedFixedTermSatisfies(AdmTag tag, const uint8_t* base, size_t count,
                                 const PredicateTerm& term) {
  if (term.in_list.empty()) {
    return AnyPackedFixedSatisfies(tag, base, count, term.op, term.literal);
  }
  for (const AdmValue& l : term.in_list) {
    if (AnyPackedFixedSatisfies(tag, base, count, term.op, l)) return true;
  }
  return false;
}

}  // namespace

ScanPredicateMatcher::Scope& ScanPredicateMatcher::PushScope() {
  if (depth_ == scopes_.size()) scopes_.emplace_back();
  Scope& s = scopes_[depth_++];
  s.is_object = false;
  s.item_index = 0;
  s.decl = nullptr;
  s.actives.clear();
  return s;
}

Result<bool> ScanPredicateMatcher::MatchVector(const VectorRecordView& view,
                                               const DatasetType& type,
                                               const Schema* schema,
                                               const ScanPredicate& pred) {
  TC_RETURN_IF_ERROR(view.Validate());
  const std::vector<PredicateTerm>& terms = pred.terms;
  if (terms.empty()) return true;

  // A term decided unsatisfiable short-circuits the whole conjunction, so
  // satisfied_ only ever transitions 0 -> 1.
  satisfied_.assign(terms.size(), 0);
  size_t undecided = terms.size();
  for (const auto& t : terms) {
    // The empty path denotes the root object, which is never a scalar.
    if (t.path.steps.empty()) return false;
  }

  /// The vectorized-run fast path applies when every active in a collection
  /// scope is an undecidable-per-item-free terminal [*] compare: consuming a
  /// whole scalar run at once then needs no per-item bookkeeping.
  auto all_terminal_wildcards = [&terms](const Scope& scope) {
    for (const Active& a : scope.actives) {
      const auto& steps = terms[a.term].path.steps;
      if (a.step + 1 != steps.size()) return false;
      if (steps[a.step].kind != PathStep::kWildcard) return false;
    }
    return true;
  };

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
    for (size_t t = 0; t < terms.size(); ++t) root.actives.push_back({t, 0});
  }
  while (true) {
    {
      Scope& scope = scopes_[depth_ - 1];
      if (!scope.is_object && !scope.actives.empty() &&
          all_terminal_wildcards(scope)) {
        AdmTag run_tag;
        const uint8_t* run_base = nullptr;
        size_t run = walker.TryFixedRun(&run_tag, &run_base);
        if (run > 0) {
          for (const Active& a : scope.actives) {
            if (satisfied_[a.term]) continue;
            if (AnyPackedFixedTermSatisfies(run_tag, run_base, run,
                                            terms[a.term])) {
              satisfied_[a.term] = 1;
              if (--undecided == 0) return true;
            }
          }
          scope.item_index += run;
          continue;
        }
      }
    }
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
      const PathStep& st = terms[a.term].path.steps[a.step];
      bool match = false;
      if (scope.is_object) {
        match = st.kind == PathStep::kField && st.name == name_;
      } else if (st.kind == PathStep::kWildcard) {
        match = true;
      } else if (st.kind == PathStep::kIndex) {
        match = st.index == scope.item_index;
      }
      if (!match) continue;
      if (a.step + 1 < terms[a.term].path.steps.size()) {
        child_actives_.push_back({a.term, a.step + 1});
        continue;
      }
      // Terminal: compare this leaf in place.
      const PredicateTerm& term = terms[a.term];
      if (term.path.HasWildcard()) {
        // Existential: a miss on one item is not a decision.
        if (!satisfied_[a.term] && !IsNested(it.tag) &&
            PackedTermLeafSatisfies(it, term)) {
          satisfied_[a.term] = 1;
          if (--undecided == 0) return true;
        }
      } else {
        // Exact paths resolve at most once: a failed compare (or a nested
        // value at the path) decides the conjunction. Records violating the
        // unique-field-name contract take first-occurrence-wins here; don't
        // let a duplicate re-decrement undecided or flip the verdict.
        if (satisfied_[a.term]) continue;
        if (IsNested(it.tag) || !PackedTermLeafSatisfies(it, term)) {
          return false;
        }
        satisfied_[a.term] = 1;
        if (--undecided == 0) return true;
      }
    }

    // Declared type of this item (for descendant name resolution).
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
      // `scope` may dangle after PushScope (vector growth); nothing below
      // uses it.
      Scope& child = PushScope();
      child.is_object = child_is_object;
      child.decl = child_decl;
      std::swap(child.actives, child_actives_);  // capacities circulate
    } else if (!scope.is_object) {
      ++scope.item_index;
    }
  }
  return undecided == 0;
}

Result<bool> MatchVectorRecord(const VectorRecordView& view, const DatasetType& type,
                               const Schema* schema, const ScanPredicate& pred) {
  ScanPredicateMatcher matcher;
  return matcher.MatchVector(view, type, schema, pred);
}

// ---------------------------------------------------------------------------
// Mode dispatch: the pre-assembly fast path for vector-based records, the
// extract-then-evaluate fallback elsewhere. Fallback semantics are identical
// by construction: both end in EvalPredicateTerm-compatible comparisons.
// ---------------------------------------------------------------------------

Result<bool> ScanPredicateMatcher::Matches(
    const RecordAccessor& accessor, std::string_view payload,
    const ScanPredicate& pred, const std::vector<FieldPath>& pred_paths) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(payload.data());
  switch (accessor.mode()) {
    case SchemaMode::kOpen:
    case SchemaMode::kClosed: {
      // ADM records navigate offset tables: extracting just the predicate
      // paths is already cheap, so the "lowered" form is extract-and-test.
      cols_.clear();
      TC_RETURN_IF_ERROR(GetValuesAdm(data, payload.size(), *accessor.type(),
                                      pred_paths, &cols_));
      return EvalPredicateRow(cols_, pred, 0);
    }
    case SchemaMode::kInferred:
    case SchemaMode::kSchemalessVB: {
      VectorRecordView view(data, payload.size());
      if (accessor.consolidate()) {
        return MatchVector(view, *accessor.type(), &accessor.schema(), pred);
      }
      // Consolidation ablation: one full walk per term, mirroring
      // GetValuesVectorUnconsolidated.
      cols_.clear();
      TC_RETURN_IF_ERROR(GetValuesVectorUnconsolidated(
          view, *accessor.type(), &accessor.schema(), pred_paths, &cols_));
      return EvalPredicateRow(cols_, pred, 0);
    }
    case SchemaMode::kBson:
      return Status::NotSupported("scan predicates over BSON records");
  }
  return Status::Internal("bad mode");
}

Result<bool> RecordAccessor::Matches(std::string_view payload,
                                     const ScanPredicate& pred,
                                     const std::vector<FieldPath>& pred_paths) const {
  ScanPredicateMatcher matcher;
  return matcher.Matches(*this, payload, pred, pred_paths);
}

Result<bool> RecordAccessor::Matches(std::string_view payload,
                                     const ScanPredicate& pred) const {
  return Matches(payload, pred, pred.Paths());
}

}  // namespace tc
