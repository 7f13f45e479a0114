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

// ---------------------------------------------------------------------------
// Lowered evaluation over the packed vectors: the shared PackedPathWalk
// (query/path_walk.h) with hooks that compare matched leaves in place. The
// per-record state (term flags, scope stack) and the step IDs live in the
// ScanPredicateMatcher, so a scan evaluating millions of records reuses them
// instead of rebuilding them per row.
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
                                 size_t stride, const PredicateTerm& term) {
  if (term.in_list.empty()) {
    return AnyPackedFixedSatisfies(tag, base, count, stride, term.op, term.literal);
  }
  for (const AdmValue& l : term.in_list) {
    if (AnyPackedFixedSatisfies(tag, base, count, stride, term.op, l)) return true;
  }
  return false;
}

}  // namespace

struct ScanPredicateMatcher::Hooks : PathWalkHooks {
  Hooks(const PackedPathWalk& w, const std::vector<PredicateTerm>& t,
        std::vector<uint8_t>* s)
      : walk(w), terms(t), satisfied(*s), undecided(t.size()) {}

  bool Stop() const { return decided; }

  bool Terminal(size_t t, const Item& it) {
    const PredicateTerm& term = terms[t];
    if (term.path.HasWildcard()) {
      // Existential: a miss on one item is not a decision.
      if (satisfied[t] || IsNested(it.tag) || !PackedTermLeafSatisfies(it, term)) {
        return false;
      }
      return Satisfy(t);
    }
    // An exact path reaches its terminal once: a failed compare (or a nested
    // value at the path) decides the conjunction.
    if (IsNested(it.tag) || !PackedTermLeafSatisfies(it, term)) return Decide(false);
    return Satisfy(t);
  }

  // Runs go through the vectorized AnyPackedFixedSatisfies kernel and need
  // no per-item bookkeeping: a run of same-tag fixed-width scalars when every
  // active path is a terminal [*] compare, a shape run of same-shape objects
  // when every active path is an existential `a[*].b` compare.
  size_t TryRun(VectorRecordWalker* walker,
                const std::vector<PackedPathWalk::Active>& actives) {
    bool leaf = true;
    for (const auto& a : actives) {
      const auto& steps = terms[a.path].path.steps;
      leaf = leaf && a.step + 1 == steps.size() && steps[a.step].kind == PathStep::kWildcard;
    }
    if (!leaf) {
      VectorRecordWalker::ShapeRun run;
      return walk.TakeShapeRun(
          walker, actives, &run, [&](size_t t, const VectorRecordWalker::ShapeField& f) {
            return !satisfied[t] && run.base != nullptr &&
                   AnyPackedFixedTermSatisfies(f.tag, run.base + f.offset, run.count,
                                               run.stride, terms[t]) &&
                   Satisfy(t);
          });
    }
    AdmTag run_tag;
    const uint8_t* run_base = nullptr;
    size_t run = walker->TryFixedRun(&run_tag, &run_base);
    if (run == 0) return 0;
    size_t width = static_cast<size_t>(FixedWidthOf(run_tag));  // >= 0 in a run
    for (const auto& a : actives) {
      if (!satisfied[a.path] &&
          AnyPackedFixedTermSatisfies(run_tag, run_base, run, width, terms[a.path]) &&
          Satisfy(a.path)) {
        break;
      }
    }
    return run;
  }

  // Satisfied terms only ever stay satisfied; the last one decides.
  bool Satisfy(size_t t) {
    satisfied[t] = 1;
    return --undecided == 0 && Decide(true);
  }
  bool Decide(bool v) {
    decided = true;
    verdict = v;
    return true;
  }

  const PackedPathWalk& walk;
  const std::vector<PredicateTerm>& terms;
  std::vector<uint8_t>& satisfied;
  size_t undecided;
  bool decided = false;
  bool verdict = false;
};

Result<bool> ScanPredicateMatcher::MatchVector(const VectorRecordView& view,
                                               const DatasetType& type,
                                               const Schema* schema,
                                               const ScanPredicate& pred) {
  const std::vector<PredicateTerm>& terms = pred.terms;
  for (const auto& t : terms) {
    // The empty path denotes the root object, which is never a scalar.
    if (t.path.steps.empty()) {
      TC_RETURN_IF_ERROR(view.Validate());
      return false;
    }
  }
  // Dictionaries only grow, so a schema whose dictionary grew since the
  // last bind may now hold a step name that resolved to 0 then.
  uint32_t dict_size = schema != nullptr ? schema->dict().size() : 0;
  if (&pred != bound_pred_ || schema != bound_schema_ ||
      dict_size != bound_dict_size_) {
    walk_.Bind(
        terms.size(),
        [&terms](size_t t) -> const std::vector<PathStep>& {
          return terms[t].path.steps;
        },
        schema);
    bound_pred_ = &pred;
    bound_schema_ = schema;
    bound_dict_size_ = dict_size;
  }
  satisfied_.assign(terms.size(), 0);
  Hooks hooks(walk_, terms, &satisfied_);
  if (terms.empty()) hooks.Decide(true);
  TC_RETURN_IF_ERROR(walk_.Walk(view, type, &hooks));
  return hooks.verdict;
}

Result<bool> MatchVectorRecord(const VectorRecordView& view, const DatasetType& type,
                               const Schema* schema, const ScanPredicate& pred) {
  ScanPredicateMatcher matcher;
  return matcher.MatchVector(view, type, schema, pred);
}

// ---------------------------------------------------------------------------
// Mode dispatch: the pre-assembly fast path for consolidated vector-based
// records, extract-then-evaluate elsewhere. Fallback semantics are identical
// by construction: both end in EvalPredicateTerm-compatible comparisons.
// ---------------------------------------------------------------------------

Result<bool> ScanPredicateMatcher::Matches(
    const RecordAccessor& accessor, std::string_view payload,
    const ScanPredicate& pred, const std::vector<FieldPath>& pred_paths) {
  if (!accessor.SupportsScanPredicate()) {
    return Status::NotSupported("scan predicates over BSON records");
  }
  if ((accessor.mode() == SchemaMode::kInferred ||
       accessor.mode() == SchemaMode::kSchemalessVB) &&
      accessor.consolidate()) {
    VectorRecordView view(reinterpret_cast<const uint8_t*>(payload.data()),
                          payload.size());
    return MatchVector(view, *accessor.type(), &accessor.schema(), pred);
  }
  // ADM records navigate offset tables, so extracting just the predicate
  // paths is already cheap; the consolidation ablation walks once per term.
  cols_.clear();
  TC_RETURN_IF_ERROR(accessor.GetValues(payload, pred_paths, &cols_));
  return EvalPredicateRow(cols_, pred, 0);
}

}  // namespace tc
