// Scan predicates — the "deep pushdown" extension of §3.4.2. The paper's
// consolidation + pushdown rewrite stops at field access: the scan extracts
// every requested path of every record, and filters run on assembled rows.
// Figure 23 shows the cost: on the highly selective Sensors Q4 the
// un-optimized filter-first plan beats the optimized one, because the
// optimized scan assembles 248 scalars per record only to throw ~99.9% of the
// rows away. The follow-on work (Columnar Formats for Schemaless LSM-based
// Document Stores, §5) closes the gap by evaluating predicates on the packed
// value vectors and assembling only surviving tuples; this module is that
// layer for the vector-based record format.
//
// A ScanPredicate is a conjunction of comparison terms over scalar-leaf
// paths. It can be LOWERED into the scan (ScanSpec::predicate): the LSM
// merged cursor evaluates the terms against each surviving record's packed
// vectors — walking tags, not building AdmValues — and positions that fail
// never reach column extraction. Paths with [*] steps are existential
// ("some item satisfies"). When lowering is impossible (BSON payloads,
// pushdown disabled), the same terms run as a batch filter over the
// extracted columns (VecFilterOperator); both paths share one semantic
// definition (EvalPredicateTerm over AdmScalarSatisfies), and the
// scan-predicate tests assert they return the result set of a row-level
// EvalPredicateRow reference.
#ifndef TC_QUERY_SCAN_PREDICATE_H_
#define TC_QUERY_SCAN_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "query/field_access.h"
#include "query/path_walk.h"

namespace tc {

/// One comparison: `value-at-path op literal`. Missing, null, nested, and
/// cross-family values never satisfy (see AdmScalarSatisfies). A path with a
/// [*] step makes the term existential over the matched items.
///
/// With a non-empty `in_list`, the list REPLACES `literal` and the term is a
/// disjunction over it: the value satisfies the term iff `value op l` holds
/// for ANY listed literal. With op = kEq that is SQL's IN; other operators
/// give "matches any bound" semantics. This keeps OR/IN predicates inside the
/// conjunction-of-terms shape the lowered matcher and the planner's
/// selectivity model both understand.
struct PredicateTerm {
  FieldPath path;
  CompareOp op = CompareOp::kEq;
  AdmValue literal;
  std::vector<AdmValue> in_list;  // non-empty: disjunction of literals
  bool fold_case = false;  // ASCII-case-insensitive string comparison
};

/// A conjunction of terms. An empty conjunction is trivially true.
struct ScanPredicate {
  std::vector<PredicateTerm> terms;

  static PredicateTerm Term(const std::string& path, CompareOp op,
                            AdmValue literal, bool fold_case = false) {
    return PredicateTerm{FieldPath::Parse(path), op, std::move(literal), {},
                         fold_case};
  }
  /// IN-list term: `value-at-path = any of literals`.
  static PredicateTerm In(const std::string& path, std::vector<AdmValue> literals,
                          bool fold_case = false) {
    return PredicateTerm{FieldPath::Parse(path), CompareOp::kEq, AdmValue(),
                         std::move(literals), fold_case};
  }
  static std::shared_ptr<const ScanPredicate> And(std::vector<PredicateTerm> terms) {
    auto p = std::make_shared<ScanPredicate>();
    p->terms = std::move(terms);
    return p;
  }

  /// The terms' paths, aligned with `terms` — what a fallback scan must
  /// extract for row-level evaluation.
  std::vector<FieldPath> Paths() const;
};

/// Scalar-vs-term comparison honoring the IN-list extension: the single
/// AdmScalarSatisfies call for plain terms, any-literal-satisfies for IN-list
/// terms.
bool TermScalarSatisfies(const AdmValue& v, const PredicateTerm& term);

/// Row-level semantics of one term over its extracted column: existential
/// any-item compare for wildcard paths, scalar compare otherwise. The single
/// source of truth the lowered evaluator must reproduce.
bool EvalPredicateTerm(const AdmValue& extracted, const PredicateTerm& term);

/// Evaluates the conjunction over columns extracted for `pred.Paths()`,
/// starting at `cols[first_col]` — the row-level reference the lowered and
/// batch-filter paths are tested against.
bool EvalPredicateRow(const std::vector<AdmValue>& cols, const ScanPredicate& pred,
                      size_t first_col = 0);

/// Reusable evaluation scratch for one scan's lowered predicate. The walk
/// needs per-record state — term satisfaction flags, the scope stack with its
/// active-path lists, and (for the fallback modes) an extracted-column
/// vector. A hot scan evaluates the predicate on every surviving record, so
/// the scan's payload-filter callback owns ONE matcher and re-runs it per
/// record with all capacity retained: the deep-pushdown path performs no
/// per-row allocations once the stack has warmed up. The FieldNameIDs of the
/// terms' path steps are resolved on the first call and reused while the
/// same predicate and schema objects come back (a schema whose dictionary
/// grew is re-resolved), so a predicate must not change in place between
/// calls. A matcher is single-threaded state; each scan (per partition, per
/// query) creates its own.
class ScanPredicateMatcher {
 public:
  /// Evaluates `pred` against one raw payload of `accessor`'s format: the
  /// lowered walk (MatchVector) for consolidated vector-based records,
  /// extract-then-EvalPredicateRow for every other format but BSON.
  /// `pred_paths` is `pred.Paths()` precomputed by the caller.
  Result<bool> Matches(const RecordAccessor& accessor, std::string_view payload,
                       const ScanPredicate& pred,
                       const std::vector<FieldPath>& pred_paths);

  /// The lowered vector-format walk itself (see MatchVectorRecord).
  Result<bool> MatchVector(const VectorRecordView& view, const DatasetType& type,
                           const Schema* schema, const ScanPredicate& pred);

 private:
  struct Hooks;  // the walk's terminal and run handling; scan_predicate.cpp

  PackedPathWalk walk_;  // bound to the three bound_* values below
  // Term states: 0 = undecided, 1 = satisfied (an unsatisfiable exact term
  // short-circuits the conjunction instead).
  std::vector<uint8_t> satisfied_;
  const ScanPredicate* bound_pred_ = nullptr;
  const Schema* bound_schema_ = nullptr;
  uint32_t bound_dict_size_ = 0;
  std::vector<AdmValue> cols_;  // fallback-mode extraction scratch
};

/// Lowered evaluation: one early-terminating walk over the record's packed
/// vectors, comparing leaves in place via the comparator kernels of
/// vector_format.h (contiguous scalar runs and shape runs of same-shape
/// objects inside collections go through the vectorized
/// AnyPackedFixedSatisfies kernel). No AdmValue is materialized.
/// Returns as soon as the conjunction is decided — for a predicate on an
/// early top-level field, non-matching records cost a handful of tag reads.
/// Convenience wrapper over a fresh ScanPredicateMatcher; hot scans hold a
/// matcher instead to reuse its scratch across records.
Result<bool> MatchVectorRecord(const VectorRecordView& view, const DatasetType& type,
                               const Schema* schema, const ScanPredicate& pred);

}  // namespace tc

#endif  // TC_QUERY_SCAN_PREDICATE_H_
