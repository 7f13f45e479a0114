#include "query/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "query/vec/vec_operator.h"

namespace tc {

namespace {

// Cost-model constants, in page-read-equivalent units. A scanned row costs a
// fraction of a page read (rows are packed many to a page and the cursor is
// sequential); an index-probe match costs more than a page read (secondary
// range scan entry + a point lookup that may touch several components, cf.
// LsmStats::lookup_pages_read). Their ratio fixes the selectivity crossover:
// probe wins below kRowScanCost/kProbeCost ≈ 8%.
constexpr double kRowScanCost = 0.1;
constexpr double kProbeCost = 1.2;
// Default per-term selectivities when no domain statistics apply.
constexpr double kDefaultEqSel = 0.1;
constexpr double kDefaultRangeSel = 0.3;
constexpr double kDefaultNeSel = 0.9;

bool Int64Literal(const AdmValue& v, int64_t* out) {
  if (!IsIntFamily(v.tag())) return false;
  *out = v.int_value();
  return true;
}

/// A term is sargable on the indexed field when its path is exactly that
/// top-level field and it constrains an int64 range: kEq/kLt/kLe/kGt/kGe with
/// an integer literal, or an IN list of integer literals.
bool IsIndexedFieldTerm(const PredicateTerm& term, const std::string& field) {
  return !field.empty() && term.path.steps.size() == 1 &&
         term.path.steps[0].kind == PathStep::kField &&
         term.path.steps[0].name == field;
}

}  // namespace

const char* AccessPathName(AccessPath p) {
  switch (p) {
    case AccessPath::kFullScan:
      return "full-scan";
    case AccessPath::kFilteredScan:
      return "filtered-scan";
    case AccessPath::kIndexProbe:
      return "index-probe";
  }
  return "?";
}

PlannerInputs CollectPlannerInputs(Dataset* dataset) {
  PlannerInputs in;
  in.partitions = dataset->partition_count();
  bool sk_seen = false;
  for (size_t i = 0; i < dataset->partition_count(); ++i) {
    DatasetPartition* p = dataset->partition(i);
    LsmTree::ReadViewRef view = p->primary()->AcquireView();
    in.rows += view->memtable().entry_count();
    for (const auto& mem : view->pending_memtables()) {
      in.rows += mem->entry_count();
    }
    for (const auto& comp : view->components()) {
      in.rows += comp->meta().n_entries;
    }
    in.primary_components += view->components().size();
    in.physical_bytes += view->physical_bytes();
    if (p->secondary() != nullptr) {
      in.has_secondary = true;
      LsmTree::ReadViewRef sv = p->secondary()->tree()->AcquireView();
      in.secondary_components += sv->components().size();
      for (const auto& comp : sv->components()) {
        // Secondary entries are (secondary_key, primary_key) composites; the
        // fence keys' `a` halves bound the observed key domain.
        int64_t lo = comp->meta().min_key.a;
        int64_t hi = comp->meta().max_key.a;
        if (!sk_seen) {
          in.sk_min = lo;
          in.sk_max = hi;
          sk_seen = true;
        } else {
          in.sk_min = std::min(in.sk_min, lo);
          in.sk_max = std::max(in.sk_max, hi);
        }
      }
    }
  }
  in.sk_bounds_valid = sk_seen;
  return in;
}

PlanDecision ChooseAccessPath(const PlannerInputs& inputs,
                              const ScanPredicate* pred,
                              const std::string& secondary_field) {
  PlanDecision d;
  const double rows = static_cast<double>(inputs.rows);
  d.scan_cost = rows * kRowScanCost;
  d.probe_cost = std::numeric_limits<double>::infinity();
  if (pred == nullptr || pred->terms.empty()) {
    d.path = AccessPath::kFullScan;
    d.selectivity = 1.0;
    return d;
  }

  // Sargable range on the indexed field: conjunct range terms intersect into
  // one [lo, hi]; an IN term contributes its literals as candidate points.
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool have_range = false;
  std::vector<int64_t> in_points;
  bool have_in = false;

  const double domain =
      inputs.sk_bounds_valid
          ? static_cast<double>(inputs.sk_max) - static_cast<double>(inputs.sk_min) + 1
          : 0;

  double selectivity = 1.0;
  for (const PredicateTerm& term : pred->terms) {
    double term_sel = kDefaultRangeSel;
    if (IsIndexedFieldTerm(term, secondary_field) && !term.fold_case) {
      if (!term.in_list.empty() && term.op == CompareOp::kEq) {
        std::vector<int64_t> pts;
        bool all_int = true;
        for (const AdmValue& l : term.in_list) {
          int64_t v;
          if (!Int64Literal(l, &v)) {
            all_int = false;
            break;
          }
          pts.push_back(v);
        }
        if (all_int) {
          std::sort(pts.begin(), pts.end());
          pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
          if (!have_in) {
            in_points = std::move(pts);
            have_in = true;
          }
          term_sel = domain > 0
                         ? std::min(1.0, static_cast<double>(in_points.size()) / domain)
                         : kDefaultEqSel;
        }
      } else if (term.in_list.empty()) {
        int64_t v;
        if (Int64Literal(term.literal, &v)) {
          switch (term.op) {
            case CompareOp::kEq:
              lo = std::max(lo, v);
              hi = std::min(hi, v);
              have_range = true;
              term_sel = domain > 0 ? std::min(1.0, 1.0 / domain) : kDefaultEqSel;
              break;
            case CompareOp::kLt:
            case CompareOp::kLe:
              hi = std::min(hi, term.op == CompareOp::kLt ? v - 1 : v);
              have_range = true;
              term_sel =
                  domain > 0
                      ? std::min(1.0, std::max(0.0, static_cast<double>(hi) -
                                                        static_cast<double>(inputs.sk_min) + 1) /
                                          domain)
                      : kDefaultRangeSel;
              break;
            case CompareOp::kGt:
            case CompareOp::kGe:
              lo = std::max(lo, term.op == CompareOp::kGt ? v + 1 : v);
              have_range = true;
              term_sel =
                  domain > 0
                      ? std::min(1.0, std::max(0.0, static_cast<double>(inputs.sk_max) -
                                                        static_cast<double>(lo) + 1) /
                                          domain)
                      : kDefaultRangeSel;
              break;
            case CompareOp::kNe:
              term_sel = kDefaultNeSel;
              break;
          }
        }
      }
    } else {
      // Non-indexed (or non-sargable) term: fixed heuristics.
      if (!term.in_list.empty()) {
        term_sel = std::min(1.0, kDefaultEqSel * static_cast<double>(term.in_list.size()));
      } else if (term.op == CompareOp::kEq) {
        term_sel = kDefaultEqSel;
      } else if (term.op == CompareOp::kNe) {
        term_sel = kDefaultNeSel;
      } else {
        term_sel = kDefaultRangeSel;
      }
    }
    selectivity *= term_sel;
  }
  d.selectivity = selectivity;

  // Probe ranges: IN points clipped to the conjunct range, or the range alone.
  if (inputs.has_secondary) {
    if (have_in) {
      for (int64_t v : in_points) {
        if (v >= lo && v <= hi) d.ranges.emplace_back(v, v);
      }
    } else if (have_range) {
      if (lo <= hi) d.ranges.emplace_back(lo, hi);
    }
    if ((have_in || have_range) && d.ranges.empty()) {
      // Provably empty sargable range: probing nothing beats any scan.
      d.probe_cost = 0;
    } else if (!d.ranges.empty()) {
      d.probe_cost = selectivity * rows * kProbeCost +
                     static_cast<double>(inputs.secondary_components);
    }
  }

  if (d.probe_cost < d.scan_cost) {
    d.path = AccessPath::kIndexProbe;
  } else if (inputs.can_lower_predicate) {
    d.path = AccessPath::kFilteredScan;
  } else {
    d.path = AccessPath::kFullScan;
  }
  return d;
}

Result<QueryStats> RunPlannedScan(Dataset* dataset, const QueryOptions& options,
                                  const std::vector<std::string>& paths,
                                  std::shared_ptr<const ScanPredicate> pred,
                                  const BatchSinkFactory& make_sink,
                                  PlanDecision* decision_out) {
  PlannerInputs inputs = CollectPlannerInputs(dataset);
  inputs.can_lower_predicate = options.pushdown_scan_predicates &&
                               dataset->options().mode != SchemaMode::kBson;
  PlanDecision decision = ChooseAccessPath(
      inputs, pred.get(), dataset->options().secondary_index_field);

  std::vector<FieldPath> parsed;
  parsed.reserve(paths.size());
  for (const std::string& p : paths) parsed.push_back(FieldPath::Parse(p));

  VecPipelineFactory factory =
      [pred, parsed, decision](const PartitionContext& ctx)
      -> Result<std::unique_ptr<VecOperator>> {
    ScanSpec spec;
    spec.paths = parsed;
    spec.predicate = pred;
    if (decision.path != AccessPath::kIndexProbe) {
      return MakeVecScan(ctx, std::move(spec),
                         /*push_predicate=*/decision.path == AccessPath::kFilteredScan,
                         ctx.options->vec_batch_rows)
          .op;
    }
    std::vector<int64_t> pks;
    for (const auto& range : decision.ranges) {
      TC_ASSIGN_OR_RETURN(std::vector<int64_t> hits,
                          ctx.partition->SecondaryRangeScan(*ctx.view, range.first,
                                                            range.second));
      pks.insert(pks.end(), hits.begin(), hits.end());
    }
    std::sort(pks.begin(), pks.end());
    pks.erase(std::unique(pks.begin(), pks.end()), pks.end());
    // The whole conjunction rides as residual: the indexed term passes by
    // construction, the others must still be checked, and index entries can
    // be stale towards the primary (delete handling aside).
    return MakeVecLookup(ctx, std::move(pks), std::move(spec),
                         ctx.options->pushdown_scan_predicates,
                         ctx.options->vec_batch_rows)
        .op;
  };

  TC_ASSIGN_OR_RETURN(QueryStats stats,
                      RunPartitionedBatches(dataset, options, factory, make_sink));
  stats.plan = AccessPathName(decision.path);
  stats.plan_selectivity = decision.selectivity;
  if (decision_out != nullptr) *decision_out = decision;
  return stats;
}

}  // namespace tc
