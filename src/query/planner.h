// Cost-based access-path selection (the plan picker of the executor tier):
// given a dataset's LSM shape and a scan predicate, choose per query between
//   * kFullScan     — scan everything, evaluate the predicate on the
//                     extracted column batches (the only option when the
//                     predicate cannot lower);
//   * kFilteredScan — scan with the predicate lowered below record assembly
//                     (§3.4.2-deep: non-matching rows never assemble);
//   * kIndexProbe   — resolve primary keys through the secondary index and
//                     point-look them up (§4.4.5), when a sargable range on
//                     the indexed field is estimated selective enough.
// Inputs come from live LSM metadata — component entry counts and fence keys
// (ComponentMeta), memtable sizes, index presence — plus per-term selectivity
// estimates; PlannerInputs is a plain struct so tests rig it directly. The
// chosen plan and its selectivity estimate land in QueryStats::plan /
// plan_selectivity, so every caller can see (and assert) what ran.
#ifndef TC_QUERY_PLANNER_H_
#define TC_QUERY_PLANNER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "query/executor.h"
#include "query/scan_predicate.h"

namespace tc {

/// What the cost model sees. CollectPlannerInputs fills it from a live
/// dataset; planner tests construct it directly.
struct PlannerInputs {
  /// Estimated record count: component n_entries + memtable entries, summed
  /// across partitions. Obsolete versions double-count — acceptable for
  /// costing (they are read by a scan anyway).
  uint64_t rows = 0;
  uint64_t physical_bytes = 0;
  size_t primary_components = 0;
  size_t secondary_components = 0;
  bool has_secondary = false;
  /// Secondary-key domain observed from the index components' fence keys
  /// (invalid until at least one secondary component exists — memtable-only
  /// indexes fall back to default selectivities).
  int64_t sk_min = 0;
  int64_t sk_max = 0;
  bool sk_bounds_valid = false;
  size_t partitions = 1;
  /// Whether the predicate may lower into the scan (storage mode supports it
  /// and the query enables pushdown).
  bool can_lower_predicate = true;
};

PlannerInputs CollectPlannerInputs(Dataset* dataset);

enum class AccessPath { kFullScan, kFilteredScan, kIndexProbe };
const char* AccessPathName(AccessPath p);

struct PlanDecision {
  AccessPath path = AccessPath::kFullScan;
  /// Estimated fraction of records satisfying the whole conjunction.
  double selectivity = 1.0;
  /// Costs in page-read-equivalent units; probe_cost is infinite when no
  /// sargable secondary range exists.
  double scan_cost = 0;
  double probe_cost = 0;
  /// Secondary-key ranges to probe under kIndexProbe: one merged [lo, hi]
  /// for range conjunctions, one point range per IN-list literal.
  std::vector<std::pair<int64_t, int64_t>> ranges;
};

/// Pure decision function: estimates per-term selectivities (range fractions
/// over the fence-key domain for the indexed field, fixed heuristics
/// elsewhere), extracts the sargable secondary range, and compares estimated
/// costs. `pred` may be null (always a full scan); `secondary_field` empty
/// means no index.
PlanDecision ChooseAccessPath(const PlannerInputs& inputs,
                              const ScanPredicate* pred,
                              const std::string& secondary_field);

/// Plans and runs a scan query: picks the access path for (dataset, pred),
/// builds the per-partition pipelines (index probe → LookupOperator with the
/// full predicate as residual; filtered scan → MakeVecScan with the predicate
/// pushed; full scan → MakeVecScan with a batch filter), and runs them through
/// RunPartitioned. Rows reaching the sinks carry exactly `paths` as columns
/// under every access path. The decision is recorded in QueryStats::plan /
/// plan_selectivity (and `decision_out` when given).
Result<QueryStats> RunPlannedScan(Dataset* dataset, const QueryOptions& options,
                                  const std::vector<std::string>& paths,
                                  std::shared_ptr<const ScanPredicate> pred,
                                  const SinkFactory& make_sink,
                                  PlanDecision* decision_out = nullptr);

}  // namespace tc

#endif  // TC_QUERY_PLANNER_H_
