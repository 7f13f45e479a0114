// The paper's evaluation queries (Appendix A), expressed against the plan
// primitives in operators.h/executor.h. Each function runs the same logical
// plan the paper describes, honoring QueryOptions::consolidate_field_access
// (the §3.4.2 rewrite and its Figure 23 ablation — consolidation + pushdown on
// vector-based records, filter-first delayed access otherwise) and
// QueryOptions::has_nonlocal_exchange (schema broadcast, §3.4.1).
//
// Twitter (A.1):  Q1 COUNT(*)            Q2 GROUP/ORDER by avg tweet length
//                 Q3 EXISTS hashtag      Q4 SELECT * ORDER BY timestamp
// WoS (A.2):      Q1 COUNT(*)            Q2 top subjects (UNNEST + filter)
//                 Q3 USA co-publications Q4 top country pairs
// Sensors (A.3):  Q1 COUNT readings      Q2 MIN/MAX reading
//                 Q3 top sensors by avg  Q4 Q3 within a selective time window
#ifndef TC_QUERY_PAPER_QUERIES_H_
#define TC_QUERY_PAPER_QUERIES_H_

#include <string>

#include "query/executor.h"

namespace tc {

struct PaperQueryResult {
  QueryStats stats;
  std::string summary;   // human-readable result (top-k lists, counts)
  uint64_t result_hash;  // for cross-configuration equivalence checks
};

Result<PaperQueryResult> TwitterQ1(Dataset* ds, const QueryOptions& opt);
Result<PaperQueryResult> TwitterQ2(Dataset* ds, const QueryOptions& opt);
Result<PaperQueryResult> TwitterQ3(Dataset* ds, const QueryOptions& opt);
Result<PaperQueryResult> TwitterQ4(Dataset* ds, const QueryOptions& opt);

Result<PaperQueryResult> WosQ1(Dataset* ds, const QueryOptions& opt);
Result<PaperQueryResult> WosQ2(Dataset* ds, const QueryOptions& opt);
Result<PaperQueryResult> WosQ3(Dataset* ds, const QueryOptions& opt);
Result<PaperQueryResult> WosQ4(Dataset* ds, const QueryOptions& opt);

Result<PaperQueryResult> SensorsQ1(Dataset* ds, const QueryOptions& opt);
Result<PaperQueryResult> SensorsQ2(Dataset* ds, const QueryOptions& opt);
Result<PaperQueryResult> SensorsQ3(Dataset* ds, const QueryOptions& opt);
Result<PaperQueryResult> SensorsQ4(Dataset* ds, const QueryOptions& opt);

/// Dispatch by dataset name ("twitter"/"wos"/"sensors") and 1-based index.
Result<PaperQueryResult> RunPaperQuery(const std::string& dataset, int q,
                                       Dataset* ds, const QueryOptions& opt);

/// Cross-dataset join: tweets-per-country via users ⋈ tweets on user id
/// (users build side, tweets probe side; see query/vec/hash_join.h).
Result<PaperQueryResult> TwitterJoinTopCountries(Dataset* users,
                                                 Dataset* tweets,
                                                 const QueryOptions& opt);

/// COUNT(*) over a timestamp_ms window, access path chosen by the cost-based
/// planner (query/planner.h); the decision is recorded in stats.plan.
Result<PaperQueryResult> TwitterWindowCount(Dataset* ds, int64_t lo, int64_t hi,
                                            const QueryOptions& opt);

/// The time window used by SensorsQ4 (matches the generator's report_time
/// range so selectivity is ~0.1%).
struct SensorsQ4Window {
  int64_t lo;
  int64_t hi;
};
SensorsQ4Window DefaultSensorsQ4Window();

}  // namespace tc

#endif  // TC_QUERY_PAPER_QUERIES_H_
