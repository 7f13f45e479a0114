#include "query/operators.h"

#include <algorithm>

#include "adm/printer.h"
#include "query/scan_predicate.h"

namespace tc {

LookupOperator::LookupOperator(DatasetPartition* partition,
                               const RecordAccessor* accessor,
                               std::vector<int64_t> pks, ScanSpec spec,
                               ScanCounters* counters,
                               const PartitionReadView* view)
    : partition_(partition), accessor_(accessor), pks_(std::move(pks)),
      spec_(std::move(spec)), counters_(counters), shared_view_(view) {}

LookupOperator::~LookupOperator() = default;

Status LookupOperator::Open() {
  pos_ = 0;
  view_ = shared_view_ != nullptr ? shared_view_->primary
                                  : partition_->primary()->AcquireView();
  if (spec_.predicate != nullptr) {
    if (!accessor_->SupportsScanPredicate()) {
      return Status::NotSupported("scan predicate on this storage format");
    }
    pred_paths_ = spec_.predicate->Paths();
    matcher_ = std::make_unique<ScanPredicateMatcher>();
  }
  return Status::OK();
}

Result<bool> LookupOperator::Next(Row* row) {
  while (pos_ < pks_.size()) {
    int64_t pk = pks_[pos_++];
    // Resolve against the pinned snapshot: every lookup of this operator
    // (and, with a shared view, the whole query) sees one LSM state.
    TC_ASSIGN_OR_RETURN(auto payload, view_->Get(BtreeKey{pk, 0}));
    if (!payload.has_value()) continue;  // deleted since indexed
    std::string_view view(reinterpret_cast<const char*>(payload->data()),
                          payload->size());
    ++counters_->rows;
    counters_->bytes += view.size();
    if (spec_.predicate != nullptr) {
      TC_ASSIGN_OR_RETURN(bool match, matcher_->Matches(*accessor_, view,
                                                        *spec_.predicate,
                                                        pred_paths_));
      if (!match) {
        ++counters_->filtered_pre_assembly;
        continue;
      }
    }
    row->partition = partition_->partition_id();
    row->cols.clear();
    if (!spec_.paths.empty()) {
      TC_RETURN_IF_ERROR(accessor_->GetValues(view, spec_.paths, &row->cols));
    }
    if (spec_.attach_record) {
      row->record = std::make_shared<Buffer>(*payload);
    } else {
      row->record.reset();
    }
    return true;
  }
  return false;
}

std::vector<std::pair<std::string, AggCell>> GroupMap::TopK(
    size_t k, const std::function<double(const AggCell&)>& score) const {
  std::vector<std::pair<std::string, AggCell>> all(groups_.begin(), groups_.end());
  std::sort(all.begin(), all.end(), [&](const auto& a, const auto& b) {
    double sa = score(a.second), sb = score(b.second);
    if (sa != sb) return sa > sb;
    return a.first < b.first;  // deterministic tie-break
  });
  if (all.size() > k) all.resize(k);
  return all;
}

std::string GroupKeyOf(const AdmValue& v) {
  if (v.tag() == AdmTag::kString) return v.string_value();
  return PrintAdm(v);
}

}  // namespace tc
