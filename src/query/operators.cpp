#include "query/operators.h"

#include <algorithm>

#include "adm/printer.h"

namespace tc {

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
