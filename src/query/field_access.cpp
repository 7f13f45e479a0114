#include "query/field_access.h"

#include <algorithm>
#include <cstdlib>

#include "format/bson_format.h"
#include "query/path_walk.h"

namespace tc {

// ---------------------------------------------------------------------------
// FieldPath parsing
// ---------------------------------------------------------------------------

FieldPath FieldPath::Parse(const std::string& text) {
  FieldPath p;
  size_t i = 0;
  std::string current;
  auto flush_field = [&] {
    if (!current.empty()) {
      p.steps.push_back(PathStep::Field(current));
      current.clear();
    }
  };
  while (i < text.size()) {
    char c = text[i];
    if (c == '.') {
      flush_field();
      ++i;
    } else if (c == '[') {
      flush_field();
      size_t close = text.find(']', i);
      TC_CHECK(close != std::string::npos);
      std::string inside = text.substr(i + 1, close - i - 1);
      if (inside == "*") {
        p.steps.push_back(PathStep::Wildcard());
      } else {
        p.steps.push_back(PathStep::Index(std::strtoull(inside.c_str(), nullptr, 10)));
      }
      i = close + 1;
    } else {
      current.push_back(c);
      ++i;
    }
  }
  flush_field();
  return p;
}

std::string FieldPath::ToString() const {
  std::string s;
  for (const auto& st : steps) {
    switch (st.kind) {
      case PathStep::kField:
        if (!s.empty()) s += ".";
        s += st.name;
        break;
      case PathStep::kIndex:
        s += "[" + std::to_string(st.index) + "]";
        break;
      case PathStep::kWildcard:
        s += "[*]";
        break;
    }
  }
  return s;
}

namespace {

/// Appends to `list`, in record order, every value `steps[from..]` reaches
/// from `v`; a [*] ranges over the items of a collection and over nothing
/// else.
void AppendMatches(const AdmValue& v, const std::vector<PathStep>& steps,
                   size_t from, AdmValue* list) {
  if (from == steps.size()) {
    list->Append(v);
    return;
  }
  const PathStep& st = steps[from];
  if (st.kind == PathStep::kWildcard) {
    for (size_t k = 0; v.is_collection() && k < v.size(); ++k) {
      AppendMatches(v.item(k), steps, from + 1, list);
    }
    return;
  }
  const AdmValue* next = nullptr;
  if (st.kind == PathStep::kField) {
    if (v.is_object()) next = v.FindField(st.name);
  } else if (v.is_collection() && st.index < v.size()) {
    next = &v.item(st.index);
  }
  if (next != nullptr) AppendMatches(*next, steps, from + 1, list);
}

}  // namespace

AdmValue NavigateAdmValue(const AdmValue& v, const std::vector<PathStep>& steps,
                          size_t from) {
  AdmValue list = AdmValue::Array();
  AppendMatches(v, steps, from, &list);
  if (std::any_of(steps.begin() + static_cast<ptrdiff_t>(from), steps.end(),
                  [](const PathStep& st) { return st.kind == PathStep::kWildcard; })) {
    return list;
  }
  return list.size() == 0 ? AdmValue::Missing() : std::move(list.item(0));
}

// ---------------------------------------------------------------------------
// Vector-based multi-path extraction: one PackedPathWalk (query/path_walk.h)
// serving all paths, with hooks that materialise what the paths reach.
// ---------------------------------------------------------------------------

namespace {

class MaterialiseHooks : public PathWalkHooks {
 public:
  MaterialiseHooks(const std::vector<FieldPath>& paths, std::vector<AdmValue>* out)
      : out_(out) {
    for (const auto& p : paths) {
      wildcard_.push_back(p.HasWildcard() ? 1 : 0);
      if (wildcard_.back() != 0) {
        any_wildcard_ = true;
      } else if (!p.steps.empty()) {
        ++unresolved_;
      }
    }
  }

  // Exact paths resolve at most once, so the walk stops as soon as every one
  // has been extracted and no subtree is still being materialised. This is
  // what makes access cost proportional to the value's *position* in the
  // record (paper §4.4.4, Figure 22) rather than always linear in its size.
  bool Stop() const { return !any_wildcard_ && unresolved_ == 0 && open_ == 0; }

  bool Terminal(size_t path, const Item& it) {
    AdmValue* target;
    if (wildcard_[path] != 0) {
      target = &(*out_)[path].Append(AdmValue::Missing());
    } else {
      target = &(*out_)[path];
      --unresolved_;
    }
    Place(it, target);
    return false;
  }

  bool Materialising(size_t depth) const {
    return depth < builders_.size() && !builders_[depth].empty();
  }

  // Copies the item into every subtree under construction in its scope.
  void Materialise(size_t depth, bool in_object, const Item& it,
                   std::string_view name) {
    for (AdmValue* b : builders_[depth]) {
      Place(it, in_object ? &b->AddField(std::string(name), AdmValue())
                          : &b->Append(AdmValue()));
    }
  }

  void Enter(size_t depth) {
    if (builders_.size() <= depth) builders_.resize(depth + 1);
    builders_[depth].clear();
    std::swap(builders_[depth], pending_);
    open_ += builders_[depth].size();
  }

  void Leave(size_t depth) {
    if (depth < builders_.size()) {
      open_ -= builders_[depth].size();
      builders_[depth].clear();
    }
  }

 private:
  // Scalars decode in place; a nested value starts empty and becomes a
  // builder of the scope its item opens next.
  void Place(const Item& it, AdmValue* slot) {
    if (IsNested(it.tag)) {
      *slot = AdmValue(it.tag);
      pending_.push_back(slot);
    } else {
      *slot = DecodeVectorScalarItem(it);
    }
  }

  std::vector<AdmValue>* out_;
  std::vector<uint8_t> wildcard_;
  bool any_wildcard_ = false;
  size_t unresolved_ = 0;
  size_t open_ = 0;                               // builders in open scopes
  std::vector<std::vector<AdmValue*>> builders_;  // per scope depth
  std::vector<AdmValue*> pending_;  // builders of the scope the item opens
};

}  // namespace

Status GetValuesVector(const VectorRecordView& view, const DatasetType& type,
                       const Schema* schema, const std::vector<FieldPath>& paths,
                       std::vector<AdmValue>* out) {
  out->clear();
  out->reserve(paths.size());
  for (const auto& p : paths) {
    out->push_back(p.HasWildcard() ? AdmValue::Array() : AdmValue::Missing());
  }
  PackedPathWalk walk;
  walk.Bind(
      paths.size(),
      [&paths](size_t p) -> const std::vector<PathStep>& { return paths[p].steps; },
      schema);
  MaterialiseHooks hooks(paths, out);
  return walk.Walk(view, type, &hooks);
}

Status GetValuesVectorUnconsolidated(const VectorRecordView& view,
                                     const DatasetType& type, const Schema* schema,
                                     const std::vector<FieldPath>& paths,
                                     std::vector<AdmValue>* out) {
  out->clear();
  out->reserve(paths.size());
  std::vector<FieldPath> one(1);
  std::vector<AdmValue> sub;
  for (const auto& p : paths) {
    one[0] = p;
    TC_RETURN_IF_ERROR(GetValuesVector(view, type, schema, one, &sub));
    out->push_back(std::move(sub[0]));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ADM offset-based extraction, and BSON over the decoded record
// ---------------------------------------------------------------------------

Status GetValuesAdm(const uint8_t* data, size_t size, const DatasetType& type,
                    const std::vector<FieldPath>& paths, std::vector<AdmValue>* out) {
  out->clear();
  out->reserve(paths.size());
  std::vector<PathStep> prefix;
  for (const auto& p : paths) {
    // Offsets lead to the value the steps before the first [*] reach; the
    // rest navigates that value decoded.
    size_t wc = 0;
    while (wc < p.steps.size() && p.steps[wc].kind != PathStep::kWildcard) ++wc;
    prefix.assign(p.steps.begin(), p.steps.begin() + static_cast<ptrdiff_t>(wc));
    AdmValue at;
    TC_RETURN_IF_ERROR(AdmGetPath(data, size, type, prefix, &at));
    out->push_back(wc == p.steps.size() ? std::move(at)
                                        : NavigateAdmValue(at, p.steps, wc));
  }
  return Status::OK();
}

namespace {

/// BSON keeps no offsets: the record decodes once, and every path navigates
/// the decoded tree.
Status GetValuesBson(const uint8_t* data, size_t size,
                     const std::vector<FieldPath>& paths, std::vector<AdmValue>* out) {
  AdmValue record;
  TC_RETURN_IF_ERROR(DecodeBsonRecord(data, size, &record));
  out->clear();
  out->reserve(paths.size());
  for (const auto& p : paths) out->push_back(NavigateAdmValue(record, p.steps));
  return Status::OK();
}

}  // namespace

Status RecordAccessor::GetValues(std::string_view payload,
                                 const std::vector<FieldPath>& paths,
                                 std::vector<AdmValue>* out) const {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(payload.data());
  switch (mode_) {
    case SchemaMode::kOpen:
    case SchemaMode::kClosed:
      return GetValuesAdm(data, payload.size(), *type_, paths, out);
    case SchemaMode::kInferred:
    case SchemaMode::kSchemalessVB: {
      VectorRecordView view(data, payload.size());
      return consolidate_
                 ? GetValuesVector(view, *type_, &schema_, paths, out)
                 : GetValuesVectorUnconsolidated(view, *type_, &schema_, paths, out);
    }
    case SchemaMode::kBson:
      return GetValuesBson(data, payload.size(), paths, out);
  }
  return Status::Internal("bad mode");
}

}  // namespace tc
