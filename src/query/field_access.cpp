#include "query/field_access.h"

#include <cstdlib>

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

AdmValue NavigateAdmValue(const AdmValue& v, const std::vector<PathStep>& steps,
                          size_t from) {
  const AdmValue* cur = &v;
  for (size_t i = from; i < steps.size(); ++i) {
    const PathStep& st = steps[i];
    switch (st.kind) {
      case PathStep::kField: {
        if (!cur->is_object()) return AdmValue::Missing();
        const AdmValue* next = cur->FindField(st.name);
        if (next == nullptr) return AdmValue::Missing();
        cur = next;
        break;
      }
      case PathStep::kIndex:
        if (!cur->is_collection() || st.index >= cur->size()) {
          return AdmValue::Missing();
        }
        cur = &cur->item(st.index);
        break;
      case PathStep::kWildcard: {
        if (!cur->is_collection()) return AdmValue::Missing();
        AdmValue out = AdmValue::Array();
        for (size_t k = 0; k < cur->size(); ++k) {
          AdmValue sub = NavigateAdmValue(cur->item(k), steps, i + 1);
          if (sub.tag() != AdmTag::kMissing) out.Append(std::move(sub));
        }
        return out;
      }
    }
  }
  return *cur;
}

// ---------------------------------------------------------------------------
// Vector-based multi-path extraction: one linear walk serving all paths.
// Two walks mirror this skeleton: ScanPredicateMatcher (scan_predicate.cpp),
// with in-place compares instead of materialization, and the vectorized
// scan's VecPathExtractor (vec/vec_operator.cpp), which collects scalar items
// for typed columns. Keep structural changes to all three in sync (the
// scan-predicate equivalence tests and VecFastPath.ExtractorMatchesGetValuesVector
// pin them to this one).
// ---------------------------------------------------------------------------

namespace {

struct Active {
  size_t path;  // index into paths
  size_t step;  // the step this scope's children are matched against
};

struct WalkScope {
  bool is_object = false;
  size_t item_index = 0;                 // running index for collection scopes
  const TypeDescriptor* decl = nullptr;  // object: own type; collection: item type
  std::vector<Active> actives;
  std::vector<AdmValue*> builders;       // subtree materialization targets
};

}  // namespace

Status GetValuesVector(const VectorRecordView& view, const DatasetType& type,
                       const Schema* schema, const std::vector<FieldPath>& paths,
                       std::vector<AdmValue>* out) {
  TC_RETURN_IF_ERROR(view.Validate());
  out->clear();
  out->reserve(paths.size());
  for (const auto& p : paths) {
    out->push_back(p.HasWildcard() ? AdmValue::Array() : AdmValue::Missing());
  }

  VectorRecordWalker walker(view);
  VectorRecordWalker::Item it;
  bool done = false;
  TC_RETURN_IF_ERROR(walker.Next(&it, &done));
  if (done || it.tag != AdmTag::kObject) {
    return Status::Corruption("vb: record root is not an object");
  }

  // Early-termination bookkeeping: paths without wildcards resolve at most
  // once, so the walk can stop as soon as every such path has been extracted
  // and no subtree is still being materialized. This is what makes access
  // cost proportional to the value's *position* in the record (paper §4.4.4,
  // Figure 22) rather than always linear in the record size.
  size_t unresolved = 0;
  bool any_wildcard = false;
  for (const auto& p : paths) {
    if (p.HasWildcard()) {
      any_wildcard = true;
    } else if (!p.steps.empty()) {
      ++unresolved;
    }
  }
  size_t open_builders = 0;

  std::vector<WalkScope> scopes;
  scopes.push_back({});
  {
    WalkScope& root = scopes.back();
    root.is_object = true;
    root.decl = type.root.get();
    for (size_t p = 0; p < paths.size(); ++p) {
      if (!paths[p].steps.empty()) root.actives.push_back({p, 0});
    }
  }

  std::string name;
  std::vector<AdmValue*> child_builders;
  while (true) {
    if (!any_wildcard && unresolved == 0 && open_builders == 0) break;
    TC_RETURN_IF_ERROR(walker.Next(&it, &done));
    if (done) break;
    if (it.tag == AdmTag::kEndNest) {
      open_builders -= scopes.back().builders.size();
      scopes.pop_back();
      if (scopes.empty()) return Status::Corruption("vb: scope underflow");
      if (!scopes.back().is_object) ++scopes.back().item_index;
      continue;
    }
    WalkScope& scope = scopes.back();
    bool need_name = scope.is_object &&
                     (!scope.actives.empty() || !scope.builders.empty());
    name.clear();
    if (need_name) {
      TC_RETURN_IF_ERROR(ResolveVectorFieldName(it, scope.decl, schema, &name));
    }

    // Which paths does this item advance or complete?
    std::vector<Active> child_actives;
    std::vector<AdmValue*> extraction_targets;
    for (const Active& a : scope.actives) {
      const PathStep& st = paths[a.path].steps[a.step];
      bool match = false;
      if (scope.is_object) {
        match = st.kind == PathStep::kField && st.name == name;
      } else if (st.kind == PathStep::kWildcard) {
        match = true;
      } else if (st.kind == PathStep::kIndex) {
        match = st.index == scope.item_index;
      }
      if (!match) continue;
      if (a.step + 1 == paths[a.path].steps.size()) {
        AdmValue* target;
        if (paths[a.path].HasWildcard()) {
          target = &(*out)[a.path].Append(AdmValue::Missing());
        } else {
          target = &(*out)[a.path];
          if (unresolved > 0) --unresolved;
        }
        extraction_targets.push_back(target);
      } else {
        child_actives.push_back({a.path, a.step + 1});
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

    // Materialize into parent builders and extraction targets.
    child_builders.clear();
    AdmValue scalar;
    bool nested = IsNested(it.tag);
    if (!nested) scalar = DecodeVectorScalarItem(it);
    for (AdmValue* b : scope.builders) {
      AdmValue placed = nested ? AdmValue(it.tag) : scalar;
      AdmValue* slot = scope.is_object ? &b->AddField(name, std::move(placed))
                                       : &b->Append(std::move(placed));
      if (nested) child_builders.push_back(slot);
    }
    for (AdmValue* t : extraction_targets) {
      *t = nested ? AdmValue(it.tag) : scalar;
      if (nested) child_builders.push_back(t);
    }

    if (nested) {
      WalkScope child;
      child.is_object = it.tag == AdmTag::kObject;
      child.decl = child.is_object
                       ? item_decl
                       : (item_decl != nullptr ? item_decl->item_type().get()
                                               : nullptr);
      child.actives = std::move(child_actives);
      child.builders = child_builders;
      open_builders += child.builders.size();
      scopes.push_back(std::move(child));
    } else if (!scope.is_object) {
      ++scope.item_index;
    }
  }
  return Status::OK();
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
// ADM offset-based extraction
// ---------------------------------------------------------------------------

Status GetValuesAdm(const uint8_t* data, size_t size, const DatasetType& type,
                    const std::vector<FieldPath>& paths, std::vector<AdmValue>* out) {
  out->clear();
  out->reserve(paths.size());
  for (const auto& p : paths) {
    // Split at the first wildcard; the prefix descends via offsets, the
    // suffix navigates each decoded item.
    size_t wc = p.steps.size();
    for (size_t i = 0; i < p.steps.size(); ++i) {
      if (p.steps[i].kind == PathStep::kWildcard) {
        wc = i;
        break;
      }
    }
    std::vector<PathStep> prefix(p.steps.begin(),
                                 p.steps.begin() + static_cast<ptrdiff_t>(wc));
    AdmValue at;
    TC_RETURN_IF_ERROR(AdmGetPath(data, size, type, prefix, &at));
    if (wc == p.steps.size()) {
      out->push_back(std::move(at));
    } else if (!at.is_collection()) {
      out->push_back(AdmValue::Array());  // [*] over a non-array -> empty
    } else {
      AdmValue arr = AdmValue::Array();
      for (size_t k = 0; k < at.size(); ++k) {
        AdmValue sub = NavigateAdmValue(at.item(k), p.steps, wc + 1);
        if (sub.tag() != AdmTag::kMissing) arr.Append(std::move(sub));
      }
      out->push_back(std::move(arr));
    }
  }
  return Status::OK();
}

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
      return Status::NotSupported("field access over BSON records");
  }
  return Status::Internal("bad mode");
}

}  // namespace tc
