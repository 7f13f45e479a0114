// The one walk over a vector-based record's packed vectors that serves a set
// of field paths. The paper's consolidated getValues (§3.4.2, Figure 22) is a
// single linear pass over the record's vectors, so a value's access cost
// grows with its position in them. Three callers share this walk, and each
// keeps only its terminal handling, supplied as compile-time hooks:
//   - GetValuesVector (field_access.cpp) materialises the matched values,
//     nested subtrees included;
//   - the vectorized scan's VecPathExtractor (vec/vec_operator.cpp) collects
//     the matched scalar items for typed columns;
//   - ScanPredicateMatcher (scan_predicate.cpp) compares the matched leaves
//     in place and stops as soon as the conjunction is decided.
// The walk owns everything else: the root-object check, the pooled scope
// stack with its active paths, step matching, declared-type propagation, and
// the Corruption errors for a broken scope structure. A structural change
// (a new step kind, a new run fast path) goes here, once.
//
// Step matching:
//   - a field step matches an object field by name. Compacted fields carry a
//     FieldNameID (paper §3.2.1) and compare by integer against the step
//     names' IDs, resolved once per Bind with FieldNameDictionary::Lookup;
//     declared fields (the dataset type's index) and uncompacted fields
//     (inline names) compare as string_views, without a copy. A step name
//     the dictionary never assigned resolves to ID 0, which no compacted
//     field carries, so the path reads as missing instead of failing;
//   - a field step matches only the FIRST field of its name in an object,
//     and an [i] step only item i of a collection; both retire from the
//     scope once they match. Records that break the unique-field-name
//     contract therefore read like the decoded record's FindField, and an
//     exact path (no [*]) reaches its terminal at most once;
//   - [*] matches every item of a collection;
//   - a field step over a collection, or an [i]/[*] step over an object,
//     matches nothing.
#ifndef TC_QUERY_PATH_WALK_H_
#define TC_QUERY_PATH_WALK_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "format/adm_format.h"
#include "format/vector_format.h"
#include "schema/schema_tree.h"

namespace tc {

class PackedPathWalk {
 public:
  using Item = VectorRecordWalker::Item;

  /// One path still being matched: which bound path, and which of its steps
  /// the current scope's children are compared against.
  struct Active {
    size_t path;
    size_t step;
  };

  /// Binds the `n` paths `path_at(0..n-1)` (each a std::vector<PathStep>)
  /// and resolves their field steps to FieldNameIDs in `schema`'s
  /// dictionary. The steps and `schema` (null: uncompacted records only)
  /// must outlive every Walk until the next Bind. Empty paths never match.
  template <typename PathAt>
  void Bind(size_t n, PathAt&& path_at, const Schema* schema) {
    schema_ = schema;
    paths_.clear();
    ids_.clear();
    for (size_t p = 0; p < n; ++p) {
      const std::vector<PathStep>& steps = path_at(p);
      paths_.push_back({steps.data(), steps.size(), ids_.size()});
      for (const PathStep& st : steps) {
        uint32_t id = FieldNameDictionary::kInvalidId;
        if (st.kind == PathStep::kField && schema != nullptr) {
          id = schema->dict().Lookup(st.name);
        }
        ids_.push_back(id);
      }
    }
  }

  /// Walks one record against the bound paths, calling `hooks` (see
  /// PathWalkHooks). Returns OK when the record ends, when hooks->Stop()
  /// holds before an item, or when a terminal hook asks to stop.
  template <typename Hooks>
  Status Walk(const VectorRecordView& view, const DatasetType& type, Hooks* hooks);

  /// For run hooks (PathWalkHooks::TryRun): when every active path of the
  /// current collection scope is `a[*].b` — [*] plus one terminal field
  /// step — takes a shape run from `walker` (VectorRecordWalker::TryShapeRun)
  /// into `*run` and calls `fn(path, field)` for each active path whose field
  /// step matches a template field (the first of its name, as in an object
  /// scope) until `fn` returns true. Returns the run length; 0 (nothing
  /// called) when there is no run.
  template <typename Fn>
  size_t TakeShapeRun(VectorRecordWalker* walker, const std::vector<Active>& actives,
                      VectorRecordWalker::ShapeRun* run, Fn&& fn) const {
    for (const Active& a : actives) {
      const BoundPath& path = paths_[a.path];
      if (a.step + 2 != path.size || path.steps[a.step].kind != PathStep::kWildcard ||
          path.steps[a.step + 1].kind != PathStep::kField) {
        return 0;
      }
    }
    const size_t n = walker->TryShapeRun(run);
    if (n == 0) return 0;
    // The template item went through the walk with at least these actives,
    // so every name resolved here resolved there.
    const TypeDescriptor* item_decl = scopes_[depth_ - 1].decl;
    for (const Active& a : actives) {
      const Active field_step{a.path, a.step + 1};
      const PathStep& st = paths_[a.path].steps[field_step.step];
      for (size_t f = 0; f < run->field_count; ++f) {
        const VectorRecordWalker::ShapeField& field = run->fields[f];
        Item it;
        it.declared = field.declared;
        if (field.declared) {
          it.declared_index = field.name;
        } else {
          it.name_id = field.name;
        }
        FieldName name;
        if (!ResolveName(it, item_decl, &name).ok()) break;
        if (FieldStepMatches(field_step, st, name)) {
          if (fn(a.path, field)) return n;
          break;
        }
      }
    }
    return n;
  }

 private:
  struct BoundPath {
    const PathStep* steps;
    size_t size;
    size_t first_id;  // index of steps[0]'s FieldNameID in ids_
  };
  struct Scope {
    bool is_object = false;
    size_t item_index = 0;                 // running index for collection scopes
    const TypeDescriptor* decl = nullptr;  // object: own type; collection: item type
    std::vector<Active> actives;           // capacity survives reuse
  };
  /// The name slot of one object-scope item, resolved without a copy.
  struct FieldName {
    uint32_t id = 0;        // FieldNameID of a compacted field, else 0
    std::string_view text;  // declared or inline name (empty when id != 0)
  };

  /// Pushes a cleared scope; references into scopes_ may dangle afterwards.
  Scope& PushScope(bool is_object, const TypeDescriptor* decl) {
    if (depth_ == scopes_.size()) scopes_.emplace_back();
    Scope& s = scopes_[depth_++];
    s.is_object = is_object;
    s.item_index = 0;
    s.decl = decl;
    s.actives.clear();
    return s;
  }

  /// Resolves the name of item `it` of an object scope whose declared type
  /// is `scope_decl`. Corruption for a declared index without a matching
  /// descriptor and for a FieldNameID the schema dictionary does not hold.
  Status ResolveName(const Item& it, const TypeDescriptor* scope_decl,
                     FieldName* out) const {
    out->id = 0;
    if (it.declared) {
      if (scope_decl == nullptr || it.declared_index >= scope_decl->field_count()) {
        return Status::Corruption("vb: declared index without matching descriptor");
      }
      out->text = scope_decl->field_name(it.declared_index);
      return Status::OK();
    }
    if (!it.name.empty() || it.name_id == 0) {
      out->text = it.name;
      return Status::OK();
    }
    if (schema_ == nullptr || !schema_->dict().Contains(it.name_id)) {
      return Status::Corruption("vb: FieldNameID not found in schema dictionary");
    }
    out->id = it.name_id;
    out->text = std::string_view();
    return Status::OK();
  }

  /// Whether step `a.step` of path `a.path` matches the item: by `name` in
  /// an object scope, by position in a collection scope.
  bool StepMatches(const Scope& scope, const Active& a, const PathStep& st,
                   const FieldName& name) const {
    if (scope.is_object) return FieldStepMatches(a, st, name);
    return st.kind == PathStep::kWildcard ||
           (st.kind == PathStep::kIndex && st.index == scope.item_index);
  }
  bool FieldStepMatches(const Active& a, const PathStep& st,
                        const FieldName& name) const {
    if (st.kind != PathStep::kField) return false;
    if (name.id != 0) return ids_[paths_[a.path].first_id + a.step] == name.id;
    return name.text == st.name;
  }

  std::string_view NameText(const FieldName& name) const {
    return name.id != 0 ? std::string_view(schema_->dict().NameOf(name.id))
                        : name.text;
  }

  const Schema* schema_ = nullptr;
  std::vector<BoundPath> paths_;
  std::vector<uint32_t> ids_;  // one per step of every path, flattened
  std::vector<Scope> scopes_;  // pooled stack; [0, depth_) is live
  size_t depth_ = 0;
  std::vector<Active> child_actives_;  // per-item scratch, swapped into scopes
};

/// The hooks a caller of PackedPathWalk::Walk supplies, with no-op defaults:
/// a caller's hooks derive from this struct and hide what they use. The walk
/// calls them statically, so the per-item loop has no indirect call. Depths
/// index the scope stack: the root object's fields live in scope 0.
struct PathWalkHooks {
  using Item = VectorRecordWalker::Item;

  /// The early-stop test, checked before every item.
  bool Stop() const { return false; }
  /// Path `path` reached its last step at item `it`. True stops the walk.
  bool Terminal(size_t /*path*/, const Item& /*it*/) { return false; }
  /// The collection-scope run hook: called before each item of a collection
  /// scope that has active paths; it may consume a run of items from
  /// `walker` and returns how many. Two runs exist: a run of same-tag
  /// scalars (VectorRecordWalker::TryFixedRun) for paths whose [*] is the
  /// last step, and a shape run of same-shape objects for `a[*].b` paths
  /// (PackedPathWalk::TakeShapeRun).
  size_t TryRun(VectorRecordWalker* /*walker*/,
                const std::vector<PackedPathWalk::Active>& /*actives*/) {
    return 0;
  }
  /// The name-needed test: whether scope `depth` copies its items into
  /// materialised subtrees, so object fields need names even where no path
  /// is active. When true, Materialise gets every item of the scope.
  bool Materialising(size_t /*depth*/) const { return false; }
  void Materialise(size_t /*depth*/, bool /*in_object*/, const Item& /*it*/,
                   std::string_view /*name*/) {}
  /// Scope `depth` opened for the nested item just visited / closed.
  void Enter(size_t /*depth*/) {}
  void Leave(size_t /*depth*/) {}
};

template <typename Hooks>
Status PackedPathWalk::Walk(const VectorRecordView& view, const DatasetType& type,
                            Hooks* hooks) {
  TC_RETURN_IF_ERROR(view.Validate());
  VectorRecordWalker walker(view);
  Item it;
  bool done = false;
  TC_RETURN_IF_ERROR(walker.Next(&it, &done));
  if (done || it.tag != AdmTag::kObject) {
    return Status::Corruption("vb: record root is not an object");
  }

  depth_ = 0;
  {
    Scope& root = PushScope(/*is_object=*/true, type.root.get());
    for (size_t p = 0; p < paths_.size(); ++p) {
      if (paths_[p].size != 0) root.actives.push_back({p, 0});
    }
  }
  while (!hooks->Stop()) {
    {
      Scope& scope = scopes_[depth_ - 1];
      if (!scope.is_object && !scope.actives.empty()) {
        size_t run = hooks->TryRun(&walker, scope.actives);
        if (run > 0) {
          scope.item_index += run;
          continue;
        }
      }
    }
    TC_RETURN_IF_ERROR(walker.Next(&it, &done));
    if (done) break;
    if (it.tag == AdmTag::kEndNest) {
      hooks->Leave(depth_ - 1);
      if (--depth_ == 0) return Status::Corruption("vb: scope underflow");
      if (!scopes_[depth_ - 1].is_object) ++scopes_[depth_ - 1].item_index;
      continue;
    }
    const size_t depth = depth_ - 1;
    Scope& scope = scopes_[depth];
    const bool materialising = hooks->Materialising(depth);
    FieldName name;
    if (scope.is_object && (materialising || !scope.actives.empty())) {
      TC_RETURN_IF_ERROR(ResolveName(it, scope.decl, &name));
    }

    // Advance or complete the active paths; matched field and [i] steps
    // retire (first occurrence wins), [*] stays for the next items.
    child_actives_.clear();
    for (size_t i = 0; i < scope.actives.size();) {
      const Active a = scope.actives[i];
      const BoundPath& path = paths_[a.path];
      const PathStep& st = path.steps[a.step];
      if (!StepMatches(scope, a, st, name)) {
        ++i;
        continue;
      }
      if (st.kind == PathStep::kWildcard) {
        ++i;
      } else {
        scope.actives.erase(scope.actives.begin() + static_cast<ptrdiff_t>(i));
      }
      if (a.step + 1 < path.size) {
        child_actives_.push_back({a.path, a.step + 1});
      } else if (hooks->Terminal(a.path, it)) {
        return Status::OK();
      }
    }
    if (materialising) {
      hooks->Materialise(depth, scope.is_object, it,
                         scope.is_object ? NameText(name) : std::string_view());
    }

    if (IsNested(it.tag)) {
      // Declared type of the item, then of its children.
      const TypeDescriptor* item_decl = scope.decl;
      if (scope.is_object) {
        item_decl = it.declared && scope.decl != nullptr &&
                            it.declared_index < scope.decl->field_count()
                        ? scope.decl->field_type(it.declared_index).get()
                        : nullptr;
      }
      const bool child_is_object = it.tag == AdmTag::kObject;
      const TypeDescriptor* child_decl =
          child_is_object || item_decl == nullptr ? item_decl
                                                  : item_decl->item_type().get();
      Scope& child = PushScope(child_is_object, child_decl);  // `scope` may dangle
      std::swap(child.actives, child_actives_);  // capacities circulate
      hooks->Enter(depth_ - 1);
    } else if (!scope.is_object) {
      ++scope.item_index;
    }
  }
  return Status::OK();
}

}  // namespace tc

#endif  // TC_QUERY_PATH_WALK_H_
