// Field-name matching shared by the three walks over packed vectors:
// GetValuesVector (field_access.cpp), ScanPredicateMatcher::MatchVector
// (scan_predicate.cpp) and the vectorized scan's VecPathExtractor
// (vec/vec_operator.cpp). Each object field a walk visits under an active
// path is compared against the path steps without copying its name:
//   - compacted fields carry a FieldNameID (paper §3.2.1) and compare by
//     integer against the step names' IDs, resolved once per (paths, schema
//     snapshot) with FieldNameDictionary::Lookup;
//   - declared fields (the dataset type's index) and uncompacted fields
//     (inline names) compare as string_views.
// A step name the dictionary has never assigned resolves to ID 0, which no
// compacted field carries, so such a path reads as missing on compacted
// records instead of failing.
#ifndef TC_QUERY_FIELD_MATCH_H_
#define TC_QUERY_FIELD_MATCH_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "format/vector_format.h"
#include "schema/schema_tree.h"

namespace tc {

/// The name slot of one object-scope walker item, resolved without a copy.
struct ItemFieldName {
  uint32_t id = 0;         // FieldNameID of a compacted field, else 0
  std::string_view text;   // declared or inline name (empty when id != 0)
};

class PathFieldMatcher {
 public:
  /// Resolves every field step of the `n` paths `path_at(0..n-1)` (each a
  /// FieldPath) to its FieldNameID in `schema`'s dictionary. `schema` may be
  /// null (uncompacted records only) and must outlive the matcher's use.
  template <typename PathAt>
  void Bind(size_t n, PathAt&& path_at, const Schema* schema) {
    schema_ = schema;
    ids_.clear();
    offsets_.clear();
    for (size_t p = 0; p < n; ++p) {
      offsets_.push_back(ids_.size());
      for (const PathStep& st : path_at(p).steps) {
        uint32_t id = FieldNameDictionary::kInvalidId;
        if (st.kind == PathStep::kField && schema != nullptr) {
          id = schema->dict().Lookup(st.name);
        }
        ids_.push_back(id);
      }
    }
  }

  /// Resolves item `it` of an object scope whose declared type is
  /// `scope_decl`. Corruption for a declared index without a matching
  /// descriptor and for a FieldNameID the schema dictionary does not hold.
  Status Resolve(const VectorRecordWalker::Item& it,
                 const TypeDescriptor* scope_decl, ItemFieldName* out) const {
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

  /// Whether `st`, step `step` of bound path `path`, names the item.
  bool Matches(const ItemFieldName& name, size_t path, size_t step,
               const PathStep& st) const {
    if (st.kind != PathStep::kField) return false;
    if (name.id != 0) return ids_[offsets_[path] + step] == name.id;
    return name.text == st.name;
  }

  /// The item's full name, for walks that materialize subtrees.
  std::string_view Text(const ItemFieldName& name) const {
    return name.id != 0 ? std::string_view(schema_->dict().NameOf(name.id))
                        : name.text;
  }

 private:
  const Schema* schema_ = nullptr;
  std::vector<uint32_t> ids_;     // one per step of every path, flattened
  std::vector<size_t> offsets_;   // path -> its first step in ids_
};

}  // namespace tc

#endif  // TC_QUERY_FIELD_MATCH_H_
