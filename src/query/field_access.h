// Field-access machinery (paper §3.4.2). The central function is GetValues —
// the consolidated multi-path accessor the paper's rewrite rule produces:
//   [$age, $name] <- getValues(emp, "age", "name")
// For vector-based records all requested paths are extracted in ONE linear
// scan of the record's vectors; disabling consolidation (the Figure 23
// ablation) performs one full scan per path. For ADM records each path
// descends through offset tables (the traditional constant/log-time access);
// BSON records, which keep no offsets, decode once per call.
// A wildcard path ("dependents[*].name") yields one flat array of every value
// it reaches, in record order, in every record format: `[]` when nothing
// matches, and the matches of nested [*] steps appended to the same list
// ("t[*][*]" over [[1, 2], [3]] is [1, 2, 3]). This is also how the
// pushdown-through-unnest optimization shrinks intermediate results (array of
// strings instead of array of objects).
#ifndef TC_QUERY_FIELD_ACCESS_H_
#define TC_QUERY_FIELD_ACCESS_H_

#include <string>
#include <vector>

#include "core/dataset.h"
#include "format/adm_format.h"
#include "format/vector_format.h"
#include "schema/schema_tree.h"

namespace tc {

/// A dotted path with optional [i] / [*] steps, e.g. "entities.hashtags[*].text".
struct FieldPath {
  std::vector<PathStep> steps;

  static FieldPath Parse(const std::string& text);
  std::string ToString() const;
  bool HasWildcard() const {
    for (const auto& s : steps) {
      if (s.kind == PathStep::kWildcard) return true;
    }
    return false;
  }
};

/// The one path semantic over a decoded value tree, which every record
/// format's GetValues answers: the value `steps[from..]` reaches (`missing`
/// when none) for an exact path, and for a path with a [*] step the flat
/// array described above. ADM records navigate from the value their offsets
/// lead to; BSON records and the tests' decoded-record oracle navigate the
/// whole record.
AdmValue NavigateAdmValue(const AdmValue& v, const std::vector<PathStep>& steps,
                          size_t from = 0);

/// Extracts `paths` from a vector-based record in a single linear walk.
/// Results align with `paths`; unmatched paths yield `missing`, wildcard paths
/// yield (possibly empty) arrays. `schema` resolves FieldNameIDs of compacted
/// records; `type` resolves declared-field indexes.
Status GetValuesVector(const VectorRecordView& view, const DatasetType& type,
                       const Schema* schema, const std::vector<FieldPath>& paths,
                       std::vector<AdmValue>* out);

/// The unconsolidated variant (Figure 23's "Inferred (un-op)"): one full
/// record walk per path.
Status GetValuesVectorUnconsolidated(const VectorRecordView& view,
                                     const DatasetType& type, const Schema* schema,
                                     const std::vector<FieldPath>& paths,
                                     std::vector<AdmValue>* out);

/// Extracts `paths` from an ADM-format record via offset navigation.
Status GetValuesAdm(const uint8_t* data, size_t size, const DatasetType& type,
                    const std::vector<FieldPath>& paths, std::vector<AdmValue>* out);

/// Mode-dispatching accessor bound to one partition's format and schema
/// snapshot. `consolidate` mirrors QueryOptions::consolidate_field_access.
class RecordAccessor {
 public:
  RecordAccessor(SchemaMode mode, const DatasetType* type, Schema schema,
                 bool consolidate)
      : mode_(mode), type_(type), schema_(std::move(schema)),
        consolidate_(consolidate) {}

  Status GetValues(std::string_view payload, const std::vector<FieldPath>& paths,
                   std::vector<AdmValue>* out) const;

  /// Whether ScanPredicateMatcher::Matches can evaluate payloads of this
  /// mode at all (everything but BSON).
  bool SupportsScanPredicate() const { return mode_ != SchemaMode::kBson; }

  const Schema& schema() const { return schema_; }
  SchemaMode mode() const { return mode_; }
  const DatasetType* type() const { return type_; }
  bool consolidate() const { return consolidate_; }

 private:
  SchemaMode mode_;
  const DatasetType* type_;
  Schema schema_;
  bool consolidate_;
};

}  // namespace tc

#endif  // TC_QUERY_FIELD_ACCESS_H_
