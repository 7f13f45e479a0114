// Fuzz entry points shared by the libFuzzer binaries (TC_FUZZERS=ON, Clang),
// the standalone driver (any compiler), and the always-on corpus-replay gtest.
// Each target returns 0 and aborts (TC_CHECK) on an invariant violation, so
// the same body serves every harness.
#ifndef TC_TESTS_FUZZ_FUZZ_TARGETS_H_
#define TC_TESTS_FUZZ_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "query/scan_predicate.h"
#include "schema/schema_tree.h"
#include "schema/type_descriptor.h"

namespace tc {

/// ParseAdm over arbitrary bytes. Invariants: never crashes, and any value it
/// accepts survives a print -> reparse round trip.
int FuzzParseAdm(const uint8_t* data, size_t size);

/// DeserializeSchema over arbitrary bytes. Invariants: never crashes, never
/// reads past `size`, and any schema it accepts re-serializes to a canonical
/// form that deserializes to the same bytes again.
int FuzzDeserializeSchema(const uint8_t* data, size_t size);

/// The packed-vector path walks and the anti-schema walk over arbitrary
/// bytes: GetValuesVector (and its unconsolidated form), the scan's
/// VecPathExtractor and ScanPredicateMatcher, with kPathWalkLeafPaths plus
/// three paths ending in nested values, and RemoveVectorRecord. Byte 0 picks
/// a PathWalkFuzzContext (modulo their count); the rest is the record.
/// Invariants: no walk ever crashes; whenever DecodeVectorRecord accepts the
/// record, every path walk returns OK and agrees with the decoded record
/// (NavigateAdmValue), and inferring the record into a clone of the context
/// schema and then removing it gives back the context schema's rendering;
/// whenever the decoder rejects it, RemoveVectorRecord fails and leaves the
/// schema unchanged.
int FuzzVectorPathWalk(const uint8_t* data, size_t size);

/// Both homegrown page codecs over arbitrary bytes. Each decoder reads the
/// bytes as a compressed page: it must return a Status and never crash or
/// write past its output; a page it accepts re-compresses and decodes back
/// to the same bytes. The bytes also round-trip as a raw page through
/// Compress and Decompress at both tiers, within the worst-case bound
/// compressor.h documents.
int FuzzPageCodec(const uint8_t* data, size_t size);

/// The leaf paths FuzzVectorPathWalk reads: the three workloads' fields plus
/// the shapes the generators never emit (duplicate names, nested wildcards).
/// None ends in a nested value on generator records.
inline constexpr const char* kPathWalkLeafPaths[] = {
    "id",
    "a",
    "b",
    "s.y",
    "arr[*].x",
    "t[*][*]",
    "u[*].v[*].w",
    "user.screen_name",
    "user.followers_count",
    "entities.hashtags[*].text",
    "entities.hashtags[0].indices[1]",
    "readings[*].temp",
    "readings[2].timestamp",
    "calibration.temperature_gain",
    "static_data.fullrecord_metadata.category_info.subjects.subject[*].value",
    "static_data.summary.pub_info.pubyear",
};

/// The predicates FuzzVectorPathWalk matches: one-term predicates over
/// every leaf path with literals of each comparable family and an IN list,
/// one per nested path, and one conjunction across the workloads' paths.
const std::vector<std::shared_ptr<const ScanPredicate>>& PathWalkPredicates();

/// What FuzzVectorPathWalk reads a record against: one workload dataset
/// under its open (primary key only) or closed (every declarable field)
/// type, and the schema a flush infers from `records` — the generator's
/// first records — so the FieldNameIDs of their compacted forms resolve.
struct PathWalkFuzzContext {
  std::string name;  // "<dataset>_<open|closed>"
  DatasetType type;
  Schema schema;
  std::vector<AdmValue> records;
};
const std::vector<PathWalkFuzzContext>& PathWalkFuzzContexts();

}  // namespace tc

#endif  // TC_TESTS_FUZZ_FUZZ_TARGETS_H_
