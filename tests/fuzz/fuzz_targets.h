// Fuzz entry points shared by the libFuzzer binaries (TC_FUZZERS=ON, Clang),
// the standalone driver (any compiler), and the always-on corpus-replay gtest.
// Each target returns 0 and aborts (TC_CHECK) on an invariant violation, so
// the same body serves every harness.
#ifndef TC_TESTS_FUZZ_FUZZ_TARGETS_H_
#define TC_TESTS_FUZZ_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "adm/value.h"
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

/// The packed-vector path walks over arbitrary bytes: GetValuesVector (and
/// its unconsolidated form), the scan's VecPathExtractor and
/// ScanPredicateMatcher, with a fixed set of scalar, nested, [i] and [*]
/// paths. Byte 0 picks a PathWalkFuzzContext (modulo their count); the rest
/// is the record. Invariants: no walk ever crashes, and whenever
/// DecodeVectorRecord accepts the record, every walk returns OK and agrees
/// with the decoded record (NavigateAdmValue; a missing wildcard is []).
int FuzzVectorPathWalk(const uint8_t* data, size_t size);

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
