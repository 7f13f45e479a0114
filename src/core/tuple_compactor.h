// The tuple compactor (paper §3): the ComponentTransformer that piggybacks on
// every component the LSM tree writes (flush, bulk load and merge) to
// (1) infer the schema of every uncompacted record by scanning its
// vector-based tag/name vectors, (2) rewrite the record in compacted form
// with field names replaced by dictionary IDs, (3) process anti-schemas of
// removed record versions, and (4) persist the inferred schema into the
// written component's metadata page.
#ifndef TC_CORE_TUPLE_COMPACTOR_H_
#define TC_CORE_TUPLE_COMPACTOR_H_

#include <mutex>

#include "format/vector_format.h"
#include "lsm/lsm_tree.h"
#include "schema/schema_io.h"
#include "schema/schema_tree.h"
#include "schema/type_descriptor.h"

namespace tc {

class TupleCompactor final : public ComponentTransformer {
 public:
  /// `type` must outlive the compactor (it lives in DatasetOptions).
  explicit TupleCompactor(const DatasetType* type) : type_(type) {}

  // The virtual overrides below are defined out of line in
  // tuple_compactor.cpp; Transform is the class's key function, so the
  // vtable is emitted exactly once, in the tc library.

  /// Compacted records pass through byte-identical (FieldNameIDs are
  /// globally stable, so no decode is needed); uncompacted records — every
  /// memtable payload, and legacy payloads a merge rewrites (§3.1.1 extended
  /// to merges) — are inferred into the live schema and compacted, with
  /// `*rewritten` set. Thread-safe: concurrent merges and flush builds
  /// serialize on the schema mutex per record.
  Status Transform(std::string_view payload, Buffer* out,
                   bool* rewritten) override;
  /// All or nothing: a version the schema does not cover leaves it untouched.
  Status OnRemovedVersion(std::string_view old_payload) override;
  /// The live schema, so FieldNameIDs assigned while writing the component
  /// are durable with the records that use them.
  Status SchemaBlob(Buffer* out) override;
  Status OnRecoveredSchema(const Buffer& blob) override;

  /// Crash recovery (paper §3.1.2): reload the newest valid component's
  /// persisted schema as the in-memory schema.
  Status LoadSchema(const Buffer& blob);

  /// Consistent deep copy for queries (schema broadcast) and tests.
  Schema Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return schema_.Clone();
  }

  /// Monotonically increasing schema version (bumps on every inference or
  /// anti-schema change); lets readers cache snapshots cheaply.
  uint64_t SchemaVersion() const {
    std::lock_guard<std::mutex> lock(mu_);
    return schema_.version();
  }

 private:
  const DatasetType* type_;
  mutable std::mutex mu_;
  Schema schema_;
};

}  // namespace tc

#endif  // TC_CORE_TUPLE_COMPACTOR_H_
