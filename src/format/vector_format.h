// The vector-based physical record format (paper §3.3): a non-recursive layout
// that separates a record's metadata (type tags in DFS order, field names)
// from its values (fixed-length and variable-length vectors). The separation
// lets the tuple compactor infer the schema and compact records by scanning
// only the tag and field-name vectors, and lets compaction replace inline
// field names with dictionary FieldNameIDs without touching the value vectors.
//
// Record layout:
//   header (30 bytes):
//     u32 total_length
//     u32 tag_count
//     u8  var_len_bits      bit width of variable-length value length slots
//     u8  name_len_bits     bit width of field-name slots (incl. 1 flag bit)
//     u32 offsets[5]        fixed_values, var_lengths, var_values,
//                           name_slots, name_values (0 == record is compacted)
//   tags         tag_count bytes: DFS pre-order; kEndNest closes a nesting
//                scope; kEov terminates the record
//   fixed_values concatenated fixed-length scalar payloads in tag order
//   var_lengths  bit-packed lengths, one slot per variable-length scalar
//   var_values   concatenated variable-length payload bytes
//   name_slots   bit-packed, one slot per object field, in tag order:
//                LSB = declared flag; remaining bits = declared field index,
//                or the name's byte length (uncompacted), or the FieldNameID
//                (compacted)
//   name_values  concatenated inferred-field name bytes (uncompacted only)
#ifndef TC_FORMAT_VECTOR_FORMAT_H_
#define TC_FORMAT_VECTOR_FORMAT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "common/bit_packer.h"
#include "common/bytes.h"
#include "common/status.h"
#include "schema/schema_tree.h"
#include "schema/type_descriptor.h"

namespace tc {

inline constexpr size_t kVectorHeaderSize = 30;

/// Encodes `record` (an object) in uncompacted vector-based form. Fields whose
/// value is `missing` are dropped (ADM semantics: missing == absent). Fields
/// declared in `type` store their declared index instead of their name.
/// InvalidArgument for a value nested deeper than kMaxNestingDepth.
Status EncodeVectorRecord(const AdmValue& record, const DatasetType& type,
                          Buffer* out);

/// Read-only view over one vector-based record (compacted or not).
class VectorRecordView {
 public:
  VectorRecordView() = default;
  VectorRecordView(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Header sanity checks; every consumer should validate untrusted bytes once.
  Status Validate() const;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  uint32_t total_length() const { return GetFixed32(data_); }
  uint32_t tag_count() const { return GetFixed32(data_ + 4); }
  int var_len_bits() const { return data_[8]; }
  int name_len_bits() const { return data_[9]; }
  uint32_t offset(int i) const { return GetFixed32(data_ + 10 + 4 * i); }
  bool compacted() const { return offset(4) == 0; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Streaming cursor over a record's values — the linear-time navigation the
/// paper describes in §3.3.1/§3.4.2. One walker instance powers decoding,
/// schema inference, compaction, the anti-schema and query field access.
class VectorRecordWalker {
 public:
  explicit VectorRecordWalker(const VectorRecordView& view);

  struct Item {
    AdmTag tag = AdmTag::kEov;   // value tag, or kEndNest when a scope closes
    int depth = 0;               // nesting depth of the value (root object = 0)
    bool named = false;          // value is a direct field of an object
    bool declared = false;       // name slot carries a declared-field index
    uint32_t declared_index = 0;
    uint32_t name_id = 0;          // compacted records: FieldNameID
    std::string_view name;         // uncompacted records: inline field name
    const uint8_t* fixed = nullptr;  // fixed-length scalar payload
    std::string_view var;            // variable-length scalar payload
  };

  /// Advances to the next tag. Sets `*done` when the record's kEov is reached
  /// (kEov itself is not emitted as an item). Corruption for a value nested
  /// deeper than kMaxNestingDepth (the root object is level 1).
  Status Next(Item* item, bool* done);

  /// Position-selective fast path for predicate evaluation (§3.4.2-deep): when
  /// the cursor stands inside a collection scope at the start of one or more
  /// consecutive items with the same fixed-width scalar tag, consumes the whole
  /// run and returns its contiguous packed payload in `*base` (null for
  /// zero-width tags) with the tag in `*tag`. Returns the run length, or 0
  /// (cursor unmoved) when the next item is not such a run start. Collection
  /// items carry no name slots, so consuming them wholesale keeps every other
  /// cursor consistent.
  size_t TryFixedRun(AdmTag* tag, const uint8_t** base);

  /// One field of a shape run's template, in field order.
  struct ShapeField {
    AdmTag tag = AdmTag::kNull;  // fixed-width scalar tag
    uint32_t offset = 0;         // payload offset within one item
    bool declared = false;       // `name` is a declared-field index
    uint32_t name = 0;           // declared index, else FieldNameID
  };
  /// A run of collection items that repeat one object shape: item i's field
  /// f has tag fields[f].tag and its payload at base + i * stride +
  /// fields[f].offset (base is null when stride is 0).
  struct ShapeRun {
    size_t count = 0;
    const uint8_t* base = nullptr;
    size_t stride = 0;
    const ShapeField* fields = nullptr;
    size_t field_count = 0;
  };

  /// The object-array fast path (§3.4.2): when the item Next visited last
  /// was an object of the current collection scope whose fields are all
  /// fixed-width scalars named by FieldNameID or declared index, its tag
  /// bytes and name slots are a template, and this consumes the following
  /// items while they repeat it byte for byte. Returns the run length (the
  /// run in `*run`), or 0 (cursor unmoved) when there is no template or the
  /// next item differs: a missing, extra, renamed or reordered field, a type
  /// change, a nested or variable-length value, or the scope's end. Records
  /// with inline (uncompacted) field names take runs only over declared
  /// fields.
  size_t TryShapeRun(ShapeRun* run);

  int depth() const { return static_cast<int>(depth_); }

 private:
  /// Where the walk stood when it opened an object item of a collection
  /// scope: the candidate template for TryShapeRun once the object closes.
  struct ObjectItemStart {
    size_t tag_pos = 0;    // the item's kObject tag
    BitReader name_slots;  // at its first field's slot
    bool set = false;
  };

  /// Fills shape_fields_ from the object item just closed; false when there
  /// is none or it does not qualify as a template.
  bool LoadShapeTemplate(size_t* tag_len, size_t* stride);

  VectorRecordView view_;
  size_t tag_pos_ = 0;          // index into the tag vector
  size_t fixed_pos_ = 0;        // byte offset into fixed_values
  size_t var_bytes_pos_ = 0;    // byte offset into var_values
  size_t name_bytes_pos_ = 0;   // byte offset into name_values
  BitReader var_len_reader_;
  BitReader name_slot_reader_;
  // Open nesting scopes, innermost at stack_[depth_ - 1]: inline, so a walk
  // allocates nothing (Next rejects nesting past kMaxNestingDepth).
  AdmTag stack_[kMaxNestingDepth] = {};
  size_t depth_ = 0;
  ObjectItemStart last_object_item_;
  std::vector<ShapeField> shape_fields_;  // the current template
};

/// Decodes a record to an AdmValue tree. `schema` resolves FieldNameIDs of
/// compacted records (may be null for uncompacted records); `type` resolves
/// declared-field indexes.
Status DecodeVectorRecord(const VectorRecordView& view, const DatasetType& type,
                          const Schema* schema, AdmValue* out);

/// Decodes one scalar walker item into a value (shared with the query layer's
/// field-access walker).
AdmValue DecodeVectorScalarItem(const VectorRecordWalker::Item& item);

/// The payload of one packed int-family leaf (tinyint..bigint, date, time,
/// datetime, duration), sign-extended — no AdmValue.
inline int64_t PackedIntOf(AdmTag tag, const uint8_t* p) {
  switch (tag) {
    case AdmTag::kTinyInt:
      return static_cast<int8_t>(p[0]);
    case AdmTag::kSmallInt:
      return static_cast<int16_t>(GetFixed16(p));
    case AdmTag::kInt:
    case AdmTag::kDate:
    case AdmTag::kTime:
      return static_cast<int32_t>(GetFixed32(p));
    default:  // bigint/datetime/duration
      return static_cast<int64_t>(GetFixed64(p));
  }
}

/// The payload of one packed numeric leaf, widened to double.
inline double PackedDoubleOf(AdmTag tag, const uint8_t* p) {
  if (tag == AdmTag::kFloat) return GetFloat(p);
  if (tag == AdmTag::kDouble) return GetDouble(p);
  return static_cast<double>(PackedIntOf(tag, p));
}

// ---------------------------------------------------------------------------
// Packed-leaf comparator kernels (§3.4.2-deep): predicate evaluation directly
// on the packed value vectors, before any record/Row assembly. Both kernels
// are exactly equivalent to AdmScalarSatisfies over the decoded item — the
// scan-predicate tests assert this per tag and operator.
// ---------------------------------------------------------------------------

/// Evaluates `value op literal` on one packed scalar leaf without
/// materializing an AdmValue.
bool PackedLeafSatisfies(const VectorRecordWalker::Item& item, CompareOp op,
                         const AdmValue& literal, bool fold_case = false);

/// Vectorized kernel over a run of `count` packed fixed-width scalars of type
/// `tag`, `stride` bytes apart from `base` — the tag's width for a
/// VectorRecordWalker::TryFixedRun run, the item stride for one field of a
/// TryShapeRun run: returns whether ANY element satisfies `op` against
/// `literal` — the existential [*] predicate over an array, evaluated as one
/// tight typed loop over the packed bytes.
bool AnyPackedFixedSatisfies(AdmTag tag, const uint8_t* base, size_t count,
                             size_t stride, CompareOp op, const AdmValue& literal);

/// Flush-path inference (paper §3.3.2): folds the record into `schema` by
/// scanning only the tag and name vectors. Declared fields and their
/// subtrees are catalog metadata and infer nothing; the inline names inside
/// them still enter the dictionary, which the compacted record names them by.
/// A compacted record's FieldNameIDs are taken as they are.
Status InferVectorRecord(const VectorRecordView& view, const DatasetType& type,
                         Schema* schema);

/// Flush-path combined inference + compaction: folds the record into `schema`
/// and writes the compacted form (field names replaced by FieldNameIDs) to
/// `out`. Value vectors are carried over unchanged.
Status InferAndCompactVectorRecord(const VectorRecordView& view,
                                   const DatasetType& type, Schema* schema,
                                   Buffer* out);

/// Anti-schema processing from record bytes (paper §3.2.2, Figure 11), the
/// inverse of InferVectorRecord over the same walk of the tag and name
/// vectors, for compacted and uncompacted records alike: decrements every
/// schema node the record touches, prunes the nodes whose counter reaches
/// zero and collapses a union left with one variant. No value is decoded.
/// All or nothing: Corruption, with `schema` unchanged, for bytes
/// DecodeVectorRecord rejects, a record reaching a field or type the schema
/// lacks, or one giving back more occurrences than a node counts.
Status RemoveVectorRecord(const VectorRecordView& view, const DatasetType& type,
                          Schema* schema);

/// Byte-level breakdown of a record, for the storage-size benches.
struct VectorRecordStats {
  size_t header = 0;
  size_t tags = 0;
  size_t fixed = 0;
  size_t var_lengths = 0;
  size_t var_values = 0;
  size_t name_slots = 0;
  size_t name_values = 0;
};
Result<VectorRecordStats> AnalyzeVectorRecord(const VectorRecordView& view);

}  // namespace tc

#endif  // TC_FORMAT_VECTOR_FORMAT_H_
