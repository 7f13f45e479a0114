#include "format/vector_format.h"

#include <algorithm>

#include "schema/inference.h"

namespace tc {
namespace {

// ---------------------------------------------------------------------------
// Shared assembler: the encoder, the compactor, and the flush path all collect
// the six vectors and emit them through here.
// ---------------------------------------------------------------------------

struct NameSlotSpec {
  bool declared = false;
  uint32_t payload = 0;       // declared index, or FieldNameID when compacted
  std::string_view name;      // inferred-field name (uncompacted output only)
};

struct Parts {
  std::vector<uint8_t> tags;
  Buffer fixed;
  std::vector<uint32_t> var_lens;
  Buffer var_bytes;
  std::vector<NameSlotSpec> names;
  bool compacted = false;
};

void Assemble(const Parts& p, Buffer* out) {
  uint32_t max_var = 0;
  for (uint32_t l : p.var_lens) max_var = std::max(max_var, l);
  int var_bits = BitsFor(max_var);

  uint64_t max_name_payload = 0;
  for (const auto& s : p.names) {
    uint64_t payload = s.declared ? s.payload
                       : (p.compacted ? s.payload : s.name.size());
    max_name_payload = std::max(max_name_payload, payload);
  }
  int name_bits = p.names.empty() ? 0 : 1 + BitsFor(max_name_payload);

  size_t base = out->size();
  out->resize(base + kVectorHeaderSize);
  PutBytes(out, p.tags.data(), p.tags.size());
  uint32_t off_fixed = static_cast<uint32_t>(out->size() - base);
  PutBytes(out, p.fixed.data(), p.fixed.size());
  uint32_t off_var_lens = static_cast<uint32_t>(out->size() - base);
  {
    BitPacker packer(out);
    for (uint32_t l : p.var_lens) packer.Append(l, var_bits);
    packer.Finish();
  }
  uint32_t off_var_vals = static_cast<uint32_t>(out->size() - base);
  PutBytes(out, p.var_bytes.data(), p.var_bytes.size());
  uint32_t off_name_slots = static_cast<uint32_t>(out->size() - base);
  {
    BitPacker packer(out);
    for (const auto& s : p.names) {
      uint64_t payload = s.declared ? s.payload
                         : (p.compacted ? s.payload : s.name.size());
      packer.Append((payload << 1) | (s.declared ? 1 : 0), name_bits);
    }
    packer.Finish();
  }
  uint32_t off_name_vals = 0;
  if (!p.compacted) {
    off_name_vals = static_cast<uint32_t>(out->size() - base);
    for (const auto& s : p.names) {
      if (!s.declared) PutString(out, s.name);
    }
  }

  uint8_t* h = out->data() + base;
  uint32_t total = static_cast<uint32_t>(out->size() - base);
  OverwriteFixed32(out, base + 0, total);
  OverwriteFixed32(out, base + 4, static_cast<uint32_t>(p.tags.size()));
  h[8] = static_cast<uint8_t>(var_bits);
  h[9] = static_cast<uint8_t>(name_bits);
  OverwriteFixed32(out, base + 10, off_fixed);
  OverwriteFixed32(out, base + 14, off_var_lens);
  OverwriteFixed32(out, base + 18, off_var_vals);
  OverwriteFixed32(out, base + 22, off_name_slots);
  OverwriteFixed32(out, base + 26, off_name_vals);
}

// ---------------------------------------------------------------------------
// Encoding from AdmValue
// ---------------------------------------------------------------------------

void AppendFixedScalar(const AdmValue& v, Buffer* out) {
  switch (v.tag()) {
    case AdmTag::kBoolean:
      PutU8(out, v.bool_value() ? 1 : 0);
      break;
    case AdmTag::kTinyInt:
      PutU8(out, static_cast<uint8_t>(v.int_value()));
      break;
    case AdmTag::kSmallInt:
      PutFixed16(out, static_cast<uint16_t>(v.int_value()));
      break;
    case AdmTag::kInt:
    case AdmTag::kDate:
    case AdmTag::kTime:
      PutFixed32(out, static_cast<uint32_t>(v.int_value()));
      break;
    case AdmTag::kBigInt:
    case AdmTag::kDateTime:
    case AdmTag::kDuration:
      PutFixed64(out, static_cast<uint64_t>(v.int_value()));
      break;
    case AdmTag::kFloat:
      PutFloat(out, static_cast<float>(v.double_value()));
      break;
    case AdmTag::kDouble:
      PutDouble(out, v.double_value());
      break;
    case AdmTag::kUuid:
      PutString(out, v.string_value());
      break;
    case AdmTag::kPoint:
      PutDouble(out, v.point_x());
      PutDouble(out, v.point_y());
      break;
    default:
      break;  // null/missing carry no payload
  }
}

Status EncodeValue(const AdmValue& v, const TypeDescriptor* decl, bool is_root,
                   Parts* p) {
  p->tags.push_back(static_cast<uint8_t>(v.tag()));
  switch (v.tag()) {
    case AdmTag::kObject: {
      for (size_t i = 0; i < v.field_count(); ++i) {
        const AdmValue& fv = v.field_value(i);
        if (fv.tag() == AdmTag::kMissing) continue;
        const std::string& fname = v.field_name(i);
        int idx = decl != nullptr ? decl->DeclaredIndex(fname) : -1;
        NameSlotSpec slot;
        const TypeDescriptor* child_decl = nullptr;
        if (idx >= 0) {
          slot.declared = true;
          slot.payload = static_cast<uint32_t>(idx);
          child_decl = decl->field_type(static_cast<size_t>(idx)).get();
        } else {
          slot.name = fname;
        }
        p->names.push_back(slot);
        TC_RETURN_IF_ERROR(EncodeValue(fv, child_decl, false, p));
      }
      p->tags.push_back(static_cast<uint8_t>(is_root ? AdmTag::kEov : AdmTag::kEndNest));
      return Status::OK();
    }
    case AdmTag::kArray:
    case AdmTag::kMultiset: {
      const TypeDescriptor* item_decl =
          decl != nullptr && decl->item_type() != nullptr ? decl->item_type().get()
                                                          : nullptr;
      for (size_t i = 0; i < v.size(); ++i) {
        if (v.item(i).tag() == AdmTag::kMissing) {
          return Status::InvalidArgument("missing is not a legal collection item");
        }
        TC_RETURN_IF_ERROR(EncodeValue(v.item(i), item_decl, false, p));
      }
      p->tags.push_back(static_cast<uint8_t>(AdmTag::kEndNest));
      return Status::OK();
    }
    case AdmTag::kString:
    case AdmTag::kBinary:
      p->var_lens.push_back(static_cast<uint32_t>(v.string_value().size()));
      PutString(&p->var_bytes, v.string_value());
      return Status::OK();
    case AdmTag::kUnion:
    case AdmTag::kEov:
    case AdmTag::kEndNest:
    case AdmTag::kMissing:
      return Status::InvalidArgument(std::string("cannot encode value of type ") +
                                     AdmTagName(v.tag()));
    default:
      AppendFixedScalar(v, &p->fixed);
      return Status::OK();
  }
}

}  // namespace

Status EncodeVectorRecord(const AdmValue& record, const DatasetType& type,
                          Buffer* out) {
  if (!record.is_object()) {
    return Status::InvalidArgument("vector format encodes object records");
  }
  Parts p;
  TC_RETURN_IF_ERROR(EncodeValue(record, type.root.get(), /*is_root=*/true, &p));
  Assemble(p, out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// View + walker
// ---------------------------------------------------------------------------

Status VectorRecordView::Validate() const {
  if (size_ < kVectorHeaderSize) return Status::Corruption("vb: short record");
  if (total_length() != size_) return Status::Corruption("vb: length mismatch");
  uint32_t prev = kVectorHeaderSize;
  for (int i = 0; i < 4; ++i) {
    uint32_t off = offset(i);
    if (off < prev || off > size_) return Status::Corruption("vb: bad offsets");
    prev = off;
  }
  if (!compacted() && (offset(4) < prev || offset(4) > size_)) {
    return Status::Corruption("vb: bad name offset");
  }
  if (offset(0) - kVectorHeaderSize != tag_count()) {
    return Status::Corruption("vb: tag count mismatch");
  }
  if (tag_count() == 0 || data_[kVectorHeaderSize + tag_count() - 1] !=
                              static_cast<uint8_t>(AdmTag::kEov)) {
    return Status::Corruption("vb: record not EOV-terminated");
  }
  if (var_len_bits() > 57 || name_len_bits() > 57) {
    return Status::Corruption("vb: bad bit widths");
  }
  return Status::OK();
}

VectorRecordWalker::VectorRecordWalker(const VectorRecordView& view) : view_(view) {
  const uint8_t* d = view.data();
  var_len_reader_ = BitReader(d + view.offset(1), view.offset(2) - view.offset(1));
  size_t slots_end = view.compacted() ? view.size() : view.offset(4);
  name_slot_reader_ = BitReader(d + view.offset(3), slots_end - view.offset(3));
  stack_.reserve(8);
}

Status VectorRecordWalker::Next(Item* item, bool* done) {
  *done = false;
  const uint8_t* d = view_.data();
  if (tag_pos_ >= view_.tag_count()) {
    return Status::Corruption("vb: walked past end of tags");
  }
  AdmTag tag = static_cast<AdmTag>(d[kVectorHeaderSize + tag_pos_++]);
  if (static_cast<uint8_t>(tag) >= static_cast<uint8_t>(AdmTag::kNumTags)) {
    return Status::Corruption("vb: bad tag byte");
  }
  *item = Item{};
  if (tag == AdmTag::kEov) {
    // EOV doubles as the root object's scope close (paper Figure 13).
    if (stack_.size() > 1) return Status::Corruption("vb: EOV inside open scope");
    stack_.clear();
    *done = true;
    return Status::OK();
  }
  if (tag == AdmTag::kEndNest) {
    if (stack_.empty()) return Status::Corruption("vb: end-nest underflow");
    stack_.pop_back();
    item->tag = AdmTag::kEndNest;
    item->depth = static_cast<int>(stack_.size());
    return Status::OK();
  }

  item->tag = tag;
  item->depth = static_cast<int>(stack_.size());
  bool in_object = !stack_.empty() && stack_.back() == AdmTag::kObject;
  if (in_object) {
    item->named = true;
    uint64_t slot = name_slot_reader_.Read(view_.name_len_bits());
    item->declared = (slot & 1) != 0;
    uint64_t payload = slot >> 1;
    if (item->declared) {
      item->declared_index = static_cast<uint32_t>(payload);
    } else if (view_.compacted()) {
      item->name_id = static_cast<uint32_t>(payload);
    } else {
      size_t start = view_.offset(4) + name_bytes_pos_;
      if (start + payload > view_.size()) {
        return Status::Corruption("vb: field name out of bounds");
      }
      item->name = std::string_view(reinterpret_cast<const char*>(d + start),
                                    payload);
      name_bytes_pos_ += payload;
    }
  }

  if (IsNested(tag)) {
    stack_.push_back(tag);
    return Status::OK();
  }
  if (IsVariableLengthScalar(tag)) {
    uint64_t len = var_len_reader_.Read(view_.var_len_bits());
    size_t start = view_.offset(2) + var_bytes_pos_;
    if (start + len > view_.offset(3)) {
      return Status::Corruption("vb: var value out of bounds");
    }
    item->var = std::string_view(reinterpret_cast<const char*>(d + start), len);
    var_bytes_pos_ += len;
    return Status::OK();
  }
  int width = FixedWidthOf(tag);
  TC_CHECK(width >= 0);
  size_t start = view_.offset(0) + fixed_pos_;
  if (start + static_cast<size_t>(width) > view_.offset(1)) {
    return Status::Corruption("vb: fixed value out of bounds");
  }
  item->fixed = d + start;
  fixed_pos_ += static_cast<size_t>(width);
  return Status::OK();
}

size_t VectorRecordWalker::TryFixedRun(AdmTag* tag, const uint8_t** base) {
  // Only legal inside a collection scope: object fields consume name slots,
  // which a wholesale tag-run consume would leave behind.
  if (stack_.empty() || stack_.back() == AdmTag::kObject) return 0;
  if (tag_pos_ >= view_.tag_count()) return 0;
  const uint8_t* d = view_.data();
  uint8_t t0 = d[kVectorHeaderSize + tag_pos_];
  if (t0 >= static_cast<uint8_t>(AdmTag::kNumTags)) return 0;
  AdmTag t = static_cast<AdmTag>(t0);
  int width = FixedWidthOf(t);
  if (!IsFixedLengthScalar(t) || width < 0) return 0;
  // Scalar tags open no scopes, so consecutive identical tags are by
  // construction consecutive items of the current collection scope.
  size_t count = 1;
  while (tag_pos_ + count < view_.tag_count() &&
         d[kVectorHeaderSize + tag_pos_ + count] == t0) {
    ++count;
  }
  size_t start = view_.offset(0) + fixed_pos_;
  size_t bytes = count * static_cast<size_t>(width);
  if (start + bytes > view_.offset(1)) return 0;  // corrupt; let Next() report it
  *tag = t;
  *base = width > 0 ? d + start : nullptr;
  tag_pos_ += count;
  fixed_pos_ += bytes;
  return count;
}

// ---------------------------------------------------------------------------
// Packed-leaf comparator kernels (§3.4.2-deep)
// ---------------------------------------------------------------------------

namespace {

/// Op dispatch happens ONCE, outside the loop; the per-element loop is a
/// branch-free accumulate over contiguous packed values, which the compiler
/// can vectorize.
template <typename LitT, typename LoadFn>
bool AnyRunSatisfies(const uint8_t* base, size_t count, size_t width,
                     CompareOp op, LitT lit, LoadFn load) {
  auto any = [&](auto pred) {
    bool hit = false;
    for (size_t i = 0; i < count; ++i) hit |= pred(load(base + i * width));
    return hit;
  };
  switch (op) {
    case CompareOp::kEq: return any([&](LitT v) { return v == lit; });
    case CompareOp::kNe: return any([&](LitT v) { return v != lit; });
    case CompareOp::kLt: return any([&](LitT v) { return v < lit; });
    case CompareOp::kLe: return any([&](LitT v) { return v <= lit; });
    case CompareOp::kGt: return any([&](LitT v) { return v > lit; });
    case CompareOp::kGe: return any([&](LitT v) { return v >= lit; });
  }
  return false;
}

bool LiteralComparable(const AdmValue& literal) {
  AdmTag lt = literal.tag();
  return lt != AdmTag::kMissing && lt != AdmTag::kNull && literal.is_scalar();
}

}  // namespace

bool PackedLeafSatisfies(const VectorRecordWalker::Item& item, CompareOp op,
                         const AdmValue& literal, bool fold_case) {
  AdmTag vt = item.tag;
  if (vt == AdmTag::kMissing || vt == AdmTag::kNull || !IsScalar(vt)) return false;
  if (!LiteralComparable(literal)) return false;
  AdmTag lt = literal.tag();
  if (IsIntFamily(vt) && IsIntFamily(lt)) {
    return CompareSatisfies(PackedIntOf(vt, item.fixed), op, literal.int_value());
  }
  if (IsNumericTag(vt) && IsNumericTag(lt)) {
    double b = IsIntFamily(lt) ? static_cast<double>(literal.int_value())
                               : literal.double_value();
    return CompareSatisfies(PackedDoubleOf(vt, item.fixed), op, b);
  }
  if (vt != lt) return false;  // cross-family: incomparable
  switch (vt) {
    case AdmTag::kBoolean:
      if (op != CompareOp::kEq && op != CompareOp::kNe) return false;
      return CompareSatisfies(static_cast<int64_t>(item.fixed[0] != 0), op,
                              static_cast<int64_t>(literal.bool_value()));
    case AdmTag::kString:
      return StringSatisfies(item.var, op, literal.string_value(), fold_case);
    case AdmTag::kBinary:
      return StringSatisfies(item.var, op, literal.string_value(), false);
    case AdmTag::kUuid:
      return StringSatisfies(
          std::string_view(reinterpret_cast<const char*>(item.fixed), 16), op,
          literal.string_value(), false);
    default:
      return false;  // point has no ordering
  }
}

bool AnyPackedFixedSatisfies(AdmTag tag, const uint8_t* base, size_t count,
                             CompareOp op, const AdmValue& literal) {
  if (count == 0 || !LiteralComparable(literal)) return false;
  int width = FixedWidthOf(tag);
  if (width <= 0) return false;  // null/missing runs never satisfy
  AdmTag lt = literal.tag();
  size_t w = static_cast<size_t>(width);
  if (IsIntFamily(tag) && IsIntFamily(lt)) {
    return AnyRunSatisfies(base, count, w, op, literal.int_value(),
                           [tag](const uint8_t* p) { return PackedIntOf(tag, p); });
  }
  if (IsNumericTag(tag) && IsNumericTag(lt)) {
    double b = IsIntFamily(lt) ? static_cast<double>(literal.int_value())
                               : literal.double_value();
    return AnyRunSatisfies(base, count, w, op, b, [tag](const uint8_t* p) {
      return PackedDoubleOf(tag, p);
    });
  }
  if (tag != lt) return false;
  if (tag == AdmTag::kBoolean) {
    if (op != CompareOp::kEq && op != CompareOp::kNe) return false;
    return AnyRunSatisfies(base, count, w, op,
                           static_cast<int64_t>(literal.bool_value()),
                           [](const uint8_t* p) {
                             return static_cast<int64_t>(p[0] != 0);
                           });
  }
  if (tag == AdmTag::kUuid) {
    for (size_t i = 0; i < count; ++i) {
      if (StringSatisfies(
              std::string_view(reinterpret_cast<const char*>(base + i * w), 16),
              op, literal.string_value(), false)) {
        return true;
      }
    }
  }
  return false;  // point has no ordering; var-length tags are never fixed runs
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

AdmValue DecodeVectorScalarItem(const VectorRecordWalker::Item& it) {
  switch (it.tag) {
    case AdmTag::kMissing:
      return AdmValue::Missing();
    case AdmTag::kNull:
      return AdmValue::Null();
    case AdmTag::kBoolean:
      return AdmValue::Boolean(it.fixed[0] != 0);
    case AdmTag::kTinyInt:
      return AdmValue::TinyInt(static_cast<int8_t>(it.fixed[0]));
    case AdmTag::kSmallInt:
      return AdmValue::SmallInt(static_cast<int16_t>(GetFixed16(it.fixed)));
    case AdmTag::kInt:
      return AdmValue::Int(static_cast<int32_t>(GetFixed32(it.fixed)));
    case AdmTag::kDate:
      return AdmValue::Date(static_cast<int32_t>(GetFixed32(it.fixed)));
    case AdmTag::kTime:
      return AdmValue::Time(static_cast<int32_t>(GetFixed32(it.fixed)));
    case AdmTag::kBigInt:
      return AdmValue::BigInt(static_cast<int64_t>(GetFixed64(it.fixed)));
    case AdmTag::kDateTime:
      return AdmValue::DateTime(static_cast<int64_t>(GetFixed64(it.fixed)));
    case AdmTag::kDuration:
      return AdmValue::Duration(static_cast<int64_t>(GetFixed64(it.fixed)));
    case AdmTag::kFloat:
      return AdmValue::Float(GetFloat(it.fixed));
    case AdmTag::kDouble:
      return AdmValue::Double(GetDouble(it.fixed));
    case AdmTag::kUuid:
      return AdmValue::Uuid(std::string(reinterpret_cast<const char*>(it.fixed), 16));
    case AdmTag::kPoint:
      return AdmValue::Point(GetDouble(it.fixed), GetDouble(it.fixed + 8));
    case AdmTag::kString:
      return AdmValue::String(std::string(it.var));
    case AdmTag::kBinary:
      return AdmValue::Binary(std::string(it.var));
    default:
      TC_CHECK(false);
      return AdmValue::Missing();
  }
}

Status ResolveVectorFieldName(const VectorRecordWalker::Item& it,
                              const TypeDescriptor* scope_decl,
                              const Schema* schema, std::string* out) {
  if (it.declared) {
    if (scope_decl == nullptr ||
        it.declared_index >= scope_decl->field_count()) {
      return Status::Corruption("vb: declared index without matching descriptor");
    }
    *out = scope_decl->field_name(it.declared_index);
    return Status::OK();
  }
  if (!it.name.empty() || it.name_id == 0) {
    *out = std::string(it.name);
    return Status::OK();
  }
  if (schema == nullptr || !schema->dict().Contains(it.name_id)) {
    return Status::Corruption("vb: FieldNameID not found in schema dictionary");
  }
  *out = schema->dict().NameOf(it.name_id);
  return Status::OK();
}

namespace {

/// Declared type of the item itself, given its enclosing scope's descriptor.
const TypeDescriptor* ChildDescriptor(const VectorRecordWalker::Item& it,
                                      const TypeDescriptor* scope_decl,
                                      bool scope_is_object) {
  if (scope_is_object) {
    if (!it.declared || scope_decl == nullptr) return nullptr;
    if (it.declared_index >= scope_decl->field_count()) return nullptr;
    return scope_decl->field_type(it.declared_index).get();
  }
  return scope_decl;  // collection scopes store their item descriptor directly
}

}  // namespace

Status DecodeVectorRecord(const VectorRecordView& view, const DatasetType& type,
                          const Schema* schema, AdmValue* out) {
  TC_RETURN_IF_ERROR(view.Validate());
  VectorRecordWalker walker(view);

  struct Scope {
    AdmValue* container;
    const TypeDescriptor* decl;  // object: own type; collection: item type
    bool is_object;
  };
  std::vector<Scope> scopes;

  // Root object.
  VectorRecordWalker::Item it;
  bool done = false;
  TC_RETURN_IF_ERROR(walker.Next(&it, &done));
  if (done || it.tag != AdmTag::kObject) {
    return Status::Corruption("vb: record root is not an object");
  }
  *out = AdmValue::Object();
  scopes.push_back({out, type.root.get(), true});

  while (true) {
    TC_RETURN_IF_ERROR(walker.Next(&it, &done));
    if (done) break;
    if (it.tag == AdmTag::kEndNest) {
      scopes.pop_back();
      if (scopes.empty()) return Status::Corruption("vb: scope underflow");
      continue;
    }
    Scope& scope = scopes.back();
    std::string name;
    if (scope.is_object) {
      TC_RETURN_IF_ERROR(ResolveVectorFieldName(it, scope.decl, schema, &name));
    }
    const TypeDescriptor* child_decl = ChildDescriptor(it, scope.decl, scope.is_object);

    AdmValue value = IsNested(it.tag) ? AdmValue(it.tag) : DecodeVectorScalarItem(it);
    AdmValue* placed = scope.is_object
                           ? &scope.container->AddField(std::move(name), std::move(value))
                           : &scope.container->Append(std::move(value));
    if (IsNested(it.tag)) {
      bool is_object = it.tag == AdmTag::kObject;
      const TypeDescriptor* scope_decl = nullptr;
      if (child_decl != nullptr) {
        scope_decl = is_object ? child_decl
                               : (child_decl->item_type() != nullptr
                                      ? child_decl->item_type().get()
                                      : nullptr);
      }
      scopes.push_back({placed, scope_decl, is_object});
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Flush path: inference, compaction, and the combined single pass
// ---------------------------------------------------------------------------

namespace {

enum class FlushMode { kInferOnly, kCompactOnly, kInferAndCompact };

Status FlushWalk(const VectorRecordView& view, const DatasetType& /*type*/,
                 Schema* schema, FlushMode mode, Buffer* out) {
  TC_RETURN_IF_ERROR(view.Validate());
  const bool infer = mode != FlushMode::kCompactOnly;
  const bool compact = mode != FlushMode::kInferOnly;
  if (compact && view.compacted()) {
    return Status::InvalidArgument("vb: record is already compacted");
  }

  VectorRecordWalker walker(view);
  Parts parts;
  parts.compacted = true;

  // Schema scope stack; node == nullptr inside skipped (declared) subtrees.
  struct Scope {
    SchemaNode* node;
    bool is_object;
  };
  std::vector<Scope> scopes;

  VectorRecordWalker::Item it;
  bool done = false;
  TC_RETURN_IF_ERROR(walker.Next(&it, &done));
  if (done || it.tag != AdmTag::kObject) {
    return Status::Corruption("vb: record root is not an object");
  }
  if (compact) parts.tags.push_back(static_cast<uint8_t>(AdmTag::kObject));
  if (infer) schema->root()->Increment();
  scopes.push_back({infer ? schema->root() : nullptr, true});

  while (true) {
    TC_RETURN_IF_ERROR(walker.Next(&it, &done));
    if (done) {
      if (compact) parts.tags.push_back(static_cast<uint8_t>(AdmTag::kEov));
      break;
    }
    if (it.tag == AdmTag::kEndNest) {
      if (compact) parts.tags.push_back(static_cast<uint8_t>(AdmTag::kEndNest));
      scopes.pop_back();
      if (scopes.empty()) return Status::Corruption("vb: scope underflow");
      continue;
    }
    if (compact) parts.tags.push_back(static_cast<uint8_t>(it.tag));

    Scope& scope = scopes.back();
    SchemaNode* child_node = nullptr;
    if (scope.is_object) {
      if (it.declared) {
        if (compact) {
          parts.names.push_back({/*declared=*/true, it.declared_index, {}});
        }
        // Declared fields are catalog metadata: skip their subtree in inference.
      } else {
        uint32_t id = schema->dict().GetOrAdd(it.name);
        if (compact) parts.names.push_back({/*declared=*/false, id, {}});
        if (infer && scope.node != nullptr) {
          SchemaNode::Ptr* slot = scope.node->FindFieldSlot(id);
          if (slot == nullptr) slot = scope.node->AddFieldSlot(id);
          SchemaNode* uni = nullptr;
          child_node = AdaptSlot(slot, it.tag, &uni);
          if (uni != nullptr) uni->Increment();
          child_node->Increment();
        }
      }
    } else {
      // Collection item.
      if (infer && scope.node != nullptr) {
        SchemaNode* uni = nullptr;
        child_node = AdaptSlot(scope.node->ItemSlot(), it.tag, &uni);
        if (uni != nullptr) uni->Increment();
        child_node->Increment();
      }
    }

    if (IsNested(it.tag)) {
      scopes.push_back({child_node, it.tag == AdmTag::kObject});
      continue;
    }
    if (!compact) continue;
    if (IsVariableLengthScalar(it.tag)) {
      parts.var_lens.push_back(static_cast<uint32_t>(it.var.size()));
      PutString(&parts.var_bytes, it.var);
    } else {
      int width = FixedWidthOf(it.tag);
      if (width > 0) PutBytes(&parts.fixed, it.fixed, static_cast<size_t>(width));
    }
  }

  if (infer) schema->BumpVersion();
  if (compact) Assemble(parts, out);
  return Status::OK();
}

}  // namespace

Status InferVectorRecord(const VectorRecordView& view, const DatasetType& type,
                         Schema* schema) {
  return FlushWalk(view, type, schema, FlushMode::kInferOnly, nullptr);
}

Status InferAndCompactVectorRecord(const VectorRecordView& view,
                                   const DatasetType& type, Schema* schema,
                                   Buffer* out) {
  return FlushWalk(view, type, schema, FlushMode::kInferAndCompact, out);
}

Status CompactVectorRecord(const VectorRecordView& view, const DatasetType& type,
                           Schema* schema, Buffer* out) {
  return FlushWalk(view, type, schema, FlushMode::kCompactOnly, out);
}

Status RemoveVectorRecord(const VectorRecordView& view, const DatasetType& type,
                          Schema* schema) {
  // The anti-schema is extracted from the old record (paper §3.2.2); decoding
  // resolves compacted FieldNameIDs through the current schema, which is a
  // superset of the schema the record was compacted under (IDs are stable).
  AdmValue decoded;
  TC_RETURN_IF_ERROR(DecodeVectorRecord(view, type, schema, &decoded));
  return RemoveRecord(schema, decoded, type.root.get());
}

Result<VectorRecordStats> AnalyzeVectorRecord(const VectorRecordView& view) {
  TC_RETURN_IF_ERROR(view.Validate());
  VectorRecordStats s;
  s.header = kVectorHeaderSize;
  s.tags = view.offset(0) - kVectorHeaderSize;
  s.fixed = view.offset(1) - view.offset(0);
  s.var_lengths = view.offset(2) - view.offset(1);
  s.var_values = view.offset(3) - view.offset(2);
  if (view.compacted()) {
    s.name_slots = view.size() - view.offset(3);
    s.name_values = 0;
  } else {
    s.name_slots = view.offset(4) - view.offset(3);
    s.name_values = view.size() - view.offset(4);
  }
  return s;
}

}  // namespace tc
