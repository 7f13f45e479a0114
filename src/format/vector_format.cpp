#include "format/vector_format.h"

#include <algorithm>
#include <cstring>
#include <functional>


namespace tc {
namespace {

// ---------------------------------------------------------------------------
// Shared assembler: the encoder, the compactor, and the flush path all collect
// the six vectors and emit them through here.
// ---------------------------------------------------------------------------

/// Per-thread scratch kept across records is dropped past this size: one huge
/// record must not pin its buffers on a long-lived thread.
constexpr size_t kMaxRetainedScratchBytes = size_t{1} << 20;

/// Empties a per-thread scratch vector for the next record, keeping its
/// capacity up to kMaxRetainedScratchBytes.
template <typename T>
void ResetScratch(std::vector<T>* v) {
  if (v->capacity() * sizeof(T) > kMaxRetainedScratchBytes) *v = std::vector<T>();
  v->clear();
}

struct NameSlotSpec {
  bool declared = false;
  uint32_t payload = 0;       // declared index, or FieldNameID when compacted
  std::string_view name;      // inferred-field name (uncompacted output only)
};

/// Each encoding thread reuses one Parts per entry point (a function-local
/// thread_local), so a record costs no vector allocations once the
/// capacities have grown to the largest record seen.
struct Parts {
  std::vector<uint8_t> tags;
  Buffer fixed;
  std::vector<uint32_t> var_lens;
  Buffer var_bytes;
  std::vector<NameSlotSpec> names;
  bool compacted = false;

  /// Empties every vector for the next record, keeping capacity unless the
  /// last record was outsized (see kMaxRetainedScratchBytes).
  void Reset(bool compact) {
    if (tags.capacity() + fixed.capacity() + var_bytes.capacity() +
            4 * var_lens.capacity() + sizeof(NameSlotSpec) * names.capacity() >
        kMaxRetainedScratchBytes) {
      *this = Parts();
    }
    tags.clear();
    fixed.clear();
    var_lens.clear();
    var_bytes.clear();
    names.clear();
    compacted = compact;
  }
};

void Assemble(const Parts& p, Buffer* out) {
  uint32_t max_var = 0;
  for (uint32_t l : p.var_lens) max_var = std::max(max_var, l);
  int var_bits = BitsFor(max_var);

  uint64_t max_name_payload = 0;
  size_t inline_name_bytes = 0;
  for (const auto& s : p.names) {
    uint64_t payload = s.declared ? s.payload
                       : (p.compacted ? s.payload : s.name.size());
    max_name_payload = std::max(max_name_payload, payload);
    if (!s.declared && !p.compacted) inline_name_bytes += s.name.size();
  }
  int name_bits = p.names.empty() ? 0 : 1 + BitsFor(max_name_payload);

  // The exact record size, so `out` grows at most once per record.
  const size_t total_size =
      kVectorHeaderSize + p.tags.size() + p.fixed.size() +
      (p.var_lens.size() * static_cast<size_t>(var_bits) + 7) / 8 +
      p.var_bytes.size() +
      (p.names.size() * static_cast<size_t>(name_bits) + 7) / 8 + inline_name_bytes;
  size_t base = out->size();
  if (out->capacity() < base + total_size) {
    out->reserve(std::max(base + total_size, 2 * out->capacity()));
  }
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
  TC_CHECK(out->size() - base == total_size);
  OverwriteFixed32(out, base + 0, static_cast<uint32_t>(total_size));
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

/// `level` is the value's nesting level (the root object is level 1).
Status EncodeValue(const AdmValue& v, const TypeDescriptor* decl, int level,
                   Parts* p) {
  if (level > kMaxNestingDepth) {
    return Status::InvalidArgument("value nesting exceeds depth limit");
  }
  const bool is_root = level == 1;
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
        TC_RETURN_IF_ERROR(EncodeValue(fv, child_decl, level + 1, p));
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
        TC_RETURN_IF_ERROR(EncodeValue(v.item(i), item_decl, level + 1, p));
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
  thread_local Parts p;
  p.Reset(/*compact=*/false);
  TC_RETURN_IF_ERROR(EncodeValue(record, type.root.get(), /*level=*/1, &p));
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
}

Status VectorRecordWalker::Next(Item* item, bool* done) {
  *done = false;
  const uint8_t* d = view_.data();
  if (tag_pos_ >= view_.tag_count()) {
    return Status::Corruption("vb: walked past end of tags");
  }
  AdmTag tag = static_cast<AdmTag>(d[kVectorHeaderSize + tag_pos_++]);
  // Missing values are never stored (fields drop them, collections reject
  // them) and union is a schema-only kind.
  if (static_cast<uint8_t>(tag) >= static_cast<uint8_t>(AdmTag::kNumTags) ||
      tag == AdmTag::kMissing || tag == AdmTag::kUnion) {
    return Status::Corruption("vb: bad tag byte");
  }
  *item = Item{};
  if (tag == AdmTag::kEov) {
    // EOV doubles as the root object's scope close (paper Figure 13).
    if (depth_ > 1) return Status::Corruption("vb: EOV inside open scope");
    depth_ = 0;
    *done = true;
    return Status::OK();
  }
  if (tag == AdmTag::kEndNest) {
    if (depth_ == 0) return Status::Corruption("vb: end-nest underflow");
    --depth_;
    item->tag = AdmTag::kEndNest;
    item->depth = static_cast<int>(depth_);
    return Status::OK();
  }

  // Item depth d is nesting level d + 1: the bound every reader relies on.
  if (depth_ >= static_cast<size_t>(kMaxNestingDepth)) {
    return Status::Corruption("vb: nesting exceeds depth limit");
  }
  item->tag = tag;
  item->depth = static_cast<int>(depth_);
  bool in_object = depth_ > 0 && stack_[depth_ - 1] == AdmTag::kObject;
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
    if (tag == AdmTag::kObject && !in_object && depth_ > 0) {
      last_object_item_ = {tag_pos_ - 1, name_slot_reader_, true};
    }
    stack_[depth_++] = tag;
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
  // which a wholesale tag-run consume would leave behind. Items past the
  // depth bound are Next's to reject.
  if (depth_ == 0 || stack_[depth_ - 1] == AdmTag::kObject ||
      depth_ >= static_cast<size_t>(kMaxNestingDepth)) {
    return 0;
  }
  if (tag_pos_ >= view_.tag_count()) return 0;
  const uint8_t* d = view_.data();
  uint8_t t0 = d[kVectorHeaderSize + tag_pos_];
  if (t0 >= static_cast<uint8_t>(AdmTag::kNumTags)) return 0;
  AdmTag t = static_cast<AdmTag>(t0);
  int width = FixedWidthOf(t);
  if (!IsFixedLengthScalar(t) || width < 0 || t == AdmTag::kMissing) return 0;
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

bool VectorRecordWalker::LoadShapeTemplate(size_t* tag_len, size_t* stride) {
  // The template is the object item last opened in a collection scope, if
  // it is also the scope just closed: only fixed-width scalar tags between
  // its kObject and the kEndNest before the cursor. Next validated all of
  // them (tags, name slots, payload bounds, depth) on the way.
  const ObjectItemStart& start = last_object_item_;
  if (!start.set || tag_pos_ < start.tag_pos + 2) return false;
  const uint8_t* tags = view_.data() + kVectorHeaderSize;
  if (tags[tag_pos_ - 1] != static_cast<uint8_t>(AdmTag::kEndNest)) return false;
  const bool inline_names = !view_.compacted();
  BitReader slots = start.name_slots;
  shape_fields_.clear();
  uint32_t offset = 0;
  for (size_t i = start.tag_pos + 1; i + 1 < tag_pos_; ++i) {
    AdmTag t = static_cast<AdmTag>(tags[i]);
    if (!IsFixedLengthScalar(t) || t == AdmTag::kMissing) return false;
    uint64_t slot = slots.Read(view_.name_len_bits());
    ShapeField f;
    f.tag = t;
    f.offset = offset;
    f.declared = (slot & 1) != 0;
    f.name = static_cast<uint32_t>(slot >> 1);
    if (inline_names && !f.declared) return false;  // the name is in name_values
    shape_fields_.push_back(f);
    offset += static_cast<uint32_t>(FixedWidthOf(t));
  }
  *tag_len = tag_pos_ - start.tag_pos;
  *stride = offset;
  return true;
}

size_t VectorRecordWalker::TryShapeRun(ShapeRun* run) {
  if (depth_ == 0 || stack_[depth_ - 1] == AdmTag::kObject) return 0;
  const uint8_t* tags = view_.data() + kVectorHeaderSize;
  if (tag_pos_ >= view_.tag_count() ||
      tags[tag_pos_] != static_cast<uint8_t>(AdmTag::kObject)) {
    return 0;
  }
  size_t tag_len = 0;
  size_t stride = 0;
  if (!LoadShapeTemplate(&tag_len, &stride)) return 0;
  const uint8_t* tmpl = tags + last_object_item_.tag_pos;
  const int slot_bits = view_.name_len_bits();
  const size_t fixed_start = view_.offset(0) + fixed_pos_;
  size_t count = 0;
  BitReader slots = name_slot_reader_;
  while (tag_pos_ + (count + 1) * tag_len <= view_.tag_count() &&
         fixed_start + (count + 1) * stride <= view_.offset(1) &&
         std::memcmp(tags + tag_pos_ + count * tag_len, tmpl, tag_len) == 0) {
    BitReader item_slots = slots;
    bool same = true;
    for (const ShapeField& f : shape_fields_) {
      uint64_t want = (static_cast<uint64_t>(f.name) << 1) | (f.declared ? 1 : 0);
      if (item_slots.Read(slot_bits) != want) {
        same = false;
        break;
      }
    }
    if (!same) break;
    slots = item_slots;
    ++count;
  }
  if (count == 0) return 0;
  run->count = count;
  run->base = stride > 0 ? view_.data() + fixed_start : nullptr;
  run->stride = stride;
  run->fields = shape_fields_.data();
  run->field_count = shape_fields_.size();
  tag_pos_ += count * tag_len;
  fixed_pos_ += count * stride;
  name_slot_reader_ = slots;
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
bool AnyRunSatisfies(const uint8_t* base, size_t count, size_t stride,
                     CompareOp op, LitT lit, LoadFn load) {
  auto any = [&](auto pred) {
    bool hit = false;
    for (size_t i = 0; i < count; ++i) hit |= pred(load(base + i * stride));
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
                             size_t stride, CompareOp op, const AdmValue& literal) {
  if (count == 0 || !LiteralComparable(literal)) return false;
  if (FixedWidthOf(tag) <= 0) return false;  // null/missing runs never satisfy
  AdmTag lt = literal.tag();
  if (IsIntFamily(tag) && IsIntFamily(lt)) {
    return AnyRunSatisfies(base, count, stride, op, literal.int_value(),
                           [tag](const uint8_t* p) { return PackedIntOf(tag, p); });
  }
  if (IsNumericTag(tag) && IsNumericTag(lt)) {
    double b = IsIntFamily(lt) ? static_cast<double>(literal.int_value())
                               : literal.double_value();
    return AnyRunSatisfies(base, count, stride, op, b, [tag](const uint8_t* p) {
      return PackedDoubleOf(tag, p);
    });
  }
  if (tag != lt) return false;
  if (tag == AdmTag::kBoolean) {
    if (op != CompareOp::kEq && op != CompareOp::kNe) return false;
    return AnyRunSatisfies(base, count, stride, op,
                           static_cast<int64_t>(literal.bool_value()),
                           [](const uint8_t* p) {
                             return static_cast<int64_t>(p[0] != 0);
                           });
  }
  if (tag == AdmTag::kUuid) {
    for (size_t i = 0; i < count; ++i) {
      if (StringSatisfies(
              std::string_view(reinterpret_cast<const char*>(base + i * stride), 16),
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

namespace {

/// Sets a scalar item's payload on `v`, a value of the item's tag.
void SetScalarPayload(const VectorRecordWalker::Item& it, AdmValue* v) {
  switch (it.tag) {
    case AdmTag::kMissing:
    case AdmTag::kNull:
      break;
    case AdmTag::kBoolean:
      v->set_int(it.fixed[0] != 0 ? 1 : 0);
      break;
    case AdmTag::kTinyInt:
    case AdmTag::kSmallInt:
    case AdmTag::kInt:
    case AdmTag::kDate:
    case AdmTag::kTime:
    case AdmTag::kBigInt:
    case AdmTag::kDateTime:
    case AdmTag::kDuration:
      v->set_int(PackedIntOf(it.tag, it.fixed));
      break;
    case AdmTag::kFloat:
      v->set_double(GetFloat(it.fixed));
      break;
    case AdmTag::kDouble:
      v->set_double(GetDouble(it.fixed));
      break;
    case AdmTag::kUuid:
      v->set_bytes(std::string_view(reinterpret_cast<const char*>(it.fixed), 16));
      break;
    case AdmTag::kPoint:
      v->set_point(GetDouble(it.fixed), GetDouble(it.fixed + 8));
      break;
    case AdmTag::kString:
    case AdmTag::kBinary:
      v->set_bytes(it.var);
      break;
    default:
      TC_CHECK(false);
  }
}

}  // namespace

AdmValue DecodeVectorScalarItem(const VectorRecordWalker::Item& it) {
  AdmValue v(it.tag);
  SetScalarPayload(it, &v);
  return v;
}

// ---------------------------------------------------------------------------
// Whole-record walks: decoding, flush-time inference and compaction, and the
// anti-schema share one scope-stack walk over the tag and name vectors.
// ---------------------------------------------------------------------------

namespace {

/// Whether an object field's name slot spells the name inline: always in
/// uncompacted records, and for a compacted slot holding ID 0, which every
/// reader (query/path_walk.h too) takes as the empty name.
bool HasInlineName(const VectorRecordWalker::Item& it) {
  return !it.name.empty() || it.name_id == 0;
}

/// The one scope-stack walk over a whole record. It checks what decoding
/// needs from the tag and name vectors (a root object, balanced scopes, a
/// declared index inside its scope's descriptor, a FieldNameID inside the
/// schema dictionary), so every consumer accepts exactly the records the
/// decoder accepts. The visitor `V` supplies:
///   V::Scope                 what it keeps per open object or collection
///   Root()                   the root object's scope
///   Item(it, parent, parent_decl, &child)
///                            one value of `parent`'s scope (`parent_decl`:
///                            its declared type, nullable); `child` is the
///                            scope the value opens when it is nested
///   Close(&scope)            a nested value's kEndNest, in post-order
/// The root object has no Close: the walk returns at the record's kEov.
template <typename V>
Status WalkRecordScopes(const VectorRecordView& view, const DatasetType& type,
                        const Schema* schema, V* v) {
  TC_RETURN_IF_ERROR(view.Validate());
  VectorRecordWalker walker(view);
  struct Frame {
    typename V::Scope scope;
    const TypeDescriptor* decl;  // object: own type; collection: item type
  };
  // Reused per thread and instantiation; no visitor walks another record.
  thread_local std::vector<Frame> frames;
  ResetScratch(&frames);

  VectorRecordWalker::Item it;
  bool done = false;
  TC_RETURN_IF_ERROR(walker.Next(&it, &done));
  if (done || it.tag != AdmTag::kObject) {
    return Status::Corruption("vb: record root is not an object");
  }
  frames.push_back({v->Root(), type.root.get()});

  while (true) {
    TC_RETURN_IF_ERROR(walker.Next(&it, &done));
    if (done) return Status::OK();
    if (it.tag == AdmTag::kEndNest) {
      if (frames.size() == 1) return Status::Corruption("vb: scope underflow");
      v->Close(&frames.back().scope);
      frames.pop_back();
      continue;
    }
    const TypeDescriptor* scope_decl = frames.back().decl;
    const TypeDescriptor* decl = scope_decl;  // the item's declared type
    if (it.named) {
      decl = nullptr;
      if (it.declared) {
        if (scope_decl == nullptr || it.declared_index >= scope_decl->field_count()) {
          return Status::Corruption("vb: declared index without matching descriptor");
        }
        decl = scope_decl->field_type(it.declared_index).get();
      } else if (!HasInlineName(it) &&
                 (schema == nullptr || !schema->dict().Contains(it.name_id))) {
        return Status::Corruption("vb: FieldNameID not found in schema dictionary");
      }
    }
    typename V::Scope child{};
    TC_RETURN_IF_ERROR(v->Item(it, frames.back().scope, scope_decl, &child));
    if (IsNested(it.tag)) {
      if (it.tag != AdmTag::kObject && decl != nullptr) decl = decl->item_type().get();
      frames.push_back({child, decl});
    }
  }
}

/// Counts the direct children of every nested scope of a validated record,
/// the root object first and the rest in the pre-order they open, as the
/// walk would visit them. Rejects nothing: on tags the walk refuses (an
/// unbalanced or unterminated scope, nesting past kMaxNestingDepth) it
/// returns false and the decode reserves nothing, leaving the walk to report.
bool CountScopeChildren(const VectorRecordView& view, std::vector<uint32_t>* counts) {
  const uint8_t* tags = view.data() + kVectorHeaderSize;
  const size_t n = view.tag_count();
  if (tags[0] != static_cast<uint8_t>(AdmTag::kObject)) return false;
  uint32_t open[kMaxNestingDepth];  // indexes into `counts` of the open scopes
  size_t depth = 1;
  open[0] = 0;
  counts->push_back(0);
  for (size_t i = 1; i < n; ++i) {
    const uint8_t t = tags[i];
    if (t == static_cast<uint8_t>(AdmTag::kEov)) return depth == 1;
    if (t == static_cast<uint8_t>(AdmTag::kEndNest)) {
      if (depth == 1) return false;
      --depth;
      continue;
    }
    ++(*counts)[open[depth - 1]];
    if (IsNested(static_cast<AdmTag>(t))) {
      if (depth == static_cast<size_t>(kMaxNestingDepth)) return false;
      open[depth++] = static_cast<uint32_t>(counts->size());
      counts->push_back(0);
    }
  }
  return false;
}

/// Builds the AdmValue tree: every value is emplaced in its parent container,
/// which was reserved to its child count when its scope opened.
struct DecodeVisitor {
  using Scope = AdmValue*;
  AdmValue* out;
  const Schema* schema;
  const std::vector<uint32_t>* counts;  // CountScopeChildren's; empty: no reserve
  size_t next_scope = 0;                // the next scope to open, in pre-order

  void Open(AdmValue* scope) {
    if (next_scope < counts->size()) scope->Reserve((*counts)[next_scope++]);
  }
  Scope Root() {
    *out = AdmValue::Object();
    Open(out);
    return out;
  }
  Status Item(const VectorRecordWalker::Item& it, Scope parent,
              const TypeDescriptor* parent_decl, Scope* child) {
    AdmValue* v;
    if (!it.named) {
      v = &parent->EmplaceItem(it.tag);
    } else if (it.declared) {
      v = &parent->EmplaceField(parent_decl->field_name(it.declared_index), it.tag);
    } else if (HasInlineName(it)) {
      v = &parent->EmplaceField(it.name, it.tag);
    } else {
      v = &parent->EmplaceField(schema->dict().NameOf(it.name_id), it.tag);
    }
    if (IsNested(it.tag)) {
      Open(v);
      *child = v;
    } else {
      SetScalarPayload(it, v);
    }
    return Status::OK();
  }
  void Close(Scope*) {}
};

}  // namespace

Status DecodeVectorRecord(const VectorRecordView& view, const DatasetType& type,
                          const Schema* schema, AdmValue* out) {
  TC_RETURN_IF_ERROR(view.Validate());
  thread_local std::vector<uint32_t> counts;
  ResetScratch(&counts);
  if (!CountScopeChildren(view, &counts)) counts.clear();
  DecodeVisitor decode{out, schema, &counts};
  return WalkRecordScopes(view, type, schema, &decode);
}

namespace {

/// Flush-time inference (paper §3.3.2), compacting into `parts` when set:
/// tags and values carry over, and each inline name becomes its FieldNameID.
/// Declared fields are catalog metadata, so their subtrees infer nothing;
/// the names inside them still enter the dictionary, which is what the
/// compacted record names them by.
struct FlushVisitor {
  using Scope = SchemaNode*;  // null inside a declared field's subtree
  Schema* schema;
  Parts* parts;  // null: inference only

  Scope Root() {
    if (parts != nullptr) parts->tags.push_back(static_cast<uint8_t>(AdmTag::kObject));
    schema->root()->Increment();
    return schema->root();
  }
  Status Item(const VectorRecordWalker::Item& it, Scope parent,
              const TypeDescriptor* /*parent_decl*/, Scope* child) {
    if (parts != nullptr) parts->tags.push_back(static_cast<uint8_t>(it.tag));
    SchemaNode::Ptr* slot = nullptr;
    if (!it.named) {
      if (parent != nullptr) slot = parent->ItemSlot();
    } else if (it.declared) {
      if (parts != nullptr) parts->names.push_back({true, it.declared_index, {}});
    } else {
      uint32_t id = HasInlineName(it) ? schema->dict().GetOrAdd(it.name) : it.name_id;
      if (parts != nullptr) parts->names.push_back({false, id, {}});
      if (parent != nullptr) {
        slot = parent->FindFieldSlot(id);
        if (slot == nullptr) slot = parent->AddFieldSlot(id);
      }
    }
    if (slot != nullptr) {
      SchemaNode* uni = nullptr;
      *child = AdaptSlot(slot, it.tag, &uni);
      if (uni != nullptr) uni->Increment();
      (*child)->Increment();
    }
    if (parts == nullptr || IsNested(it.tag)) return Status::OK();
    if (IsVariableLengthScalar(it.tag)) {
      parts->var_lens.push_back(static_cast<uint32_t>(it.var.size()));
      PutString(&parts->var_bytes, it.var);
    } else {
      int width = FixedWidthOf(it.tag);
      if (width > 0) PutBytes(&parts->fixed, it.fixed, static_cast<size_t>(width));
    }
    return Status::OK();
  }
  void Close(Scope*) {
    if (parts != nullptr) parts->tags.push_back(static_cast<uint8_t>(AdmTag::kEndNest));
  }
};

/// Infers the record into `schema`, and writes its compacted form to `out`
/// when `out` is set.
Status FlushWalk(const VectorRecordView& view, const DatasetType& type,
                 Schema* schema, Buffer* out) {
  thread_local Parts parts;
  if (out != nullptr) {
    TC_RETURN_IF_ERROR(view.Validate());
    if (view.compacted()) {
      return Status::InvalidArgument("vb: record is already compacted");
    }
    parts.Reset(/*compact=*/true);
  }
  FlushVisitor flush{schema, out != nullptr ? &parts : nullptr};
  TC_RETURN_IF_ERROR(WalkRecordScopes(view, type, schema, &flush));
  schema->BumpVersion();
  if (out != nullptr) {
    parts.tags.push_back(static_cast<uint8_t>(AdmTag::kEov));
    Assemble(parts, out);
  }
  return Status::OK();
}

/// The anti-schema (paper §3.2.2, Figure 11), the inverse of FlushVisitor's
/// inference: each value finds its node on the way down and gives back its
/// occurrence on the way up (a scalar at once, a nested value at its
/// kEndNest), pruning a node whose counter reaches zero and collapsing a
/// union left with one variant. With `demand` set it is the check pass over
/// the untouched schema instead: it only resolves, listing each node (and
/// union) once per occurrence the record would give back — except nodes
/// counting at least `max_demand`, the record's tag count, which no record
/// this size can exhaust.
struct AntiSchemaVisitor {
  struct Scope {
    SchemaNode* node = nullptr;        // null inside a declared field's subtree
    SchemaNode::Ptr* slot = nullptr;   // the cell holding `node` or its union
    SchemaNode* uni = nullptr;         // the union `node` is a variant of
    SchemaNode* parent = nullptr;      // the object `node` is a field of
    uint32_t id = 0;                   // the field's FieldNameID there
  };
  Schema* schema;
  std::vector<const SchemaNode*>* demand;  // null: the removal pass
  uint64_t max_demand = 0;

  Scope Root() { return {schema->root()}; }
  Status Item(const VectorRecordWalker::Item& it, const Scope& parent,
              const TypeDescriptor* /*parent_decl*/, Scope* child) {
    if (parent.node == nullptr || it.declared) return Status::OK();
    Scope s;
    if (it.named) {
      std::string_view name = it.name;
      if (HasInlineName(it)) {
        s.id = schema->dict().Lookup(it.name);
        if (s.id == FieldNameDictionary::kInvalidId) {
          return Status::Corruption("anti-schema references unknown field '" +
                                    std::string(name) + "'");
        }
      } else {
        s.id = it.name_id;
        name = schema->dict().NameOf(s.id);
      }
      s.slot = parent.node->FindFieldSlot(s.id);
      if (s.slot == nullptr || *s.slot == nullptr) {
        return Status::Corruption("anti-schema references absent field '" +
                                  std::string(name) + "'");
      }
      s.parent = parent.node;
    } else {
      if (parent.node->item() == nullptr) {
        return Status::Corruption("anti-schema item type missing from collection");
      }
      s.slot = parent.node->ItemSlot();
    }
    s.node = s.slot->get();
    if (s.node->tag() == AdmTag::kUnion) {
      s.uni = s.node;
      s.node = s.uni->FindVariant(it.tag);
      if (s.node == nullptr) {
        return Status::Corruption("anti-schema type not present in union");
      }
    } else if (s.node->tag() != it.tag) {
      return Status::Corruption(std::string("anti-schema type mismatch: schema has ") +
                                AdmTagName(s.node->tag()) + ", record has " +
                                AdmTagName(it.tag));
    }
    if (demand != nullptr) {
      if (s.node->count() < max_demand) demand->push_back(s.node);
      if (s.uni != nullptr && s.uni->count() < max_demand) demand->push_back(s.uni);
    }
    if (IsNested(it.tag)) {
      *child = s;
    } else {
      Close(&s);
    }
    return Status::OK();
  }
  void Close(Scope* s) {
    if (s->node == nullptr || demand != nullptr) return;
    const AdmTag tag = s->node->tag();
    s->node->Decrement();
    if (s->uni != nullptr) {
      s->uni->Decrement();
      if (s->node->count() == 0) s->uni->RemoveVariant(tag);
      if (s->uni->count() == 0) {
        s->slot->reset();
      } else if (s->uni->variant_count() == 1) {
        *s->slot = s->uni->TakeVariant(0);  // collapse union(T) -> T
      }
    } else if (s->node->count() == 0) {
      s->slot->reset();
    }
    if (s->parent != nullptr && *s->slot == nullptr) s->parent->RemoveField(s->id);
  }
};

}  // namespace

Status InferVectorRecord(const VectorRecordView& view, const DatasetType& type,
                         Schema* schema) {
  return FlushWalk(view, type, schema, nullptr);
}

Status InferAndCompactVectorRecord(const VectorRecordView& view,
                                   const DatasetType& type, Schema* schema,
                                   Buffer* out) {
  return FlushWalk(view, type, schema, out);
}

Status RemoveVectorRecord(const VectorRecordView& view, const DatasetType& type,
                          Schema* schema) {
  // All or nothing: the check pass resolves the whole record against the
  // untouched schema, and every node must count at least the occurrences the
  // record gives back to it, so bytes the decoder rejects, a value the schema
  // lacks and an over-removal all fail before the first decrement. A
  // compacted record's FieldNameIDs resolve through the current schema, a
  // superset of the one it was compacted under (IDs are stable).
  TC_RETURN_IF_ERROR(view.Validate());
  std::vector<const SchemaNode*> demand;
  AntiSchemaVisitor check{schema, &demand, view.tag_count()};
  TC_RETURN_IF_ERROR(WalkRecordScopes(view, type, schema, &check));
  if (schema->root()->count() == 0) {
    return Status::Corruption("anti-schema applied to empty schema");
  }
  std::sort(demand.begin(), demand.end(), std::less<const SchemaNode*>());
  for (size_t i = 0, j = 0; i < demand.size(); i = j) {
    while (j < demand.size() && demand[j] == demand[i]) ++j;
    if (demand[i]->count() < j - i) {
      return Status::Corruption(
          "anti-schema removes more occurrences than the schema counts");
    }
  }
  AntiSchemaVisitor remove{schema, nullptr};
  TC_RETURN_IF_ERROR(WalkRecordScopes(view, type, schema, &remove));
  schema->root()->Decrement();
  schema->BumpVersion();
  return Status::OK();
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
