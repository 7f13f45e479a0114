// In-memory tree representation of an ADM value (a record, array, or scalar).
// This is the transient form used at ingestion boundaries and by the query
// engine; on-disk records use the physical formats in src/format.
#ifndef TC_ADM_VALUE_H_
#define TC_ADM_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adm/types.h"
#include "common/status.h"

namespace tc {

/// The deepest nesting a value may have, counted as AdmValue::Depth counts it:
/// a top-level value is level 1, its fields or items level 2, and so on. The
/// ADM parser refuses deeper text, the vector-based encoder deeper values and
/// its decoder deeper bytes, so no stored record is one the engine would
/// refuse to read, and no reader recurses or allocates per level past it.
inline constexpr int kMaxNestingDepth = 512;

/// Tagged tree value. Scalars hold their payload inline; objects hold ordered
/// (name, value) pairs; collections hold ordered items.
class AdmValue {
 public:
  AdmValue() : tag_(AdmTag::kMissing) {}
  explicit AdmValue(AdmTag tag) : tag_(tag) {}

  // -- scalar factories ------------------------------------------------------
  static AdmValue Missing() { return AdmValue(AdmTag::kMissing); }
  static AdmValue Null() { return AdmValue(AdmTag::kNull); }
  static AdmValue Boolean(bool v) {
    AdmValue a(AdmTag::kBoolean);
    a.i_ = v ? 1 : 0;
    return a;
  }
  static AdmValue TinyInt(int8_t v) { return IntOf(AdmTag::kTinyInt, v); }
  static AdmValue SmallInt(int16_t v) { return IntOf(AdmTag::kSmallInt, v); }
  static AdmValue Int(int32_t v) { return IntOf(AdmTag::kInt, v); }
  static AdmValue BigInt(int64_t v) { return IntOf(AdmTag::kBigInt, v); }
  static AdmValue Float(float v) {
    AdmValue a(AdmTag::kFloat);
    a.d_ = v;
    return a;
  }
  static AdmValue Double(double v) {
    AdmValue a(AdmTag::kDouble);
    a.d_ = v;
    return a;
  }
  static AdmValue String(std::string v) {
    AdmValue a(AdmTag::kString);
    a.s_ = std::move(v);
    return a;
  }
  static AdmValue Binary(std::string v) {
    AdmValue a(AdmTag::kBinary);
    a.s_ = std::move(v);
    return a;
  }
  static AdmValue Uuid(std::string raw16) {
    TC_CHECK(raw16.size() == 16);
    AdmValue a(AdmTag::kUuid);
    a.s_ = std::move(raw16);
    return a;
  }
  static AdmValue Date(int32_t days) { return IntOf(AdmTag::kDate, days); }
  static AdmValue Time(int32_t ms) { return IntOf(AdmTag::kTime, ms); }
  static AdmValue DateTime(int64_t ms) { return IntOf(AdmTag::kDateTime, ms); }
  static AdmValue Duration(int64_t ms) { return IntOf(AdmTag::kDuration, ms); }
  static AdmValue Point(double x, double y) {
    AdmValue a(AdmTag::kPoint);
    a.d_ = x;
    a.y_ = y;
    return a;
  }

  // -- nested factories ------------------------------------------------------
  static AdmValue Object() { return AdmValue(AdmTag::kObject); }
  static AdmValue Array() { return AdmValue(AdmTag::kArray); }
  static AdmValue Multiset() { return AdmValue(AdmTag::kMultiset); }

  AdmTag tag() const { return tag_; }
  bool is_object() const { return tag_ == AdmTag::kObject; }
  bool is_collection() const { return IsCollection(tag_); }
  bool is_scalar() const { return IsScalar(tag_); }

  // -- scalar accessors (caller must respect the tag) -------------------------
  bool bool_value() const { return i_ != 0; }
  int64_t int_value() const { return i_; }
  double double_value() const { return d_; }
  const std::string& string_value() const { return s_; }
  double point_x() const { return d_; }
  double point_y() const { return y_; }

  // -- in-place scalar payload, for a value emplaced with its tag (the caller
  //    must respect the tag, as with the accessors) ---------------------------
  void set_int(int64_t v) { i_ = v; }  // boolean (0/1), integer, temporal
  void set_double(double v) { d_ = v; }
  void set_point(double x, double y) {
    d_ = x;
    y_ = y;
  }
  // string, binary, uuid
  void set_bytes(std::string_view b) { s_.assign(b.data(), b.size()); }

  // -- object interface --------------------------------------------------------
  /// Appends a field; names are expected unique within one object.
  AdmValue& AddField(std::string name, AdmValue v) {
    field_names_.push_back(std::move(name));
    children_.push_back(std::move(v));
    return children_.back();
  }
  /// Appends a field holding an empty value of kind `tag` and returns it, so
  /// a reader builds the value in its slot instead of moving it there.
  AdmValue& EmplaceField(std::string_view name, AdmTag tag) {
    field_names_.emplace_back(name);
    return children_.emplace_back(tag);
  }
  size_t field_count() const { return field_names_.size(); }
  const std::string& field_name(size_t i) const { return field_names_[i]; }
  const AdmValue& field_value(size_t i) const { return children_[i]; }
  AdmValue& field_value(size_t i) { return children_[i]; }

  /// Returns the value of the named field, or nullptr when absent.
  const AdmValue* FindField(std::string_view name) const {
    for (size_t i = 0; i < field_names_.size(); ++i) {
      if (field_names_[i] == name) return &children_[i];
    }
    return nullptr;
  }

  /// Removes the named field if present; returns true when removed.
  bool RemoveField(std::string_view name) {
    for (size_t i = 0; i < field_names_.size(); ++i) {
      if (field_names_[i] == name) {
        field_names_.erase(field_names_.begin() + static_cast<ptrdiff_t>(i));
        children_.erase(children_.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  // -- collection interface ----------------------------------------------------
  AdmValue& Append(AdmValue v) {
    children_.push_back(std::move(v));
    return children_.back();
  }
  /// Appends an empty item of kind `tag` and returns it (see EmplaceField).
  AdmValue& EmplaceItem(AdmTag tag) { return children_.emplace_back(tag); }
  /// Room for `n` fields (names too) or items without regrowing.
  void Reserve(size_t n) {
    if (is_object()) field_names_.reserve(n);
    children_.reserve(n);
  }
  size_t size() const { return children_.size(); }
  const AdmValue& item(size_t i) const { return children_[i]; }
  AdmValue& item(size_t i) { return children_[i]; }

  /// Deep structural equality. Object fields compare in order (ADM objects
  /// preserve field order); multisets compare in order as well, which is
  /// stricter than bag semantics but sufficient for round-trip testing.
  bool operator==(const AdmValue& o) const;
  bool operator!=(const AdmValue& o) const { return !(*this == o); }

  /// Number of scalar leaves in the tree (used by workload validation).
  size_t CountScalars() const;
  /// Maximum nesting depth; a scalar has depth 1.
  size_t Depth() const;

 private:
  static AdmValue IntOf(AdmTag t, int64_t v) {
    AdmValue a(t);
    a.i_ = v;
    return a;
  }

  AdmTag tag_;
  int64_t i_ = 0;
  double d_ = 0;
  double y_ = 0;
  std::string s_;
  std::vector<std::string> field_names_;  // objects only, parallel to children_
  std::vector<AdmValue> children_;        // object field values or collection items
};

/// Three-valued-logic-collapsed scalar comparison: true iff `v` is a scalar
/// comparable with `literal` and `v op literal` holds. Missing, null, nested
/// values, and cross-family comparisons (e.g. string vs bigint) are false for
/// EVERY operator, including kNe — the SQL++ unknown-propagates-to-false WHERE
/// semantics. Integer-family pairs compare as int64; mixed numeric pairs as
/// double; string/binary/uuid lexicographically within their own family;
/// booleans support kEq/kNe only. `fold_case` folds ASCII case on string
/// comparisons. This is the semantic contract the packed-leaf kernels in
/// format/vector_format.h must reproduce bit-for-bit.
bool AdmScalarSatisfies(const AdmValue& v, CompareOp op, const AdmValue& literal,
                        bool fold_case = false);

}  // namespace tc

#endif  // TC_ADM_VALUE_H_
