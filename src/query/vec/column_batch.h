// The column-batch exchange format of the vectorized execution engine
// (ROADMAP "Vectorized batch query execution"; after the authors' follow-up,
// Columnar Formats for Schemaless LSM-based Document Stores, arXiv 2111.11517):
// operators exchange batches of kDefaultVecBatchRows rows instead of one row
// per virtual Next(), and each extracted path becomes a typed column vector.
//
// A ColumnVector adapts to the data it sees, because schemaless records give
// no static column type: the first typed value picks the storage family
// (int64, double, or a string arena), later values of the same family append
// without any AdmValue materialization, and a family mismatch — or a nested
// value handed to AppendValue — demotes the column to a plain AdmValue vector
// with identical semantics. The arrays that [*] wildcard paths produce get a
// list family instead: a per-row item end offset into a child ColumnVector
// that adapts like any other column (doubles for readings[*].temp, the string
// arena for hashtags[*].text). Missing/null rows are representable in every
// storage family. The per-row ADM tag is always retained, so ValueAt()
// reconstructs the exact AdmValue RecordAccessor::GetValues returns — the
// fast-path and inferred-vs-ADM equivalence tests depend on that.
#ifndef TC_QUERY_VEC_COLUMN_BATCH_H_
#define TC_QUERY_VEC_COLUMN_BATCH_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "common/bytes.h"

namespace tc {

class ColumnVector {
 public:
  /// Physical storage family. kNone = only missing/null seen so far.
  enum class Kind : uint8_t { kNone, kInt64, kDouble, kString, kList, kValue };

  void Clear();
  size_t size() const { return tags_.size(); }
  Kind kind() const { return kind_; }

  /// The exact ADM tag of row `i` (kMissing for absent values).
  AdmTag TagAt(size_t i) const { return tags_[i]; }
  bool HasValueAt(size_t i) const {
    return tags_[i] != AdmTag::kMissing && tags_[i] != AdmTag::kNull;
  }

  // -- producers ------------------------------------------------------------
  void AppendMissing() { AppendValueless(AdmTag::kMissing); }
  void AppendNull() { AppendValueless(AdmTag::kNull); }
  /// `tag` must be an int-family or boolean tag.
  void AppendInt64(AdmTag tag, int64_t v);
  /// `tag` must be kFloat or kDouble.
  void AppendDouble(AdmTag tag, double v);
  /// `tag` must be kString, kBinary, or kUuid; bytes are copied into the arena.
  void AppendString(AdmTag tag, std::string_view bytes);
  /// `n` values of one tag at once, the i-th being `load(i)`: one storage
  /// decision for the whole run (a shape run's field). Tags as above.
  template <typename Load>
  void AppendInt64Run(AdmTag tag, size_t n, Load&& load) {
    if (Adopt(Kind::kInt64) != Kind::kInt64) {
      for (size_t i = 0; i < n; ++i) AppendInt64(tag, load(i));
      return;
    }
    tags_.insert(tags_.end(), n, tag);
    for (size_t i = 0; i < n; ++i) ints_.push_back(load(i));
  }
  template <typename Load>
  void AppendDoubleRun(AdmTag tag, size_t n, Load&& load) {
    if (Adopt(Kind::kDouble) != Kind::kDouble) {
      for (size_t i = 0; i < n; ++i) AppendDouble(tag, load(i));
      return;
    }
    tags_.insert(tags_.end(), n, tag);
    for (size_t i = 0; i < n; ++i) doubles_.push_back(load(i));
  }
  /// Generic append: dispatches to the typed paths for scalar families,
  /// demotes the column for everything else (points, nested values).
  void AppendValue(const AdmValue& v);
  /// List rows (kArray; the arrays [*] paths produce): append the row's items
  /// to the column BeginList() returns, then close the row with EndList().
  /// On a demoted (kValue) column the items collect in a scratch column and
  /// EndList() folds them into one array value.
  ColumnVector& BeginList();
  void EndList();
  /// Typed row copy from another column (the join's output assembly): no
  /// AdmValue is materialized when both columns share a storage family.
  void AppendFrom(const ColumnVector& src, size_t i);

  // -- typed readers (valid only for the matching kind + a value at i) ------
  int64_t Int64At(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  std::string_view StringAt(size_t i) const;
  /// kList: row i's items are ListItems() rows [ListBegin(i), ListEnd(i)).
  const ColumnVector& ListItems() const { return child_[0]; }
  uint32_t ListBegin(size_t i) const { return i == 0 ? 0 : ends_[i - 1]; }
  uint32_t ListEnd(size_t i) const { return ends_[i]; }

  /// Materializes row `i` as the AdmValue RecordAccessor::GetValues would
  /// have extracted (exact tag preserved).
  AdmValue ValueAt(size_t i) const;

  /// Approximate heap footprint, for the join's memory accounting. Constant
  /// time: demoted values are costed once, as they append.
  size_t ByteSize() const;

 private:
  void AppendValueless(AdmTag tag);
  /// Ensures typed storage of `want` exists (backfilling placeholder slots for
  /// earlier valueless rows) or demotes to kValue on a family mismatch.
  /// Returns the storage family appends should use.
  Kind Adopt(Kind want);
  void DemoteToValues();
  void PushValue(AdmValue v);
  /// The list item column, created on first use.
  ColumnVector& Items();

  Kind kind_ = Kind::kNone;
  std::vector<AdmTag> tags_;        // one per row, always maintained
  std::vector<int64_t> ints_;       // kInt64
  std::vector<double> doubles_;     // kDouble
  std::vector<uint32_t> ends_;      // kString: arena end, kList: item end, per row
  std::string arena_;               // kString: concatenated bytes
  std::vector<ColumnVector> child_; // kList items (demoted: EndList scratch); 0 or 1
  std::vector<AdmValue> values_;    // kValue
  size_t value_bytes_ = 0;          // kValue: EstimateAdmValueBytes over values_
};

/// One batch flowing between vectorized operators: the extracted columns, a
/// selection vector (filter survivors, applied without copying columns), an
/// optional attached-record column, and the source partition.
struct ColumnBatch {
  std::vector<ColumnVector> cols;
  /// When `sel_active`, only the row indices in `sel` (ascending) are live.
  std::vector<uint32_t> sel;
  bool sel_active = false;
  /// Row count — authoritative even when `cols` is empty (COUNT(*) scans).
  size_t rows = 0;
  /// Aligned with rows when the scan attaches records, else empty.
  std::vector<std::shared_ptr<Buffer>> records;
  int32_t partition = -1;

  /// Clears for refill, keeping column/selection capacity.
  void Reset(size_t num_cols);
  size_t ActiveRows() const { return sel_active ? sel.size() : rows; }
  /// Calls fn(row_index) for every live row, in row order.
  template <typename Fn>
  void ForEachActive(Fn&& fn) const {
    if (sel_active) {
      for (uint32_t i : sel) fn(static_cast<size_t>(i));
    } else {
      for (size_t i = 0; i < rows; ++i) fn(i);
    }
  }
  size_t ByteSize() const;
};

/// Rough heap footprint of an AdmValue tree (join build-side accounting).
size_t EstimateAdmValueBytes(const AdmValue& v);

}  // namespace tc

#endif  // TC_QUERY_VEC_COLUMN_BATCH_H_
