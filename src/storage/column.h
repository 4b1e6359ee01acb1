#ifndef HYPER_STORAGE_COLUMN_H_
#define HYPER_STORAGE_COLUMN_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace hyper {

/// Sparse cell overrides for one table: attribute index -> row -> value.
/// Ordered maps keep patch application (and anything fingerprinting the
/// cells) deterministic. Structurally identical to the scenario-branch
/// delta maps, so branch overrides flow into ColumnTable::ApplyOverrides
/// without conversion.
using AttributeCellOverrides = std::map<size_t, Value>;
using TableCellOverrides = std::map<size_t, AttributeCellOverrides>;

/// Shared string interner: every distinct string is stored once and addressed
/// by a dense int32 code. Codes are assigned in first-intern order, so two
/// ColumnTables built over the same Dictionary agree on codes and equi-joins /
/// group-bys can hash 4-byte codes instead of strings. Code order is NOT
/// lexicographic — ordered comparisons must go through the strings.
class Dictionary {
 public:
  static constexpr int32_t kNullCode = -1;

  /// Returns the code of `s`, interning it first when absent.
  int32_t Intern(const std::string& s);

  /// Returns the code of `s`, or kNullCode when it was never interned.
  int32_t Find(const std::string& s) const;

  const std::string& at(int32_t code) const { return strings_[code]; }
  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, int32_t> index_;
};

/// Physical representation of one column of a ColumnTable.
enum class ColumnKind {
  kInt64 = 0,  // data in i64
  kDouble,     // data in f64
  kBool,       // data in b8 (0/1)
  kCode,       // dictionary codes in codes (kNullCode for NULL)
};

const char* ColumnKindName(ColumnKind kind);

/// One typed column. Exactly one of the payload vectors is populated
/// (matching `kind`); `nulls` is empty when the column has no NULLs,
/// otherwise a parallel 0/1 mask.
struct Column {
  ColumnKind kind = ColumnKind::kDouble;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> b8;
  std::vector<int32_t> codes;
  std::vector<uint8_t> nulls;

  bool has_nulls() const { return !nulls.empty(); }
  bool is_null(size_t row) const { return !nulls.empty() && nulls[row] != 0; }
  size_t num_rows() const;
};

/// Column-major image of a Table: typed vectors per attribute with string
/// columns dictionary-encoded against a (shareable) interner.
///
/// ColumnTable is a read-optimized projection, not a second source of truth:
/// engines build one from the row store once per query and stream over the
/// typed vectors. Copies share their columns (copy-on-write), so a patched
/// copy of a cached image (ApplyOverrides) holds only the columns it wrote. The physical kind of each column is inferred from the
/// stored values (the row store is loosely typed); a column mixing ints and
/// doubles is promoted to kDouble, which preserves Equals/Compare/Hash
/// semantics for every value the generators produce (|int| < 2^53).
class ColumnTable {
 public:
  /// Builds the columnar image of `table`. `dict` may be shared across
  /// tables; when null a fresh dictionary is created. Errors when a column
  /// mixes strings with non-strings.
  static Result<ColumnTable> FromTable(
      const Table& table, std::shared_ptr<Dictionary> dict = nullptr);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& col(size_t attr) const { return *columns_[attr]; }
  const Dictionary& dict() const { return *dict_; }
  const std::shared_ptr<Dictionary>& shared_dict() const { return dict_; }

  /// Reconstructs the Value at (row, attr). Mixed int/double columns come
  /// back as kDouble (Equals-compatible with the original ints).
  Value GetValue(size_t row, size_t attr) const;

  /// Numeric image of a column: bool -> 0/1, int -> double. Errors on kCode
  /// columns and on NULLs (same contract as Value::AsDouble).
  Result<std::vector<double>> ColumnAsDoubles(size_t attr) const;

  /// Materializes a row store with the same schema and Equals-equal values
  /// (used by tests and by callers that need the row API back).
  Table ToTable() const;

  /// Patches this image in place from sparse cell overrides (attribute ->
  /// row -> value), the delta-aware alternative to re-encoding a whole
  /// patched table through FromTable. Cells beyond the table shape are
  /// skipped (matching the scenario service's stale-override semantics).
  ///
  /// Total over what FromTable accepts: the image afterwards is value-for-
  /// value (Equals) identical to FromTable over the patched rows, and the
  /// call fails exactly when that FromTable would, with the same
  /// InvalidArgument (a column left holding strings beside numbers). A cell
  /// that does not fit its column's kind widens the column the way FromTable
  /// infers it: a double, or a bool beside ints, turns a kInt64 column into
  /// kDouble, and an int or double does the same to a kBool column. A column
  /// whose every surviving value is overridden takes the overrides' kind.
  /// The kind may stay wider than a rebuild would infer (overrides erasing a
  /// column's only double keep it kDouble), which preserves
  /// Equals/Compare/Hash semantics per the mixed-column contract.
  ///
  /// Columns are shared copy-on-write between copies of an image, so a copy
  /// costs O(columns) and a patch copies only the columns it writes. A
  /// string override absent from the dictionary triggers a private copy of
  /// the dictionary before interning. Either way the images sharing the
  /// original storage (the patch source) are never mutated under concurrent
  /// reads.
  ///
  /// Every column's new kind is resolved before any cell is written, so an
  /// error leaves the image untouched; large patches are then applied in
  /// parallel per segment (disjoint row ranges, so the result is independent
  /// of thread count).
  Status ApplyOverrides(const TableCellOverrides& overrides);

  /// Fixed segment size for parallel kernels: ApplyOverrides, When-mask
  /// evaluation, and batch evaluation shard per segment, and a branch delta
  /// touches only its dirty segments.
  static constexpr size_t kSegmentRows = 65536;

  /// Number of kSegmentRows-sized segments covering the rows (0 when empty).
  size_t num_segments() const {
    return (num_rows_ + kSegmentRows - 1) / kSegmentRows;
  }

  /// Row range [begin, end) of segment `seg`.
  std::pair<size_t, size_t> SegmentBounds(size_t seg) const {
    const size_t begin = seg * kSegmentRows;
    return {begin, std::min(begin + kSegmentRows, num_rows_)};
  }

  /// Sorted ids of the segments containing at least one in-shape override
  /// cell (stale cells beyond the table shape are ignored, matching
  /// ApplyOverrides).
  std::vector<size_t> DirtySegments(const TableCellOverrides& overrides) const;

 private:
  /// Column `attr` for writing: copied first when another image shares it.
  Column& MutableColumn(size_t attr);

  Schema schema_;
  size_t num_rows_ = 0;
  /// Shared between copies of the image; written only through
  /// MutableColumn, which detaches a shared column first.
  std::vector<std::shared_ptr<Column>> columns_;
  std::shared_ptr<Dictionary> dict_;
};

}  // namespace hyper

#endif  // HYPER_STORAGE_COLUMN_H_
