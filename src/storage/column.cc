#include "storage/column.h"

#include "common/strings.h"
#include "common/thread_pool.h"

namespace hyper {

int32_t Dictionary::Intern(const std::string& s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const int32_t code = static_cast<int32_t>(strings_.size());
  strings_.push_back(s);
  index_.emplace(s, code);
  return code;
}

int32_t Dictionary::Find(const std::string& s) const {
  auto it = index_.find(s);
  return it == index_.end() ? kNullCode : it->second;
}

const char* ColumnKindName(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kInt64: return "int64";
    case ColumnKind::kDouble: return "double";
    case ColumnKind::kBool: return "bool";
    case ColumnKind::kCode: return "code";
  }
  return "?";
}

size_t Column::num_rows() const {
  switch (kind) {
    case ColumnKind::kInt64: return i64.size();
    case ColumnKind::kDouble: return f64.size();
    case ColumnKind::kBool: return b8.size();
    case ColumnKind::kCode: return codes.size();
  }
  return 0;
}

namespace {

/// Physical kind for a column given the value types it actually holds,
/// falling back to the declared type for all-NULL columns.
Result<ColumnKind> InferKind(const Table& table, size_t attr) {
  bool saw_string = false, saw_double = false, saw_int = false,
       saw_bool = false, saw_numeric = false;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    switch (table.At(r, attr).type()) {
      case ValueType::kNull: break;
      case ValueType::kBool: saw_bool = true; saw_numeric = true; break;
      case ValueType::kInt: saw_int = true; saw_numeric = true; break;
      case ValueType::kDouble: saw_double = true; saw_numeric = true; break;
      case ValueType::kString: saw_string = true; break;
    }
  }
  if (saw_string && saw_numeric) {
    return Status::InvalidArgument(
        "column '" + table.schema().attribute(attr).name +
        "' mixes strings with numeric values; cannot columnarize");
  }
  if (saw_string) return ColumnKind::kCode;
  if (saw_double) return ColumnKind::kDouble;
  if (saw_int && saw_bool) return ColumnKind::kDouble;
  if (saw_int) return ColumnKind::kInt64;
  if (saw_bool) return ColumnKind::kBool;
  // All NULL: shape after the declared type.
  switch (table.schema().attribute(attr).type) {
    case ValueType::kString: return ColumnKind::kCode;
    case ValueType::kInt: return ColumnKind::kInt64;
    case ValueType::kBool: return ColumnKind::kBool;
    default: return ColumnKind::kDouble;
  }
}

}  // namespace

Result<ColumnTable> ColumnTable::FromTable(const Table& table,
                                           std::shared_ptr<Dictionary> dict) {
  ColumnTable out;
  out.schema_ = table.schema();
  out.num_rows_ = table.num_rows();
  out.dict_ = dict != nullptr ? std::move(dict)
                              : std::make_shared<Dictionary>();
  const size_t n = table.num_rows();
  const size_t num_attrs = table.schema().num_attributes();
  out.columns_.reserve(num_attrs);

  for (size_t a = 0; a < num_attrs; ++a) {
    Column& col = *out.columns_.emplace_back(std::make_shared<Column>());
    HYPER_ASSIGN_OR_RETURN(col.kind, InferKind(table, a));
    switch (col.kind) {
      case ColumnKind::kInt64: col.i64.resize(n); break;
      case ColumnKind::kDouble: col.f64.resize(n); break;
      case ColumnKind::kBool: col.b8.resize(n); break;
      case ColumnKind::kCode: col.codes.resize(n); break;
    }
    for (size_t r = 0; r < n; ++r) {
      const Value& v = table.At(r, a);
      if (v.is_null()) {
        if (col.nulls.empty()) col.nulls.resize(n, 0);
        col.nulls[r] = 1;
        switch (col.kind) {
          case ColumnKind::kInt64: col.i64[r] = 0; break;
          case ColumnKind::kDouble: col.f64[r] = 0.0; break;
          case ColumnKind::kBool: col.b8[r] = 0; break;
          case ColumnKind::kCode: col.codes[r] = Dictionary::kNullCode; break;
        }
        continue;
      }
      switch (col.kind) {
        case ColumnKind::kInt64:
          col.i64[r] = v.int_value();
          break;
        case ColumnKind::kDouble:
          col.f64[r] = v.AsDouble().value();
          break;
        case ColumnKind::kBool:
          col.b8[r] = v.bool_value() ? 1 : 0;
          break;
        case ColumnKind::kCode:
          col.codes[r] = out.dict_->Intern(v.string_value());
          break;
      }
    }
  }
  return out;
}

Value ColumnTable::GetValue(size_t row, size_t attr) const {
  const Column& col = *columns_[attr];
  if (col.is_null(row)) return Value::Null();
  switch (col.kind) {
    case ColumnKind::kInt64: return Value::Int(col.i64[row]);
    case ColumnKind::kDouble: return Value::Double(col.f64[row]);
    case ColumnKind::kBool: return Value::Bool(col.b8[row] != 0);
    case ColumnKind::kCode: return Value::String(dict_->at(col.codes[row]));
  }
  return Value::Null();
}

Result<std::vector<double>> ColumnTable::ColumnAsDoubles(size_t attr) const {
  const Column& col = *columns_[attr];
  if (col.kind == ColumnKind::kCode) {
    return Status::InvalidArgument(
        "cannot coerce string column '" + schema_.attribute(attr).name +
        "' to numbers");
  }
  if (col.has_nulls()) {
    return Status::InvalidArgument(
        "cannot coerce NULL to a number (column '" +
        schema_.attribute(attr).name + "')");
  }
  std::vector<double> out(num_rows_);
  switch (col.kind) {
    case ColumnKind::kInt64:
      for (size_t r = 0; r < num_rows_; ++r) {
        out[r] = static_cast<double>(col.i64[r]);
      }
      break;
    case ColumnKind::kDouble:
      out = col.f64;
      break;
    case ColumnKind::kBool:
      for (size_t r = 0; r < num_rows_; ++r) {
        out[r] = col.b8[r] != 0 ? 1.0 : 0.0;
      }
      break;
    case ColumnKind::kCode:
      break;  // handled above
  }
  return out;
}

std::vector<size_t> ColumnTable::DirtySegments(
    const TableCellOverrides& overrides) const {
  std::vector<uint8_t> dirty(num_segments(), 0);
  for (const auto& [attr, cells] : overrides) {
    if (attr >= columns_.size()) continue;
    for (const auto& [row, value] : cells) {
      (void)value;
      if (row >= num_rows_) continue;
      dirty[row / kSegmentRows] = 1;
    }
  }
  std::vector<size_t> out;
  for (size_t s = 0; s < dirty.size(); ++s) {
    if (dirty[s]) out.push_back(s);
  }
  return out;
}

Column& ColumnTable::MutableColumn(size_t attr) {
  // use_count() == 1 means no other image holds the column, and none can
  // gain it without reading this (non-const, hence unshared) image.
  std::shared_ptr<Column>& col = columns_[attr];
  if (col.use_count() != 1) col = std::make_shared<Column>(*col);
  return *col;
}

namespace {

/// Value families present among the in-shape override cells of one column.
struct CellFamilies {
  bool boolean = false, integer = false, real = false, string = false;

  bool numeric() const { return boolean || integer || real; }
};

/// Kind FromTable infers for a column holding only the values `f` saw.
ColumnKind InferredKind(const CellFamilies& f) {
  if (f.string) return ColumnKind::kCode;
  if (f.real || (f.integer && f.boolean)) return ColumnKind::kDouble;
  if (f.integer) return ColumnKind::kInt64;
  return ColumnKind::kBool;
}

/// Turns a kInt64 or kBool column into kDouble holding the same numbers
/// (NULL slots hold 0.0, as FromTable leaves them).
void WidenToDouble(Column* col, size_t n) {
  col->f64.resize(n);
  if (col->kind == ColumnKind::kInt64) {
    for (size_t r = 0; r < n; ++r) {
      col->f64[r] = static_cast<double>(col->i64[r]);
    }
  } else {
    for (size_t r = 0; r < n; ++r) col->f64[r] = col->b8[r] != 0 ? 1.0 : 0.0;
  }
  std::vector<int64_t>().swap(col->i64);
  std::vector<uint8_t>().swap(col->b8);
  col->kind = ColumnKind::kDouble;
}

/// Replaces `col` with an all-NULL column of `kind` (the shape FromTable
/// gives NULL cells); the caller then writes the override cells into it.
void ResetToNulls(Column* col, ColumnKind kind, size_t n) {
  *col = Column();
  col->kind = kind;
  switch (kind) {
    case ColumnKind::kInt64: col->i64.assign(n, 0); break;
    case ColumnKind::kDouble: col->f64.assign(n, 0.0); break;
    case ColumnKind::kBool: col->b8.assign(n, 0); break;
    case ColumnKind::kCode: col->codes.assign(n, Dictionary::kNullCode); break;
  }
  col->nulls.assign(n, 1);
}

}  // namespace

Status ColumnTable::ApplyOverrides(const TableCellOverrides& overrides) {
  // Pass 1 (read-only): resolve the kind every touched column must take to
  // hold its surviving values plus the overrides — the kind FromTable would
  // infer over the patched rows, or a wider numeric one. Nothing is written
  // until every column has resolved, so an error leaves the image untouched.
  enum class Change : uint8_t { kNone, kWiden, kReset };
  struct Plan {
    Change change = Change::kNone;
    ColumnKind kind = ColumnKind::kDouble;
  };
  std::vector<Plan> plans(columns_.size());
  for (const auto& [attr, cells] : overrides) {
    if (attr >= columns_.size()) continue;  // stale override beyond the shape
    const Column& col = *columns_[attr];
    CellFamilies f;
    size_t overwritten_values = 0;  // in-shape cells over a non-NULL value
    for (const auto& [row, value] : cells) {
      if (row >= num_rows_) continue;  // stale override beyond the shape
      if (!col.is_null(row)) ++overwritten_values;
      switch (value.type()) {
        case ValueType::kNull: break;
        case ValueType::kBool: f.boolean = true; break;
        case ValueType::kInt: f.integer = true; break;
        case ValueType::kDouble: f.real = true; break;
        case ValueType::kString: f.string = true; break;
      }
    }
    if (!f.string && !f.numeric()) continue;  // NULLs fit every kind
    const bool holds_strings = col.kind == ColumnKind::kCode;
    if (f.string == holds_strings && !(f.string && f.numeric())) {
      // Same family: strings into kCode, or numbers into a numeric column,
      // which widens to kDouble unless every value already fits its kind.
      const bool fits =
          col.kind == ColumnKind::kCode || col.kind == ColumnKind::kDouble ||
          (col.kind == ColumnKind::kInt64 && !f.real && !f.boolean) ||
          (col.kind == ColumnKind::kBool && !f.real && !f.integer);
      if (!fits) plans[attr] = Plan{Change::kWiden, ColumnKind::kDouble};
      continue;
    }
    // Strings meet numbers. FromTable accepts that only when no value of
    // the column's old family survives the patch.
    size_t values = num_rows_;
    if (col.has_nulls()) {
      for (uint8_t null : col.nulls) values -= null;
    }
    if ((f.string && f.numeric()) || values > overwritten_values) {
      return Status::InvalidArgument(
          "column '" + schema_.attribute(attr).name +
          "' mixes strings with numeric values; cannot columnarize");
    }
    plans[attr] = Plan{Change::kReset, InferredKind(f)};
  }

  // Pass 2 (sequential): apply the kind changes, then intern unseen strings
  // and flatten the cells. The dictionary is detached at most once: the
  // first unseen string pays one deep copy (so the patch source, which
  // shares dict_, is never mutated), every later one interns into the
  // already-private copy. After this pass the dictionary is read-only, so
  // the write pass may run on any thread.
  struct PatchCell {
    Column* col;
    size_t row;
    const Value* value;
    int32_t code;  // resolved dictionary code for kCode cells
  };
  std::vector<PatchCell> cells_flat;
  bool dict_private = false;
  for (const auto& [attr, cells] : overrides) {
    if (attr >= columns_.size()) continue;
    Column* col = nullptr;
    for (const auto& [row, value] : cells) {
      if (row >= num_rows_) continue;
      if (col == nullptr) {
        // First in-shape cell: detach the column and settle its kind.
        col = &MutableColumn(attr);
        if (plans[attr].change == Change::kWiden) {
          WidenToDouble(col, num_rows_);
        } else if (plans[attr].change == Change::kReset) {
          ResetToNulls(col, plans[attr].kind, num_rows_);
        }
      }
      int32_t code = Dictionary::kNullCode;
      if (value.is_null()) {
        if (col->nulls.empty()) col->nulls.resize(num_rows_, 0);
      } else if (col->kind == ColumnKind::kCode) {
        code = dict_->Find(value.string_value());
        if (code == Dictionary::kNullCode) {
          if (!dict_private) {
            dict_ = std::make_shared<Dictionary>(*dict_);
            dict_private = true;
          }
          code = dict_->Intern(value.string_value());
        }
      }
      cells_flat.push_back(PatchCell{col, row, &value, code});
    }
  }

  // Pass 3: write. Cells in different segments touch disjoint rows, so
  // large patches shard per dirty segment — the written image is identical
  // at any thread count (each cell is written exactly once, by one shard).
  const auto patch_one = [](const PatchCell& cell) {
    Column& col = *cell.col;
    const Value& value = *cell.value;
    if (value.is_null()) {
      col.nulls[cell.row] = 1;
      switch (col.kind) {
        case ColumnKind::kInt64: col.i64[cell.row] = 0; break;
        case ColumnKind::kDouble: col.f64[cell.row] = 0.0; break;
        case ColumnKind::kBool: col.b8[cell.row] = 0; break;
        case ColumnKind::kCode:
          col.codes[cell.row] = Dictionary::kNullCode;
          break;
      }
      return;
    }
    switch (col.kind) {
      case ColumnKind::kInt64: col.i64[cell.row] = value.int_value(); break;
      case ColumnKind::kDouble:
        col.f64[cell.row] = value.AsDouble().value();
        break;
      case ColumnKind::kBool:
        col.b8[cell.row] = value.bool_value() ? 1 : 0;
        break;
      case ColumnKind::kCode: col.codes[cell.row] = cell.code; break;
    }
    if (!col.nulls.empty()) col.nulls[cell.row] = 0;
  };

  constexpr size_t kParallelPatchThreshold = 8192;
  if (cells_flat.size() < kParallelPatchThreshold || num_segments() <= 1) {
    for (const PatchCell& cell : cells_flat) patch_one(cell);
    return Status::OK();
  }
  std::vector<std::vector<PatchCell>> per_seg(num_segments());
  for (const PatchCell& cell : cells_flat) {
    per_seg[cell.row / kSegmentRows].push_back(cell);
  }
  std::vector<size_t> dirty;
  for (size_t s = 0; s < per_seg.size(); ++s) {
    if (!per_seg[s].empty()) dirty.push_back(s);
  }
  ThreadPool::Shared().ParallelFor(dirty.size(), [&](size_t d) {
    for (const PatchCell& cell : per_seg[dirty[d]]) patch_one(cell);
  });
  return Status::OK();
}

Table ColumnTable::ToTable() const {
  Table out(schema_);
  for (size_t r = 0; r < num_rows_; ++r) {
    Row row;
    row.reserve(columns_.size());
    for (size_t a = 0; a < columns_.size(); ++a) {
      row.push_back(GetValue(r, a));
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

}  // namespace hyper
