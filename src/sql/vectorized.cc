#include "sql/vectorized.h"

#include <cmath>

namespace odh::sql {
namespace {

inline bool InRange(double v, double min, double max, bool min_exclusive,
                    bool max_exclusive) {
  // NaN fails every comparison, so missing values drop out for free.
  if (min_exclusive ? !(v > min) : !(v >= min)) return false;
  if (max_exclusive ? !(v < max) : !(v <= max)) return false;
  return true;
}

}  // namespace

void FilterByRange(const std::vector<double>& column, double min, double max,
                   bool min_exclusive, bool max_exclusive,
                   ColumnBatch* batch) {
  const size_t n = batch->rows();
  if (column.size() < n) {
    // Unprojected column: every value reads as NULL, nothing matches.
    batch->sel.clear();
    batch->sel_all = false;
    return;
  }
  std::vector<int32_t> out;
  if (batch->sel_all) {
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (InRange(column[i], min, max, min_exclusive, max_exclusive)) {
        out.push_back(static_cast<int32_t>(i));
      }
    }
    if (out.size() == n) return;  // Everything passed; stay sel_all.
  } else {
    out.reserve(batch->sel.size());
    for (int32_t i : batch->sel) {
      if (InRange(column[i], min, max, min_exclusive, max_exclusive)) {
        out.push_back(i);
      }
    }
  }
  batch->sel = std::move(out);
  batch->sel_all = false;
}

namespace {

/// Row-at-a-time view over a batch stream (see MakeBatchRowAdapter).
class BatchRowAdapter : public RowCursor {
 public:
  explicit BatchRowAdapter(std::unique_ptr<BatchCursor> batches)
      : batches_(std::move(batches)) {}

  Result<bool> Next(Row* row) override {
    if (!poison_.ok()) return poison_;
    while (true) {
      if (pos_ < batch_.selected()) {
        const size_t i = batch_.sel_all
                             ? pos_
                             : static_cast<size_t>(batch_.sel[pos_]);
        ++pos_;
        row->clear();
        row->reserve(2 + batch_.tags.size());
        row->push_back(Datum::Int64(batch_.id_at(i)));
        row->push_back(Datum::Time(batch_.timestamps[i]));
        for (const auto& col : batch_.tags) {
          if (col.size() <= i || std::isnan(col[i])) {
            row->push_back(Datum::Null());
          } else {
            row->push_back(Datum::Double(col[i]));
          }
        }
        return true;
      }
      // Batches may come back empty (fully filtered); keep pulling.
      pos_ = 0;
      Result<bool> more = batches_->Next(&batch_);
      if (!more.ok()) return poison_ = more.status();
      if (!more.value()) return false;
    }
  }

 private:
  std::unique_ptr<BatchCursor> batches_;
  ColumnBatch batch_;
  size_t pos_ = 0;
  Status poison_;  // First error seen; repeated by every later Next.
};

}  // namespace

std::unique_ptr<RowCursor> MakeBatchRowAdapter(
    std::unique_ptr<BatchCursor> batches) {
  return std::make_unique<BatchRowAdapter>(std::move(batches));
}

}  // namespace odh::sql
