#ifndef ODH_SQL_VECTORIZED_H_
#define ODH_SQL_VECTORIZED_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "sql/table_provider.h"

namespace odh::sql {

/// One decoded ValueBlob in columnar (tag-major) form — what a virtual
/// table's scan hands to the kernels below. Column 0 of the table maps to
/// `ids`, column 1 to `timestamps`, and table column `2 + t` to `tags[t]`.
///
/// Contract:
///  - `timestamps.size()` is the batch row count.
///  - `ids` is either full-size or empty; empty means every row shares
///    `uniform_id` (the common case: one blob = one source).
///  - Each `tags[t]` is either full-size (NaN = SQL NULL) or empty; empty
///    means the column was not projected and reads as all-NULL. This is
///    where the blob layout saves work: unprojected tags are never decoded.
///  - `sel` is the selection vector produced by vectorized filtering:
///    ascending row indexes that passed every range kernel run on it. When
///    `sel_all` is true the whole batch passed and `sel` is not populated.
struct ColumnBatch {
  SourceId uniform_id = -1;
  std::vector<SourceId> ids;
  std::vector<Timestamp> timestamps;
  std::vector<std::vector<double>> tags;
  std::vector<int32_t> sel;
  bool sel_all = true;

  size_t rows() const { return timestamps.size(); }
  size_t selected() const { return sel_all ? rows() : sel.size(); }
  SourceId id_at(size_t i) const { return ids.empty() ? uniform_id : ids[i]; }
  void clear() {
    uniform_id = -1;
    ids.clear();
    timestamps.clear();
    tags.clear();
    sel.clear();
    sel_all = true;
  }
};

/// Pull-based batch stream: one decoded blob (or dirty-buffer slice) per
/// call, with the pushed tag ranges already applied via the selection
/// vector.
/// Subject to the same poison contract as RowCursor: after a non-OK
/// Result, every further Next returns the same error.
class BatchCursor {
 public:
  virtual ~BatchCursor() = default;
  /// Produces the next batch into *batch; returns false at end of stream.
  /// Batches may be empty after filtering (selected() == 0); callers must
  /// keep pulling until the cursor reports end of stream.
  virtual Result<bool> Next(ColumnBatch* batch) = 0;
};

/// Vectorized range-filter kernel: intersects *batch's selection vector
/// with the rows whose `column` value lies within [min, max] (strict on a
/// side when the matching exclusive flag is set). NaN values — and every
/// row, when `column` is empty (unprojected, reads as all-NULL) — never
/// match, mirroring SQL comparison semantics.
void FilterByRange(const std::vector<double>& column, double min, double max,
                   bool min_exclusive, bool max_exclusive,
                   ColumnBatch* batch);

/// Adapts a BatchCursor to the row-at-a-time contract: assembles
/// [id BIGINT, ts TIMESTAMP, <tags> DOUBLE...] rows from each batch's
/// selection vector. NaN tag values and unprojected (empty) columns
/// surface as SQL NULL. Every plan node consumes rows, so this is where a
/// virtual-table scan hands its batches to the engine.
std::unique_ptr<RowCursor> MakeBatchRowAdapter(
    std::unique_ptr<BatchCursor> batches);

}  // namespace odh::sql

#endif  // ODH_SQL_VECTORIZED_H_
