#ifndef ODH_SQL_SORT_SPILL_H_
#define ODH_SQL_SORT_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/datum.h"
#include "common/memory.h"
#include "common/result.h"
#include "storage/spill_file.h"

namespace odh::sql {

/// Three-way Datum comparison for ORDER BY (NULLs sort first; NaN sorts
/// after every non-NaN number and ties with other NaNs; incomparable
/// cross-type pairs compare equal, preserving input order). The single
/// definition every sort path — in-memory, top-N, spilled merge — uses,
/// so spilling can never change result order.
int CompareDatumsForSort(const Datum& a, const Datum& b);

/// Budget-governed stable sorter behind every ORDER BY:
///
///  - With a LIMIT, a bounded top-N heap holds at most `limit` rows
///    (O(limit) memory), provably emitting the same prefix as a full
///    stable sort (ties keep the earlier row).
///  - Without one, rows accumulate in memory; when the query's
///    MemoryTracker refuses the next row, the accumulated rows are
///    sorted and written to a spill run on the store's SimDisk, memory
///    is released, and accumulation continues. Emission k-way-merges the
///    runs, reading one page per run.
///  - A top-N whose kept set itself exceeds the budget degrades to the
///    spill path (every row it had discarded was provably outside the
///    top N, so correctness is unaffected). Degraded, it stays bounded:
///    each run is cut to N rows; once N rows are known, a candidate that
///    does not beat the N-th (the cutoff; ties lose, as in the heap) is
///    discarded unaccounted; and once the final merge's buffers (a page
///    and a head row per run) would take half the tightest budget, the
///    runs are merged into one run of at most N rows, which sets the
///    cutoff.
///  - With no spill disk (or a budget too small for even the merge
///    buffers) the sorter fails fast with ResourceExhausted.
///
/// Stability: every row carries its insertion sequence; all comparisons
/// order ties by sequence, which makes the merge reproduce exactly what
/// std::stable_sort over the whole input would have produced.
class ExternalSorter {
 public:
  struct Options {
    /// Per-key sort direction (size fixes the key arity).
    std::vector<bool> ascending;
    /// Emission cap; -1 = unlimited. >= 0 enables the top-N path.
    int64_t limit = -1;
    /// Budget to charge; nullptr = unbounded (never spills, never fails).
    common::MemoryTracker* memory = nullptr;
    /// Arena for spill I/O buffers (required when spill_disk is set).
    common::Arena* arena = nullptr;
    /// Spill target; nullptr = fail fast instead of spilling.
    storage::SimDisk* spill_disk = nullptr;
    /// Unique per query, e.g. "odh$spill$q42$"; run files append "r<n>".
    std::string spill_name_prefix;
  };

  explicit ExternalSorter(Options options);
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Feeds one row; `keys` must match options.ascending in arity.
  Status Add(std::vector<Datum> keys, Row row);

  /// Seals input and prepares emission (sorts, spills the tail when runs
  /// exist, opens the merge).
  Status Finish();

  /// Emission, after Finish. Rows release their memory as they leave.
  Result<bool> Next(Row* row);

  /// Drops all state eagerly: buffered rows, merge buffers, spill files.
  /// Idempotent; also run by the destructor. Spill-run files are deleted
  /// here — on normal completion, on abandonment, and on error alike.
  void ReleaseAll();

  int64_t spill_runs() const { return static_cast<int64_t>(runs_.size()); }
  int64_t spill_bytes() const { return spill_bytes_; }

 private:
  struct Entry {
    std::vector<Datum> keys;
    Row row;
    int64_t seq = 0;
    int64_t bytes = 0;  // As charged to the tracker.
  };
  /// One run being merged: its reader and the decoded head entry.
  struct MergeSource {
    std::unique_ptr<storage::SpillFileReader> reader;
    Entry head;
    bool exhausted = false;
  };

  /// Total order: keys per ascending flags, then insertion sequence.
  bool EntryLess(const Entry& a, const Entry& b) const;
  int64_t EntryBytes(const Entry& e) const;

  Status ReserveEntry(Entry* e);
  /// Sorts rows_ and writes it out as the next run, releasing its memory
  /// (cut to `limit` rows under a LIMIT); a degraded top-N then merges
  /// its runs when MergeOutgrowsBudget.
  Status SpillRun();
  Status WriteRun();
  /// Top-N overflow: the kept set becomes run 0 and the sorter continues
  /// in full (spillable) mode.
  Status ConvertTopNToExternal();
  /// True when merging every run (a page buffer and a head row each)
  /// would take half the tightest budget on the tracker chain.
  bool MergeOutgrowsBudget();
  /// Degraded top-N: merges every run into one of at most `limit` rows.
  Status MergeRuns();
  /// Raises the cutoff to `e` when `e` ranks better than it: `e` is the
  /// last row of a sorted run holding exactly `limit` rows.
  void OfferCutoff(const Entry& e);
  /// Opens a merge over every run (one decoded head per run), its page
  /// buffers carved from `arena`.
  Status OpenMerge(common::Arena* arena);
  /// Moves the best merge head into *out and refills its run; false once
  /// every run is exhausted.
  Result<bool> PopMerged(Entry* out);
  Status AdvanceSource(MergeSource* src);

  Options options_;
  bool top_n_;  // Current mode; may flip to false on conversion.
  int64_t next_seq_ = 0;
  std::vector<Entry> rows_;  // Heap-ordered in top-N mode.
  std::vector<std::string> runs_;
  int64_t runs_created_ = 0;  // Run-file name counter.
  int64_t max_entry_bytes_ = 0;  // Largest row added (merge-head estimate).
  /// Degraded top-N: keys and seq of a row with at least `limit` rows at
  /// or above it. Keys only, so it is not charged to the budget.
  bool has_cutoff_ = false;
  Entry cutoff_;
  int64_t spill_bytes_ = 0;
  common::ScopedReservation reserved_;

  bool finished_ = false;
  size_t emit_pos_ = 0;  // In-memory emission cursor.
  int64_t emitted_ = 0;
  std::vector<MergeSource> sources_;
  bool released_ = false;
};

}  // namespace odh::sql

#endif  // ODH_SQL_SORT_SPILL_H_
