#include "sql/sort_spill.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/coding.h"
#include "common/slice.h"

namespace odh::sql {
namespace {

/// Self-describing Datum codec for spill records (type tag + payload).
/// Unlike the order-preserving key codec this round-trips every value —
/// including NaN doubles — byte-exactly.
void EncodeDatum(std::string* out, const Datum& d) {
  out->push_back(static_cast<char>(d.type()));
  switch (d.type()) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      out->push_back(d.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      PutVarintSigned64(out, d.int64_value());
      break;
    case DataType::kTimestamp:
      PutVarintSigned64(out, d.timestamp_value());
      break;
    case DataType::kDouble:
      PutDouble(out, d.double_value());
      break;
    case DataType::kString:
      PutLengthPrefixed(out, Slice(d.string_value()));
      break;
  }
}

bool DecodeDatum(Slice* in, Datum* d) {
  if (in->empty()) return false;
  const auto type = static_cast<DataType>((*in)[0]);
  in->remove_prefix(1);
  switch (type) {
    case DataType::kNull:
      *d = Datum::Null();
      return true;
    case DataType::kBool: {
      if (in->empty()) return false;
      *d = Datum::Bool((*in)[0] != 0);
      in->remove_prefix(1);
      return true;
    }
    case DataType::kInt64: {
      int64_t v;
      if (!GetVarintSigned64(in, &v)) return false;
      *d = Datum::Int64(v);
      return true;
    }
    case DataType::kTimestamp: {
      int64_t v;
      if (!GetVarintSigned64(in, &v)) return false;
      *d = Datum::Time(v);
      return true;
    }
    case DataType::kDouble: {
      double v;
      if (!GetDouble(in, &v)) return false;
      *d = Datum::Double(v);
      return true;
    }
    case DataType::kString: {
      Slice s;
      if (!GetLengthPrefixed(in, &s)) return false;
      *d = Datum::String(std::string(s.data(), s.size()));
      return true;
    }
  }
  return false;
}

bool DecodeDatumVector(Slice* in, std::vector<Datum>* out) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Datum d;
    if (!DecodeDatum(in, &d)) return false;
    out->push_back(std::move(d));
  }
  return true;
}

}  // namespace

int CompareDatumsForSort(const Datum& a, const Datum& b) {
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return -1;
  if (b.is_null()) return 1;
  // NaN sorts after every non-NaN number and equal to other NaNs. IEEE
  // comparison (NaN "equal" to everything) is not a strict weak ordering
  // — sorting with it is undefined behavior the moment a NaN meets two
  // distinct numbers — so NaN gets a definite position instead.
  const bool a_nan = a.is_double() && std::isnan(a.double_value());
  const bool b_nan = b.is_double() && std::isnan(b.double_value());
  if (a_nan || b_nan) {
    if (a_nan && b_nan) return 0;
    return a_nan ? 1 : -1;
  }
  int cmp;
  bool null_result;
  if (!a.Compare(b, &cmp, &null_result) || null_result) return 0;
  return cmp;
}

ExternalSorter::ExternalSorter(Options options)
    : options_(std::move(options)),
      top_n_(options_.limit >= 0),
      reserved_(options_.memory) {}

ExternalSorter::~ExternalSorter() { ReleaseAll(); }

bool ExternalSorter::EntryLess(const Entry& a, const Entry& b) const {
  for (size_t i = 0; i < options_.ascending.size(); ++i) {
    const int cmp = CompareDatumsForSort(a.keys[i], b.keys[i]);
    if (cmp != 0) return options_.ascending[i] ? cmp < 0 : cmp > 0;
  }
  return a.seq < b.seq;
}

int64_t ExternalSorter::EntryBytes(const Entry& e) const {
  int64_t n = static_cast<int64_t>(sizeof(Entry)) +
              common::ApproxRowBytes(e.row);
  for (const Datum& k : e.keys) n += common::ApproxDatumBytes(k);
  return n;
}

Status ExternalSorter::Add(std::vector<Datum> keys, Row row) {
  if (finished_) return Status::FailedPrecondition("sorter already finished");
  Entry e;
  e.keys = std::move(keys);
  e.row = std::move(row);
  e.seq = next_seq_++;
  e.bytes = EntryBytes(e);
  max_entry_bytes_ = std::max(max_entry_bytes_, e.bytes);

  auto heap_less = [this](const Entry& a, const Entry& b) {
    return EntryLess(a, b);
  };

  if (top_n_) {
    if (options_.limit == 0) return Status::OK();  // Everything is beyond n.
    if (static_cast<int64_t>(rows_.size()) < options_.limit) {
      Status st = reserved_.Reserve(e.bytes);
      if (st.ok()) {
        rows_.push_back(std::move(e));
        std::push_heap(rows_.begin(), rows_.end(), heap_less);
        return Status::OK();
      }
      if (!st.IsResourceExhausted() || options_.spill_disk == nullptr) {
        return st;
      }
      ODH_RETURN_IF_ERROR(ConvertTopNToExternal());
    } else {
      // rows_.front() is the worst kept row. A candidate that does not
      // beat it — ties included (later row loses) — can never be in the
      // top n and is discarded without accounting.
      if (!EntryLess(e, rows_.front())) return Status::OK();
      Status st = reserved_.Reserve(e.bytes);
      if (st.ok()) {
        std::pop_heap(rows_.begin(), rows_.end(), heap_less);
        reserved_.Release(rows_.back().bytes);
        rows_.back() = std::move(e);
        std::push_heap(rows_.begin(), rows_.end(), heap_less);
        return Status::OK();
      }
      if (!st.IsResourceExhausted() || options_.spill_disk == nullptr) {
        return st;
      }
      ODH_RETURN_IF_ERROR(ConvertTopNToExternal());
    }
  }

  // Full (spillable) accumulation. A degraded top-N first drops what
  // cannot beat its cutoff.
  if (has_cutoff_ && !EntryLess(e, cutoff_)) return Status::OK();
  Status st = reserved_.Reserve(e.bytes);
  if (!st.ok()) {
    if (!st.IsResourceExhausted() || options_.spill_disk == nullptr ||
        rows_.empty()) {
      return st;
    }
    ODH_RETURN_IF_ERROR(SpillRun());
    // A single row larger than the whole budget still fails here.
    ODH_RETURN_IF_ERROR(reserved_.Reserve(e.bytes));
  }
  rows_.push_back(std::move(e));
  return Status::OK();
}

Status ExternalSorter::ConvertTopNToExternal() {
  // The kept set becomes the first run; every row discarded so far was
  // provably worse than all of them, so keeping everything from here on
  // preserves the exact top-N result.
  top_n_ = false;
  return SpillRun();
}

void ExternalSorter::OfferCutoff(const Entry& e) {
  if (has_cutoff_ && !EntryLess(e, cutoff_)) return;
  cutoff_.keys = e.keys;
  cutoff_.seq = e.seq;
  has_cutoff_ = true;
}

namespace {

void EncodeEntry(const std::vector<Datum>& keys, const Row& row, int64_t seq,
                 std::string* record) {
  record->clear();
  PutVarint32(record, static_cast<uint32_t>(keys.size()));
  for (const Datum& k : keys) EncodeDatum(record, k);
  PutVarint32(record, static_cast<uint32_t>(row.size()));
  for (const Datum& d : row) EncodeDatum(record, d);
  PutVarint64(record, static_cast<uint64_t>(seq));
}

}  // namespace

Status ExternalSorter::SpillRun() {
  ODH_RETURN_IF_ERROR(WriteRun());
  if (options_.limit >= 0 && MergeOutgrowsBudget()) return MergeRuns();
  return Status::OK();
}

bool ExternalSorter::MergeOutgrowsBudget() {
  int64_t limit = 0;
  for (common::MemoryTracker* t = options_.memory; t != nullptr;
       t = t->parent()) {
    if (t->limit() > 0 && (limit == 0 || t->limit() < limit)) {
      limit = t->limit();
    }
  }
  const int64_t per_run =
      static_cast<int64_t>(options_.spill_disk->page_size()) +
      max_entry_bytes_;
  return limit > 0 && static_cast<int64_t>(runs_.size()) * per_run > limit / 2;
}

Status ExternalSorter::WriteRun() {
  std::sort(rows_.begin(), rows_.end(),
            [this](const Entry& a, const Entry& b) { return EntryLess(a, b); });
  // Under a LIMIT no run needs more than `limit` rows: the rest are beaten
  // by `limit` rows of this run alone.
  if (options_.limit >= 0 &&
      static_cast<int64_t>(rows_.size()) > options_.limit) {
    for (size_t i = static_cast<size_t>(options_.limit); i < rows_.size();
         ++i) {
      reserved_.Release(rows_[i].bytes);
    }
    rows_.resize(static_cast<size_t>(options_.limit));
  }
  if (options_.limit > 0 &&
      static_cast<int64_t>(rows_.size()) == options_.limit) {
    OfferCutoff(rows_.back());
  }
  const std::string name =
      options_.spill_name_prefix + "r" + std::to_string(runs_created_++);
  // The rows being spilled fund the spill I/O: a spill triggers exactly
  // when the budget is exhausted, so the writer's arena page buffer may
  // not fit until reservations of outgoing rows are returned. Release in
  // page-sized gulps and retry (arena refusal has no side effects); the
  // gap between tracked and resident bytes stays bounded by one arena
  // block plus the rows already streamed to disk.
  size_t funded = 0;  // rows_[0..funded) have released their reservation.
  // The page buffer comes from an arena local to this run, so its bytes
  // go back to the budget when the run is written (the query arena only
  // grows).
  common::Arena arena(options_.memory);
  Result<std::unique_ptr<storage::SpillFileWriter>> writer =
      storage::SpillFileWriter::Create(options_.spill_disk, name, &arena);
  while (!writer.ok() && writer.status().IsResourceExhausted() &&
         funded < rows_.size()) {
    const int64_t want =
        2 * static_cast<int64_t>(options_.spill_disk->page_size());
    int64_t freed = 0;
    while (funded < rows_.size() && freed < want) {
      freed += rows_[funded].bytes;
      reserved_.Release(rows_[funded].bytes);
      ++funded;
    }
    writer = storage::SpillFileWriter::Create(options_.spill_disk, name,
                                              &arena);
  }
  ODH_RETURN_IF_ERROR(writer.status());
  // Track the file before writing so an error mid-run still gets the file
  // deleted by ReleaseAll.
  runs_.push_back(name);
  std::string record;
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Entry& e = rows_[i];
    if (i >= funded) reserved_.Release(e.bytes);
    EncodeEntry(e.keys, e.row, e.seq, &record);
    ODH_RETURN_IF_ERROR((*writer)->Append(Slice(record)));
  }
  ODH_RETURN_IF_ERROR((*writer)->Finish());
  spill_bytes_ += (*writer)->data_bytes();
  rows_.clear();
  rows_.shrink_to_fit();
  return Status::OK();
}

Status ExternalSorter::MergeRuns() {
  common::Arena arena(options_.memory);  // Merge buffers, freed on return.
  const std::vector<std::string> inputs = runs_;
  const std::string name =
      options_.spill_name_prefix + "r" + std::to_string(runs_created_++);
  Entry last;
  int64_t written = 0;
  Status st = [&]() -> Status {
    ODH_RETURN_IF_ERROR(OpenMerge(&arena));
    ODH_ASSIGN_OR_RETURN(auto writer,
                         storage::SpillFileWriter::Create(options_.spill_disk,
                                                          name, &arena));
    runs_.push_back(name);
    std::string record;
    while (written < options_.limit) {
      ODH_ASSIGN_OR_RETURN(bool more, PopMerged(&last));
      if (!more) break;
      EncodeEntry(last.keys, last.row, last.seq, &record);
      ODH_RETURN_IF_ERROR(writer->Append(Slice(record)));
      ++written;
    }
    ODH_RETURN_IF_ERROR(writer->Finish());
    spill_bytes_ += writer->data_bytes();
    return Status::OK();
  }();
  // The merge's heads and page buffers go before the arena does, on every
  // path; on error the files stay in runs_ for ReleaseAll to delete.
  for (MergeSource& src : sources_) reserved_.Release(src.head.bytes);
  sources_.clear();
  ODH_RETURN_IF_ERROR(st);
  if (written == options_.limit && written > 0) OfferCutoff(last);
  for (const std::string& input : inputs) {
    (void)options_.spill_disk->DeleteFile(input);
  }
  runs_.assign(1, name);
  return Status::OK();
}

Status ExternalSorter::OpenMerge(common::Arena* arena) {
  sources_.clear();
  sources_.reserve(runs_.size());
  for (const std::string& name : runs_) {
    ODH_ASSIGN_OR_RETURN(
        auto reader,
        storage::SpillFileReader::Open(options_.spill_disk, name, arena));
    MergeSource src;
    src.reader = std::move(reader);
    sources_.push_back(std::move(src));
    ODH_RETURN_IF_ERROR(AdvanceSource(&sources_.back()));
  }
  return Status::OK();
}

Result<bool> ExternalSorter::PopMerged(Entry* out) {
  MergeSource* best = nullptr;
  for (MergeSource& src : sources_) {
    if (src.exhausted) continue;
    if (best == nullptr || EntryLess(src.head, best->head)) best = &src;
  }
  if (best == nullptr) return false;
  reserved_.Release(best->head.bytes);
  best->head.bytes = 0;
  *out = std::move(best->head);
  ODH_RETURN_IF_ERROR(AdvanceSource(best));
  return true;
}

Status ExternalSorter::AdvanceSource(MergeSource* src) {
  if (src->head.bytes > 0) {
    reserved_.Release(src->head.bytes);
    src->head = Entry{};
  }
  std::string record;
  ODH_ASSIGN_OR_RETURN(bool more, src->reader->Next(&record));
  if (!more) {
    src->exhausted = true;
    return Status::OK();
  }
  Slice in(record);
  Entry e;
  uint64_t seq = 0;
  if (!DecodeDatumVector(&in, &e.keys) || !DecodeDatumVector(&in, &e.row) ||
      !GetVarint64(&in, &seq) || !in.empty()) {
    return Status::Corruption("bad spill record");
  }
  e.seq = static_cast<int64_t>(seq);
  e.bytes = EntryBytes(e);
  // Merge heads are accounted too: K runs hold K rows plus K page
  // buffers. A budget below that floor fails the query rather than
  // silently exceeding it.
  ODH_RETURN_IF_ERROR(reserved_.Reserve(e.bytes));
  src->head = std::move(e);
  return Status::OK();
}

Status ExternalSorter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (runs_.empty()) {
    std::sort(rows_.begin(), rows_.end(),
              [this](const Entry& a, const Entry& b) {
                return EntryLess(a, b);
              });
    return Status::OK();
  }
  // Spill the in-memory tail so emission merges uniformly from disk.
  if (!rows_.empty()) ODH_RETURN_IF_ERROR(SpillRun());
  return OpenMerge(options_.arena);
}

Result<bool> ExternalSorter::Next(Row* row) {
  if (!finished_) return Status::FailedPrecondition("sorter not finished");
  if (options_.limit >= 0 && emitted_ >= options_.limit) return false;
  if (sources_.empty()) {
    if (emit_pos_ >= rows_.size()) return false;
    Entry& e = rows_[emit_pos_++];
    reserved_.Release(e.bytes);
    *row = std::move(e.row);
    e = Entry{};  // Free the keys now, matching the released accounting.
    ++emitted_;
    return true;
  }
  Entry e;
  ODH_ASSIGN_OR_RETURN(bool more, PopMerged(&e));
  if (!more) return false;
  *row = std::move(e.row);
  ++emitted_;
  return true;
}

void ExternalSorter::ReleaseAll() {
  if (released_) return;
  released_ = true;
  rows_.clear();
  sources_.clear();
  reserved_.ReleaseAll();
  if (options_.spill_disk != nullptr) {
    for (const std::string& name : runs_) {
      (void)options_.spill_disk->DeleteFile(name);
    }
  }
}

}  // namespace odh::sql
