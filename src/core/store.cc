#include "core/store.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <tuple>

#include "common/coding.h"
#include "common/key_codec.h"
#include "core/series_record.h"
#include "core/value_blob.h"
#include "storage/spill_file.h"

namespace odh::core {
namespace {

using relational::Column;
using relational::Schema;
using storage::SegmentKeyFor;
using storage::SegmentTier;

// Column positions in the MG table.
constexpr int kMgBegin = 0;
constexpr int kMgGroup = 1;
constexpr int kMgEnd = 2;
constexpr int kMgCount = 3;
constexpr int kMgBlob = 4;
constexpr int kMgZone = 5;

Schema MgSchema() {
  return Schema({{"begin_ts", DataType::kTimestamp},
                 {"grp", DataType::kInt64},
                 {"end_ts", DataType::kTimestamp},
                 {"n", DataType::kInt64},
                 {"blob", DataType::kString},
                 {"zonemap", DataType::kString}});
}

bool IsDataRecord(WalRecord::Kind kind) {
  return kind == WalRecord::Kind::kRts || kind == WalRecord::Kind::kIrts ||
         kind == WalRecord::Kind::kMg || kind == WalRecord::Kind::kMgDelete;
}

/// Stores one series record in `table` (an RTS or IRTS table, which have
/// no heap-level indexes), encoded straight from its fields.
Result<relational::Rid> InsertSeries(relational::Table* table,
                                     const SeriesRecord& rec,
                                     std::string* scratch) {
  scratch->clear();
  EncodeSeriesRecord(rec, table->codec().header_bytes(), scratch);
  return table->InsertEncoded(Slice(*scratch));
}

/// Parses a series record of `table` in place.
Status ParseSeries(const relational::Table* table, Slice record,
                   SeriesRecord* rec) {
  return ParseSeriesRecord(record, table->codec().header_bytes(), rec);
}

/// Parses the series record of `table` whose head `buf` holds.
Status ParseHead(const relational::Table* table,
                 const relational::HeapFile::RecordBuffer& buf,
                 SeriesRecord* rec, BlobSpan* blob) {
  return ParseSeriesHead(buf.data(), table->codec().header_bytes(),
                         buf.size(), rec, blob);
}

/// Sets a BlobRecord's fields from a parsed series record, blob and zone
/// map excepted.
void SetFields(const SeriesRecord& rec, const relational::Rid& rid,
               int64_t seg, int64_t generation, BlobRecord* out) {
  out->id = rec.id;
  out->begin = rec.begin;
  out->end = rec.end;
  out->interval = rec.interval;
  out->n = rec.n;
  out->rid = rid;
  out->seg = seg;
  out->generation = generation;
  out->bytes_skipped = 0;
}

/// Copies a whole parsed series record into a BlobRecord.
void ToBlobRecord(const SeriesRecord& rec, const relational::Rid& rid,
                  int64_t seg, int64_t generation, BlobRecord* out) {
  SetFields(rec, rid, seg, generation, out);
  out->blob.assign(rec.blob.data(), rec.blob.size());
  out->zone_map.assign(rec.zone_map.data(), rec.zone_map.size());
}

/// Decodes an MG-container row (MG rows keep the Row path: their table
/// has an on-disk index keyed by Row).
void RowToBlobRecord(const Row& row, const relational::Rid& rid,
                     BlobRecord* rec) {
  rec->begin = row[kMgBegin].timestamp_value();
  rec->group = row[kMgGroup].int64_value();
  rec->end = row[kMgEnd].timestamp_value();
  rec->n = row[kMgCount].int64_value();
  rec->blob = row[kMgBlob].string_value();
  rec->zone_map = row[kMgZone].string_value();
  rec->rid = rid;
}

}  // namespace

std::string OdhStore::SegmentPrefix(const std::string& type_name,
                                    int64_t key, int generation) const {
  if (config_->options().segment_span == 0) return "odh$" + type_name + "$";
  return "odh$" + type_name + "$s" + std::to_string(key) + "$g" +
         std::to_string(generation) + "$";
}

Result<OdhStore::Segment> OdhStore::CreateSegment(int schema_type,
                                                  int64_t key,
                                                  int generation) {
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  const Timestamp span = config_->options().segment_span;
  Segment seg;
  seg.manifest.key = key;
  if (span == 0) {
    seg.manifest.lo = kMinTimestamp;
    seg.manifest.hi = kMaxTimestamp;
  } else {
    seg.manifest.lo = key * span;
    seg.manifest.hi = seg.manifest.lo + span;
  }
  seg.manifest.generation = generation;
  seg.mg_epoch = generation;
  const std::string prefix = SegmentPrefix(type->name, key, generation);
  // An index on the first two fields of each batch structure (paper §2:
  // "B-tree indices are created on the first two fields"). RTS and IRTS
  // keep theirs in memory (seg.rts_dir / seg.irts_dir), so a series put
  // pays no tree insert; MG keeps the on-disk B-tree.
  ODH_ASSIGN_OR_RETURN(seg.rts,
                       db_->CreateTable(prefix + "rts", SeriesSchema()));
  ODH_ASSIGN_OR_RETURN(seg.irts,
                       db_->CreateTable(prefix + "irts", SeriesSchema()));
  ODH_ASSIGN_OR_RETURN(seg.mg, db_->CreateTable(prefix + "mg", MgSchema()));
  ODH_RETURN_IF_ERROR(seg.mg->AddIndex({"pk", {kMgBegin, kMgGroup}}));
  return seg;
}

Status OdhStore::CreateContainers(int schema_type) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  if (containers_.count(schema_type) > 0) {
    return Status::AlreadyExists("containers exist for " + type->name);
  }
  Container container;
  if (config_->options().segment_span == 0) {
    // Unsegmented layout: the single unbounded segment exists up front
    // under the historical flat table names.
    ODH_ASSIGN_OR_RETURN(Segment seg,
                         CreateSegment(schema_type, 0, /*generation=*/0));
    container.segments.emplace(0, std::move(seg));
  }
  containers_[schema_type] = std::move(container);
  return Status::OK();
}

Result<OdhStore::Container*> OdhStore::GetContainer(int schema_type) {
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) {
    return Status::NotFound("no containers for schema type " +
                            std::to_string(schema_type));
  }
  return &it->second;
}

Result<const OdhStore::Container*> OdhStore::GetContainer(
    int schema_type) const {
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) {
    return Status::NotFound("no containers for schema type " +
                            std::to_string(schema_type));
  }
  return &it->second;
}

Result<OdhStore::Segment*> OdhStore::GetSegmentForWrite(
    int schema_type, Container* container, Timestamp begin) {
  const int64_t key = SegmentKeyFor(begin, config_->options().segment_span);
  auto it = container->segments.find(key);
  if (it == container->segments.end()) {
    // A re-created key (late write after a retention drop) starts past
    // every generation the dropped segment ever used, so stale cached
    // decodes of the old incarnation stay unreachable.
    int generation = 0;
    auto ng = container->next_generation.find(key);
    if (ng != container->next_generation.end()) generation = ng->second;
    ODH_ASSIGN_OR_RETURN(Segment seg,
                         CreateSegment(schema_type, key, generation));
    it = container->segments.emplace(key, std::move(seg)).first;
  }
  return &it->second;
}

namespace {

bool DirectoryLess(const SeriesDirectory::Entry& a,
                   const SeriesDirectory::Entry& b) {
  return std::tie(a.begin, a.rid.page, a.rid.slot) <
         std::tie(b.begin, b.rid.page, b.rid.slot);
}

}  // namespace

void SeriesDirectory::Add(SourceId id, Timestamp begin,
                          const relational::Rid& rid) {
  std::vector<Entry>& list = by_source[id];
  const Entry entry{begin, rid};
  // A source's blobs arrive in begin order almost always (flushes,
  // replay in log order, compaction output), so this is an append; a
  // late blob is inserted at its place.
  if (list.empty() || !DirectoryLess(entry, list.back())) {
    list.push_back(entry);
  } else {
    list.insert(std::upper_bound(list.begin(), list.end(), entry,
                                 DirectoryLess),
                entry);
  }
  ++entries;
}

void OdhStore::UpdateStats(ContainerStats* stats, Timestamp begin,
                           Timestamp end, int64_t n, size_t blob_bytes) {
  ++stats->blob_count;
  stats->point_count += n;
  stats->blob_bytes += static_cast<int64_t>(blob_bytes);
  if (begin < stats->min_ts) stats->min_ts = begin;
  if (end > stats->max_ts) stats->max_ts = end;
  if (end - begin > stats->max_span) stats->max_span = end - begin;
}

Status OdhStore::LogPut(WalRecord::Kind kind, int schema_type,
                        int64_t id_or_group, Timestamp begin, Timestamp end,
                        Timestamp interval, int64_t n, const Slice& blob,
                        const Slice& zone_map, uint64_t* lsn) {
  if (wal_ == nullptr) {
    ODH_ASSIGN_OR_RETURN(wal_, Wal::Create(db_->disk(), kWalFileName,
                                           WalFileBytes(db_->disk())));
    wal_->SetInstruments(wal_sync_hist_, wal_group_commits_,
                         wal_piggybacked_, wal_bytes_released_);
  }
  // The header is at most a kind byte, a varint32, five varint64s and two
  // varint32 lengths: reserve once so a large blob is copied in once.
  constexpr size_t kMaxHeader = 1 + 5 + 5 * 10 + 2 * 5;
  std::string payload;
  payload.reserve(kMaxHeader + blob.size() + zone_map.size());
  EncodeWalPayload(kind, schema_type, id_or_group, begin, end, interval, n,
                   blob, zone_map, &payload);
  const uint64_t at = wal_->Append(payload);
  if (lsn != nullptr) *lsn = at;
  return Status::OK();
}

void OdhStore::ForgetMgLsn(Segment* seg, const MgKey& key) {
  // Equal keys keep insertion order, which is log order: the first is the
  // lowest LSN, the put recovery cancels.
  auto it = seg->mg_lsns.lower_bound(key);
  if (it != seg->mg_lsns.end() && it->first == key) seg->mg_lsns.erase(it);
}

Status OdhStore::ReleaseWalLocked() {
  if (wal_ == nullptr) return Status::OK();
  // Everything below the lowest position a live segment needs is dead;
  // with nothing live, the whole log is. Every candidate is a record's
  // LSN or the log end, so the mark is a frame boundary.
  std::vector<uint64_t> needed = {wal_->appended_lsn()};
  for (const auto& [schema_type, container] : containers_) {
    (void)schema_type;
    for (const auto& [key, seg] : container.segments) {
      (void)key;
      if (seg.series_lsn != kNoLsn) needed.push_back(seg.series_lsn);
      for (const auto& [mg_key, lsn] : seg.mg_lsns) {
        (void)mg_key;
        needed.push_back(lsn);
      }
    }
  }
  uint64_t mark = *std::min_element(needed.begin(), needed.end());
  // A replication pin below the mark holds the log at the highest known
  // boundary at or below it (a pin comes off the wire, so it is not
  // trusted to be a boundary itself).
  for (const auto& [pin, lsn] : wal_pins_) {
    (void)pin;
    if (lsn >= mark) continue;
    uint64_t held = wal_->head_lsn();
    for (uint64_t candidate : needed) {
      if (candidate <= lsn && candidate > held) held = candidate;
    }
    mark = held;
  }
  // Only durable bytes can be freed; callers sync first, so this bites
  // only when that sync failed.
  if (mark > wal_->synced_bytes()) return Status::OK();
  return wal_->ReleaseBelow(mark);
}

Status OdhStore::PutRts(int schema_type, SourceId id, Timestamp begin,
                        Timestamp end, Timestamp interval, int64_t n,
                        const std::string& blob,
                        const std::string& zone_map, uint64_t* put_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  // Log before the heap/index write: once Sync() flushes the log, the blob
  // is replayable even if the table pages never made it to disk.
  uint64_t lsn = 0;
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kRts, schema_type, id, begin,
                             end, interval, n, blob, zone_map, &lsn));
  ODH_ASSIGN_OR_RETURN(Segment * seg,
                       GetSegmentForWrite(schema_type, container, begin));
  if (seg->series_lsn == kNoLsn) seg->series_lsn = lsn;
  ODH_ASSIGN_OR_RETURN(
      relational::Rid rid,
      InsertSeries(seg->rts, {id, begin, end, interval, n, blob, zone_map},
                   &record_scratch_));
  seg->rts_dir.Add(id, begin, rid);
  UpdateStats(&seg->rts_stats, begin, end, n, blob.size());
  ++seg->manifest.version;
  LogRecentPut(schema_type, WalRecord::Kind::kRts, id, begin,
               seg->manifest.key, seg->manifest.generation, rid, put_seq);
  return Status::OK();
}

Status OdhStore::PutIrts(int schema_type, SourceId id, Timestamp begin,
                         Timestamp end, int64_t n, const std::string& blob,
                         const std::string& zone_map, uint64_t* put_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  uint64_t lsn = 0;
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kIrts, schema_type, id, begin,
                             end, /*interval=*/0, n, blob, zone_map, &lsn));
  ODH_ASSIGN_OR_RETURN(Segment * seg,
                       GetSegmentForWrite(schema_type, container, begin));
  if (seg->series_lsn == kNoLsn) seg->series_lsn = lsn;
  ODH_ASSIGN_OR_RETURN(relational::Rid rid,
                       InsertSeries(seg->irts,
                                    {id, begin, end, /*interval=*/0, n, blob,
                                     zone_map},
                                    &record_scratch_));
  seg->irts_dir.Add(id, begin, rid);
  UpdateStats(&seg->irts_stats, begin, end, n, blob.size());
  ++seg->manifest.version;
  LogRecentPut(schema_type, WalRecord::Kind::kIrts, id, begin,
               seg->manifest.key, seg->manifest.generation, rid, put_seq);
  return Status::OK();
}

Status OdhStore::PutMg(int schema_type, int64_t group, Timestamp begin,
                       Timestamp end, int64_t n, const std::string& blob,
                       const std::string& zone_map, uint64_t* put_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  uint64_t lsn = 0;
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kMg, schema_type, group, begin,
                             end, /*interval=*/0, n, blob, zone_map, &lsn));
  ODH_ASSIGN_OR_RETURN(Segment * seg,
                       GetSegmentForWrite(schema_type, container, begin));
  seg->mg_lsns.emplace(MgKey{group, begin, end, n}, lsn);
  Row row = {Datum::Time(begin), Datum::Int64(group), Datum::Time(end),
             Datum::Int64(n), Datum::String(blob),
             Datum::String(zone_map)};
  ODH_ASSIGN_OR_RETURN(relational::Rid rid, seg->mg->Insert(row));
  UpdateStats(&seg->mg_stats, begin, end, n, blob.size());
  ++seg->manifest.version;
  LogRecentPut(schema_type, WalRecord::Kind::kMg, group, begin,
               seg->manifest.key, seg->mg_epoch, rid, put_seq);
  return Status::OK();
}

void OdhStore::LogRecentPut(int schema_type, WalRecord::Kind kind,
                            int64_t id_or_group, Timestamp begin,
                            int64_t seg_key,
                            int64_t generation, const relational::Rid& rid,
                            uint64_t* put_seq) {
  ++puts_;
  if (put_seq != nullptr) *put_seq = puts_;
  if (put_log_.size() >= kPutLogCapacity) put_log_.pop_front();
  put_log_.push_back({puts_, schema_type, kind, id_or_group, begin, seg_key,
                      generation, rid});
}

namespace {

/// Copies the blob sections `projection` asks for out of an overflow
/// record into out->blob (see SeriesProjection): the blob's header and
/// directory with unrequested section sizes set to 0, then the requested
/// sections, read by range. The header and directory are parsed from the
/// head page, extended a page at a time in *scratch when an IRTS blob's
/// timestamps run past it.
Status ProjectBlob(relational::Table* table,
                   const relational::HeapFile::RecordBuffer& buf,
                   const BlobSpan& span, bool irts,
                   const std::vector<int>& tags, std::string* scratch,
                   BlobRecord* out) {
  const size_t blob_offset = span.offset;
  const size_t blob_size = span.size;
  const Slice on_hand = buf.data();
  Slice prefix(on_hand.data() + blob_offset,
               std::min(on_hand.size() - blob_offset, blob_size));
  scratch->clear();
  BlobDirectory dir;
  while (true) {
    ODH_ASSIGN_OR_RETURN(bool parsed,
                         ParseBlobDirectory(prefix, blob_size, irts, &dir));
    if (parsed) break;
    if (scratch->empty()) scratch->assign(prefix.data(), prefix.size());
    const size_t more = std::min(on_hand.size(), blob_size - scratch->size());
    ODH_RETURN_IF_ERROR(table->ReadRange(
        buf, blob_offset + scratch->size(), more, scratch));
    prefix = Slice(*scratch);
  }
  std::vector<bool> want(dir.sizes.size(), false);
  for (int t : tags) {
    if (t >= 0 && static_cast<size_t>(t) < want.size()) want[t] = true;
  }
  std::string& blob = out->blob;
  blob.clear();
  blob.append(prefix.data(), dir.directory_offset);
  PutVarint32(&blob, static_cast<uint32_t>(dir.sizes.size()));
  for (size_t t = 0; t < dir.sizes.size(); ++t) {
    PutVarint32(&blob, want[t] ? dir.sizes[t] : 0);
  }
  // Requested sections in tag order, adjacent ones in one range read.
  size_t fetched = dir.sections_offset;
  size_t offset = dir.sections_offset;
  size_t t = 0;
  while (t < dir.sizes.size()) {
    if (!want[t]) {
      offset += dir.sizes[t++];
      continue;
    }
    size_t len = 0;
    for (; t < dir.sizes.size() && want[t]; ++t) len += dir.sizes[t];
    if (offset > blob_size || len > blob_size - offset) {
      return Status::Corruption("tag section out of range");
    }
    ODH_RETURN_IF_ERROR(
        table->ReadRange(buf, blob_offset + offset, len, &blob));
    offset += len;
    fetched += len;
  }
  out->bytes_skipped = static_cast<int64_t>(blob_size - fetched);
  return Status::OK();
}

/// Fills *out from the series record whose head `buf` holds and
/// ParseHead parsed into `rec` and `blob`: the fixed fields, and the blob
/// and zone map as `projection` says. A record on hand whole is copied
/// from its page; of an overflow record only the ranges asked for are
/// read.
Status FetchSeries(relational::Table* table,
                   const relational::HeapFile::RecordBuffer& buf,
                   const SeriesRecord& rec, const BlobSpan& blob, bool irts,
                   const relational::Rid& rid, int64_t seg,
                   int64_t generation, const SeriesProjection& projection,
                   std::string* scratch, BlobRecord* out) {
  SetFields(rec, rid, seg, generation, out);
  out->zone_map.clear();
  if (buf.complete()) {
    out->blob.assign(rec.blob.data(), rec.blob.size());
    if (projection.zone_map) {
      out->zone_map.assign(rec.zone_map.data(), rec.zone_map.size());
    }
    return Status::OK();
  }
  if (projection.tags.empty()) {
    out->blob.clear();
    ODH_RETURN_IF_ERROR(
        table->ReadRange(buf, blob.offset, blob.size, &out->blob));
  } else {
    ODH_RETURN_IF_ERROR(
        ProjectBlob(table, buf, blob, irts, projection.tags, scratch, out));
  }
  if (projection.zone_map) {
    // The length-prefixed zone map runs to the record's end.
    const size_t tail = blob.offset + blob.size;
    scratch->clear();
    ODH_RETURN_IF_ERROR(
        table->ReadRange(buf, tail, buf.size() - tail, scratch));
    Slice in(*scratch);
    Slice zone_map;
    if (!GetLengthPrefixed(&in, &zone_map) || !in.empty()) {
      return Status::Corruption("series record zone map");
    }
    out->zone_map.assign(zone_map.data(), zone_map.size());
  }
  return Status::OK();
}

Status ScanSeries(relational::Table* table, const SeriesDirectory& dir,
                  const ContainerStats& stats, int64_t seg_key,
                  int64_t generation, bool irts, SourceId id, Timestamp lo,
                  Timestamp hi, const SeriesProjection& projection,
                  std::string* scratch, std::atomic<int64_t>* examined,
                  std::atomic<int64_t>* discarded,
                  std::vector<BlobRecord>* out) {
  auto source = dir.by_source.find(id);
  if (source == dir.by_source.end()) return Status::OK();
  // Partition elimination: only blobs with begin_ts in
  // [lo - max_span, hi] can overlap [lo, hi].
  Timestamp scan_lo =
      lo == kMinTimestamp ? kMinTimestamp : lo - stats.max_span;
  if (scan_lo > lo) scan_lo = kMinTimestamp;  // Underflow guard.
  const std::vector<SeriesDirectory::Entry>& list = source->second;
  auto it = std::lower_bound(
      list.begin(), list.end(), scan_lo,
      [](const SeriesDirectory::Entry& e, Timestamp t) {
        return e.begin < t;
      });
  relational::HeapFile::RecordBuffer buf;
  SeriesRecord rec;
  BlobSpan blob;
  for (; it != list.end() && it->begin <= hi; ++it) {
    ODH_RETURN_IF_ERROR(table->ReadHead(it->rid, &buf));
    ODH_RETURN_IF_ERROR(ParseHead(table, buf, &rec, &blob));
    examined->fetch_add(1, std::memory_order_relaxed);
    if (rec.end >= lo) {
      ODH_RETURN_IF_ERROR(FetchSeries(table, buf, rec, blob, irts, it->rid,
                                      seg_key, generation, projection,
                                      scratch, &out->emplace_back()));
    } else {
      discarded->fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<BlobRecord>> OdhStore::GetSeriesLocked(
    int schema_type, bool irts, SourceId id, Timestamp lo, Timestamp hi,
    SegmentScanStats* stats, const SeriesProjection& projection) {
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  std::vector<BlobRecord> out;
  for (auto& [key, seg] : container->segments) {
    const ContainerStats& sstats = irts ? seg.irts_stats : seg.rts_stats;
    if (SegmentDisjoint(sstats, lo, hi)) {
      if (sstats.blob_count > 0) CountSegmentPruned(stats);
      continue;
    }
    ODH_RETURN_IF_ERROR(ScanSeries(
        irts ? seg.irts : seg.rts, irts ? seg.irts_dir : seg.rts_dir, sstats,
        key, seg.manifest.generation, irts, id, lo, hi, projection,
        &record_scratch_, &blobs_examined_, &blobs_discarded_, &out));
  }
  return out;
}

Result<std::vector<BlobRecord>> OdhStore::GetRts(int schema_type,
                                                 SourceId id, Timestamp lo,
                                                 Timestamp hi,
                                                 SegmentScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetSeriesLocked(schema_type, /*irts=*/false, id, lo, hi, stats, {});
}

Result<std::vector<BlobRecord>> OdhStore::GetIrts(int schema_type,
                                                  SourceId id, Timestamp lo,
                                                  Timestamp hi,
                                                  SegmentScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetSeriesLocked(schema_type, /*irts=*/true, id, lo, hi, stats, {});
}

Result<std::vector<BlobRecord>> OdhStore::GetMgLocked(int schema_type,
                                                      int64_t group,
                                                      Timestamp lo,
                                                      Timestamp hi,
                                                      SegmentScanStats* stats) {
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  std::vector<BlobRecord> out;
  for (auto& [key, seg] : container->segments) {
    if (SegmentDisjoint(seg.mg_stats, lo, hi)) {
      if (seg.mg_stats.blob_count > 0) CountSegmentPruned(stats);
      continue;
    }
    Timestamp scan_lo =
        lo == kMinTimestamp ? kMinTimestamp : lo - seg.mg_stats.max_span;
    if (scan_lo > lo) scan_lo = kMinTimestamp;
    std::string lo_key = EncodeKey({Datum::Time(scan_lo)});
    std::string hi_key = EncodeKey({Datum::Time(hi)});
    ODH_ASSIGN_OR_RETURN(relational::Table::IndexIterator it,
                         seg.mg->IndexScan(0, lo_key, hi_key));
    while (it.Valid()) {
      ODH_ASSIGN_OR_RETURN(Row row, seg.mg->Get(it.rid()));
      BlobRecord rec;
      RowToBlobRecord(row, it.rid(), &rec);
      rec.seg = key;
      rec.generation = seg.mg_epoch;
      blobs_examined_.fetch_add(1, std::memory_order_relaxed);
      if (rec.end >= lo && (group < 0 || rec.group == group)) {
        out.push_back(std::move(rec));
      } else {
        blobs_discarded_.fetch_add(1, std::memory_order_relaxed);
      }
      ODH_RETURN_IF_ERROR(it.Next());
    }
  }
  return out;
}

Result<std::vector<BlobRecord>> OdhStore::GetMg(int schema_type,
                                                int64_t group, Timestamp lo,
                                                Timestamp hi,
                                                SegmentScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetMgLocked(schema_type, group, lo, hi, stats);
}

Result<OdhStore::HistoricalListing> OdhStore::ListHistorical(
    int schema_type, SourceId id, bool rts, bool irts, bool mg,
    int64_t mg_group, Timestamp lo, Timestamp hi, SegmentScanStats* stats,
    const SeriesProjection& projection) {
  std::lock_guard<std::mutex> lock(mu_);
  HistoricalListing listing;
  if (rts) {
    ODH_ASSIGN_OR_RETURN(listing.rts,
                         GetSeriesLocked(schema_type, false, id, lo, hi,
                                         stats, projection));
  }
  if (irts) {
    ODH_ASSIGN_OR_RETURN(listing.irts,
                         GetSeriesLocked(schema_type, true, id, lo, hi,
                                         stats, projection));
  }
  if (mg) {
    ODH_ASSIGN_OR_RETURN(listing.mg,
                         GetMgLocked(schema_type, mg_group, lo, hi, stats));
  }
  listing.put_seq = puts_;
  return listing;
}

Result<bool> OdhStore::CatchUpHistorical(int schema_type, SourceId id,
                                         bool rts, bool irts, bool mg,
                                         int64_t mg_group, Timestamp lo,
                                         Timestamp hi, uint64_t through,
                                         HistoricalListing* listing,
                                         const SeriesProjection& projection) {
  const uint64_t after = listing->put_seq;
  if (through <= after) return true;
  std::lock_guard<std::mutex> lock(mu_);
  if (put_log_.empty() || put_log_.front().seq > after + 1) return false;
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  // The log is in seq order: walk back from the newest put to `after`.
  auto first = put_log_.end();
  while (first != put_log_.begin() && std::prev(first)->seq > after) --first;
  HistoricalListing delta;
  relational::HeapFile::RecordBuffer buf;
  for (auto e_it = first; e_it != put_log_.end(); ++e_it) {
    const PutLogEntry& e = *e_it;
    if (e.seq > through) break;
    if (e.schema_type != schema_type) continue;
    const bool is_mg = e.kind == WalRecord::Kind::kMg;
    if (is_mg ? !(mg && e.id_or_group == mg_group)
              : !(e.id_or_group == id &&
                  (e.kind == WalRecord::Kind::kRts ? rts : irts))) {
      continue;
    }
    auto it = container->segments.find(e.seg);
    if (it == container->segments.end()) return false;
    Segment& seg = it->second;
    if (e.generation != (is_mg ? seg.mg_epoch : seg.manifest.generation)) {
      return false;
    }
    if (is_mg) {
      auto row = seg.mg->Get(e.rid);
      if (!row.ok()) return false;  // Deleted (MG reorganized) since.
      BlobRecord rec;
      RowToBlobRecord(*row, e.rid, &rec);
      if (rec.begin != e.begin || rec.group != e.id_or_group) {
        return false;  // The slot was reused after a delete.
      }
      if (rec.end < lo || rec.begin > hi) continue;
      rec.seg = e.seg;
      rec.generation = e.generation;
      delta.mg.push_back(std::move(rec));
      continue;
    }
    const bool is_irts = e.kind == WalRecord::Kind::kIrts;
    relational::Table* table = is_irts ? seg.irts : seg.rts;
    if (!table->ReadHead(e.rid, &buf).ok()) return false;
    SeriesRecord series;
    BlobSpan blob;
    ODH_RETURN_IF_ERROR(ParseHead(table, buf, &series, &blob));
    if (series.begin != e.begin || series.id != e.id_or_group) return false;
    if (series.end < lo || series.begin > hi) continue;
    ODH_RETURN_IF_ERROR(FetchSeries(
        table, buf, series, blob, is_irts, e.rid, e.seg, e.generation,
        projection, &record_scratch_,
        &(is_irts ? delta.irts : delta.rts).emplace_back()));
  }
  auto append = [](std::vector<BlobRecord>* from, std::vector<BlobRecord>* to) {
    for (BlobRecord& rec : *from) to->push_back(std::move(rec));
  };
  append(&delta.rts, &listing->rts);
  append(&delta.irts, &listing->irts);
  append(&delta.mg, &listing->mg);
  listing->put_seq = through;
  return true;
}

Status OdhStore::DeleteMg(int schema_type, int64_t seg_key,
                          const relational::Rid& rid) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  auto it = container->segments.find(seg_key);
  if (it == container->segments.end()) {
    return Status::NotFound("no segment " + std::to_string(seg_key));
  }
  Segment& seg = it->second;
  // Keep the count/byte stats honest for the cost model; the min/max/span
  // fields stay conservative.
  auto row = seg.mg->Get(rid);
  if (row.ok()) {
    ContainerStats& stats = seg.mg_stats;
    --stats.blob_count;
    stats.point_count -= (*row)[kMgCount].int64_value();
    stats.blob_bytes -=
        static_cast<int64_t>((*row)[kMgBlob].string_value().size());
    // Log the deletion so recovery does not resurrect a blob the
    // reorganizer already converted (its RTS/IRTS replacements are logged
    // by their own Puts).
    const MgKey key{(*row)[kMgGroup].int64_value(),
                    (*row)[kMgBegin].timestamp_value(),
                    (*row)[kMgEnd].timestamp_value(),
                    (*row)[kMgCount].int64_value()};
    ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kMgDelete, schema_type,
                               std::get<0>(key), std::get<1>(key),
                               std::get<2>(key), /*interval=*/0,
                               std::get<3>(key), Slice(), Slice()));
    ForgetMgLsn(&seg, key);
  }
  ++seg.manifest.version;
  return seg.mg->Delete(rid);
}

Status OdhStore::CompactMg(int schema_type) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  for (auto& [key, seg] : container->segments) {
    std::string old_name = seg.mg->name();
    std::string new_name =
        SegmentPrefix(type->name, key, seg.manifest.generation) + "mg$v" +
        std::to_string(++mg_version_);
    ODH_ASSIGN_OR_RETURN(relational::Table * fresh,
                         db_->CreateTable(new_name, MgSchema()));
    ODH_RETURN_IF_ERROR(fresh->AddIndex({"pk", {kMgBegin, kMgGroup}}));

    ContainerStats stats;
    auto it = seg.mg->NewIterator();
    ODH_RETURN_IF_ERROR(it.SeekToFirst());
    while (it.Valid()) {
      ODH_ASSIGN_OR_RETURN(Row row, it.row());
      ODH_RETURN_IF_ERROR(fresh->Insert(row).status());
      UpdateStats(&stats, row[kMgBegin].timestamp_value(),
                  row[kMgEnd].timestamp_value(),
                  row[kMgCount].int64_value(),
                  row[kMgBlob].string_value().size());
      ODH_RETURN_IF_ERROR(it.Next());
    }
    ODH_RETURN_IF_ERROR(fresh->Commit());
    ODH_RETURN_IF_ERROR(db_->DropTable(old_name));
    seg.mg = fresh;
    seg.mg_stats = stats;
    // The rebuild reshuffled rids without a manifest-generation bump;
    // advance the MG epoch so cached decodes of the old layout expire.
    ++seg.mg_epoch;
    ++seg.manifest.version;
  }
  return Status::OK();
}

Status OdhStore::NextSliceChunk(int schema_type, bool irts, Timestamp lo,
                                Timestamp hi, SliceCursor* cursor,
                                std::vector<BlobRecord>* out, bool* done,
                                SegmentScanStats* stats,
                                const SeriesProjection& projection) {
  out->clear();
  *done = false;
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  auto it = container->segments.lower_bound(cursor->seg);
  if (cursor->in_segment &&
      (it == container->segments.end() || it->first != cursor->seg ||
       it->second.manifest.generation != cursor->generation)) {
    // The segment we were mid-way through was dropped or compacted into a
    // new generation. Its replacement has a different physical layout, so
    // the resume rid is meaningless — skip the remainder and move on
    // (same contract as a drop between whole-segment chunks).
    cursor->in_segment = false;
    if (cursor->pin || cursor->seg == INT64_MAX) {
      *done = true;
      return Status::OK();
    }
    ++cursor->seg;
    it = container->segments.lower_bound(cursor->seg);
  }
  if (it == container->segments.end() ||
      (cursor->pin && it->first != cursor->seg)) {
    // Pinned cursor whose segment vanished: lower_bound would land on the
    // NEXT key, which belongs to another worker — report done instead.
    *done = true;
    return Status::OK();
  }
  Segment& seg = it->second;
  const int64_t key = it->first;
  cursor->seg = key;
  if (!cursor->in_segment) {
    const ContainerStats& sstats = irts ? seg.irts_stats : seg.rts_stats;
    if (SegmentDisjoint(sstats, lo, hi)) {
      // Pinned cursors never count pruning: the SliceSegments listing that
      // produced them already did.
      if (cursor->pin) {
        *done = true;
        return Status::OK();
      }
      if (sstats.blob_count > 0) CountSegmentPruned(stats);
      if (key == INT64_MAX) {
        *done = true;
      } else {
        ++cursor->seg;
      }
      return Status::OK();
    }
  }
  relational::Table* table = irts ? seg.irts : seg.rts;
  auto rows = table->NewIterator();
  if (cursor->in_segment) {
    ODH_RETURN_IF_ERROR(rows.SeekAfter(cursor->last));
  } else {
    ODH_RETURN_IF_ERROR(rows.SeekToFirst());
  }
  int consumed = 0;
  bool more = false;
  relational::Rid last{};
  SeriesRecord rec;
  while (rows.Valid()) {
    const relational::HeapFile::RecordBuffer& buf = rows.buffer();
    BlobSpan blob;
    ODH_RETURN_IF_ERROR(ParseHead(table, buf, &rec, &blob));
    last = rows.rid();
    ++consumed;
    // Same overlap filter the streaming path applied, checked from the
    // head before anything else of the record is read; deliberately not
    // counted in blobs_examined/discarded (slice scans never were).
    if (rec.end >= lo && rec.begin <= hi) {
      ODH_RETURN_IF_ERROR(FetchSeries(table, buf, rec, blob, irts, last,
                                      key, seg.manifest.generation,
                                      projection, &record_scratch_,
                                      &out->emplace_back()));
    }
    ODH_RETURN_IF_ERROR(rows.Next());
    if (consumed >= kSliceChunkRows && rows.Valid()) {
      more = true;
      break;
    }
  }
  if (more) {
    cursor->in_segment = true;
    cursor->generation = seg.manifest.generation;
    cursor->last = last;
  } else {
    cursor->in_segment = false;
    if (cursor->pin || key == INT64_MAX) {
      *done = true;
    } else {
      ++cursor->seg;
    }
  }
  return Status::OK();
}

Result<std::vector<int64_t>> OdhStore::SliceSegments(
    int schema_type, bool irts, Timestamp lo, Timestamp hi,
    SegmentScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  std::vector<int64_t> out;
  for (auto& [key, seg] : container->segments) {
    const ContainerStats& sstats = irts ? seg.irts_stats : seg.rts_stats;
    if (SegmentDisjoint(sstats, lo, hi)) {
      if (sstats.blob_count > 0) CountSegmentPruned(stats);
      continue;
    }
    out.push_back(key);
  }
  return out;
}

ContainerStats OdhStore::rts_stats(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  ContainerStats total;
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) return total;
  for (const auto& [key, seg] : it->second.segments) {
    (void)key;
    total.Merge(seg.rts_stats);
  }
  return total;
}

ContainerStats OdhStore::irts_stats(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  ContainerStats total;
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) return total;
  for (const auto& [key, seg] : it->second.segments) {
    (void)key;
    total.Merge(seg.irts_stats);
  }
  return total;
}

ContainerStats OdhStore::mg_stats(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  ContainerStats total;
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) return total;
  for (const auto& [key, seg] : it->second.segments) {
    (void)key;
    total.Merge(seg.mg_stats);
  }
  return total;
}

std::vector<SegmentInfo> OdhStore::SegmentInfos(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentInfo> out;
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) return out;
  for (const auto& [key, seg] : it->second.segments) {
    SegmentInfo info;
    info.key = key;
    info.lo = seg.manifest.lo;
    info.hi = seg.manifest.hi;
    info.generation = seg.manifest.generation;
    info.tier = seg.manifest.tier;
    for (const ContainerStats* s :
         {&seg.rts_stats, &seg.irts_stats, &seg.mg_stats}) {
      info.blob_count += s->blob_count;
      info.point_count += s->point_count;
      info.blob_bytes += s->blob_bytes;
      if (s->min_ts < info.min_ts) info.min_ts = s->min_ts;
      if (s->max_ts > info.max_ts) info.max_ts = s->max_ts;
    }
    out.push_back(info);
  }
  return out;
}

std::vector<SegmentBounds> OdhStore::SegmentBoundsOf(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentBounds> out;
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) return out;
  out.reserve(it->second.segments.size());
  for (const auto& [key, seg] : it->second.segments) {
    out.push_back({key, seg.manifest.lo, seg.rts_stats, seg.irts_stats,
                   seg.mg_stats});
  }
  return out;
}

Status OdhStore::SetRetention(int schema_type, Timestamp retention_micros) {
  if (retention_micros < 0) {
    return Status::InvalidArgument("retention must be non-negative");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (containers_.count(schema_type) == 0) {
    return Status::NotFound("no containers for schema type " +
                            std::to_string(schema_type));
  }
  if (retention_micros == 0) {
    retention_.erase(schema_type);
  } else {
    retention_[schema_type] = retention_micros;
  }
  return Status::OK();
}

Timestamp OdhStore::retention(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = retention_.find(schema_type);
  return it == retention_.end() ? 0 : it->second;
}

Result<int64_t> OdhStore::ApplyRetention(int schema_type) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  auto rit = retention_.find(schema_type);
  if (rit == retention_.end() || config_->options().segment_span == 0 ||
      container->segments.size() < 2) {
    return int64_t{0};
  }
  // Watermark: the newest ingested timestamp of this schema type.
  Timestamp watermark = kMinTimestamp;
  for (const auto& [key, seg] : container->segments) {
    (void)key;
    for (const ContainerStats* s :
         {&seg.rts_stats, &seg.irts_stats, &seg.mg_stats}) {
      if (s->max_ts > watermark) watermark = s->max_ts;
    }
  }
  if (watermark == kMinTimestamp) return int64_t{0};
  const Timestamp cutoff = watermark - rit->second;
  const int64_t newest_key = container->segments.rbegin()->first;

  std::vector<int64_t> expired;
  for (const auto& [key, seg] : container->segments) {
    if (key == newest_key) continue;  // Never drop the ingesting segment.
    if (seg.manifest.hi > cutoff) continue;  // Nominal range not expired.
    // Data bounds may spill past the nominal hi (a blob beginning near the
    // boundary ends in the next window); never drop unexpired points.
    Timestamp data_max = kMinTimestamp;
    for (const ContainerStats* s :
         {&seg.rts_stats, &seg.irts_stats, &seg.mg_stats}) {
      if (s->max_ts > data_max) data_max = s->max_ts;
    }
    if (data_max >= cutoff) continue;
    expired.push_back(key);
  }

  for (int64_t key : expired) {
    Segment& seg = container->segments.at(key);
    // WAL first, synced before any table goes away: recovery must know the
    // drop happened before it can be allowed to forget the data records.
    // A crash before the sync merely resurrects the expired segment; the
    // next ApplyRetention drops it again.
    ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kSegmentDrop, schema_type,
                               key, seg.manifest.lo, seg.manifest.hi,
                               /*interval=*/0, /*n=*/0, Slice(), Slice()));
    ODH_RETURN_IF_ERROR(wal_->Sync());
    ODH_RETURN_IF_ERROR(db_->DropTable(seg.rts->name()));
    ODH_RETURN_IF_ERROR(db_->DropTable(seg.irts->name()));
    ODH_RETURN_IF_ERROR(db_->DropTable(seg.mg->name()));
    // A later write re-creating this key must start past every generation
    // the dropped segment used, or cached decodes of it would resurface.
    container->next_generation[key] =
        std::max(seg.manifest.generation, seg.mg_epoch) + 1;
    container->segments.erase(key);
    segments_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!expired.empty()) ODH_RETURN_IF_ERROR(ReleaseWalLocked());
  return static_cast<int64_t>(expired.size());
}

int64_t OdhStore::series_directory_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [schema_type, container] : containers_) {
    (void)schema_type;
    for (const auto& [key, seg] : container.segments) {
      (void)key;
      total += seg.rts_dir.entries + seg.irts_dir.entries;
    }
  }
  return total;
}

std::vector<int64_t> OdhStore::SealedHotSegments(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> out;
  auto it = containers_.find(schema_type);
  if (it == containers_.end() || it->second.segments.size() < 2 ||
      config_->options().segment_span == 0) {
    return out;
  }
  const int64_t newest_key = it->second.segments.rbegin()->first;
  for (const auto& [key, seg] : it->second.segments) {
    if (key == newest_key) continue;
    if (seg.manifest.tier != SegmentTier::kHot) continue;
    if (seg.rts_stats.blob_count + seg.irts_stats.blob_count == 0) continue;
    out.push_back(key);
  }
  return out;
}

Result<SegmentSnapshot> OdhStore::SnapshotSegment(int schema_type,
                                                  int64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(const Container* container,
                       GetContainer(schema_type));
  auto it = container->segments.find(key);
  if (it == container->segments.end()) {
    return Status::NotFound("no segment " + std::to_string(key));
  }
  const Segment& seg = it->second;
  SegmentSnapshot snap;
  snap.manifest = seg.manifest;
  for (bool irts : {false, true}) {
    relational::Table* table = irts ? seg.irts : seg.rts;
    std::vector<BlobRecord>* out = irts ? &snap.irts : &snap.rts;
    auto rows = table->NewIterator();
    ODH_RETURN_IF_ERROR(rows.SeekToFirst());
    SeriesRecord rec;
    while (rows.Valid()) {
      ODH_ASSIGN_OR_RETURN(Slice record, rows.record());
      ODH_RETURN_IF_ERROR(ParseSeries(table, record, &rec));
      ToBlobRecord(rec, rows.rid(), key, seg.manifest.generation,
                   &out->emplace_back());
      ODH_RETURN_IF_ERROR(rows.Next());
    }
  }
  return snap;
}

Status OdhStore::SwapCompactedSegment(int schema_type, int64_t key,
                                      uint64_t expected_version,
                                      const std::vector<BlobRecord>& rts,
                                      const std::vector<BlobRecord>& irts) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  auto it = container->segments.find(key);
  if (it == container->segments.end()) {
    return Status::NotFound("no segment " + std::to_string(key));
  }
  Segment& seg = it->second;
  if (seg.manifest.version != expected_version) {
    return Status::Aborted("segment " + std::to_string(key) +
                           " changed during compaction");
  }

  // One contiguous WAL episode under mu_: Begin (carrying the segment's
  // nominal bounds so recovery can suppress the superseded records), the
  // replacement blobs, Commit. Synced before the in-memory swap so a crash
  // at any later point replays the compacted segment, and a crash before
  // the Commit frame is durable discards the episode and keeps the old
  // one — exactly one of the two ever survives.
  uint64_t begin_lsn = 0;
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kSegmentCompactBegin,
                             schema_type, key, seg.manifest.lo,
                             seg.manifest.hi, /*interval=*/0, /*n=*/0,
                             Slice(), Slice(), &begin_lsn));
  for (const BlobRecord& rec : rts) {
    ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kRts, schema_type, rec.id,
                               rec.begin, rec.end, rec.interval, rec.n,
                               rec.blob, rec.zone_map));
  }
  for (const BlobRecord& rec : irts) {
    ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kIrts, schema_type, rec.id,
                               rec.begin, rec.end, /*interval=*/0, rec.n,
                               rec.blob, rec.zone_map));
  }
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kSegmentCompactCommit,
                             schema_type, key, seg.manifest.lo,
                             seg.manifest.hi, /*interval=*/0, /*n=*/0,
                             Slice(), Slice()));
  ODH_RETURN_IF_ERROR(wal_->Sync());

  // Build the next generation's tables, then swap and drop the old ones.
  const int next_gen = seg.manifest.generation + 1;
  const std::string prefix = SegmentPrefix(type->name, key, next_gen);
  ODH_ASSIGN_OR_RETURN(relational::Table * new_rts,
                       db_->CreateTable(prefix + "rts", SeriesSchema()));
  ODH_ASSIGN_OR_RETURN(relational::Table * new_irts,
                       db_->CreateTable(prefix + "irts", SeriesSchema()));
  ContainerStats rts_stats, irts_stats;
  SeriesDirectory rts_dir, irts_dir;
  for (const BlobRecord& rec : rts) {
    ODH_ASSIGN_OR_RETURN(relational::Rid rid,
                         InsertSeries(new_rts,
                                      {rec.id, rec.begin, rec.end,
                                       rec.interval, rec.n, rec.blob,
                                       rec.zone_map},
                                      &record_scratch_));
    rts_dir.Add(rec.id, rec.begin, rid);
    UpdateStats(&rts_stats, rec.begin, rec.end, rec.n, rec.blob.size());
  }
  for (const BlobRecord& rec : irts) {
    ODH_ASSIGN_OR_RETURN(relational::Rid rid,
                         InsertSeries(new_irts,
                                      {rec.id, rec.begin, rec.end,
                                       /*interval=*/0, rec.n, rec.blob,
                                       rec.zone_map},
                                      &record_scratch_));
    irts_dir.Add(rec.id, rec.begin, rid);
    UpdateStats(&irts_stats, rec.begin, rec.end, rec.n, rec.blob.size());
  }
  ODH_RETURN_IF_ERROR(new_rts->Commit());
  ODH_RETURN_IF_ERROR(new_irts->Commit());
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.rts->name()));
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.irts->name()));
  seg.rts = new_rts;
  seg.irts = new_irts;
  seg.rts_dir = std::move(rts_dir);
  seg.irts_dir = std::move(irts_dir);
  seg.rts_stats = rts_stats;
  seg.irts_stats = irts_stats;
  seg.manifest.generation = next_gen;
  seg.manifest.tier = SegmentTier::kCold;
  ++seg.manifest.version;
  // The episode now holds every series blob of the segment: the records
  // before its Begin are dead.
  seg.series_lsn = begin_lsn;
  segments_compacted_.fetch_add(1, std::memory_order_relaxed);
  return ReleaseWalLocked();
}

Status OdhStore::Sync(int schema_type) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  // Write-ahead: the log reaches disk before the table pages, so any blob
  // visible in the flushed containers is also replayable.
  if (wal_ != nullptr) ODH_RETURN_IF_ERROR(wal_->Sync());
  for (auto& [key, seg] : container->segments) {
    (void)key;
    ODH_RETURN_IF_ERROR(seg.rts->Commit());
    ODH_RETURN_IF_ERROR(seg.irts->Commit());
    ODH_RETURN_IF_ERROR(seg.mg->Commit());
  }
  return Status::OK();
}

Result<OdhStore::ReplicationSnapshot> OdhStore::SnapshotForReplication(
    uint64_t* pin) {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicationSnapshot snap;
  if (wal_ != nullptr) {
    // Appends are blocked while mu_ is held, so after this Sync the
    // durable log covers every record any table row below came from.
    ODH_RETURN_IF_ERROR(wal_->Sync());
    snap.base_lsn = wal_->synced_bytes();
  }
  if (pin != nullptr) {
    *pin = next_pin_++;
    wal_pins_[*pin] = snap.base_lsn;
  }
  for (const auto& [schema_type, container] : containers_) {
    for (const auto& [key, seg] : container.segments) {
      (void)key;
      for (bool irts : {false, true}) {
        relational::Table* table = irts ? seg.irts : seg.rts;
        auto rows = table->NewIterator();
        ODH_RETURN_IF_ERROR(rows.SeekToFirst());
        SeriesRecord rec;
        while (rows.Valid()) {
          ODH_ASSIGN_OR_RETURN(Slice record, rows.record());
          ODH_RETURN_IF_ERROR(ParseSeries(table, record, &rec));
          std::string payload;
          EncodeWalPayload(
              irts ? WalRecord::Kind::kIrts : WalRecord::Kind::kRts,
              schema_type, rec.id, rec.begin, rec.end, rec.interval, rec.n,
              rec.blob, rec.zone_map, &payload);
          snap.records.push_back(std::move(payload));
          ODH_RETURN_IF_ERROR(rows.Next());
        }
      }
      auto rows = seg.mg->NewIterator();
      ODH_RETURN_IF_ERROR(rows.SeekToFirst());
      while (rows.Valid()) {
        ODH_ASSIGN_OR_RETURN(Row row, rows.row());
        std::string payload;
        EncodeWalPayload(WalRecord::Kind::kMg, schema_type,
                         row[kMgGroup].int64_value(),
                         row[kMgBegin].timestamp_value(),
                         row[kMgEnd].timestamp_value(), /*interval=*/0,
                         row[kMgCount].int64_value(),
                         Slice(row[kMgBlob].string_value()),
                         Slice(row[kMgZone].string_value()), &payload);
        snap.records.push_back(std::move(payload));
        ODH_RETURN_IF_ERROR(rows.Next());
      }
    }
  }
  return snap;
}

uint64_t OdhStore::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ == nullptr ? 0 : wal_->synced_bytes();
}

Result<Wal::TailChunk> OdhStore::ReadWal(uint64_t from_lsn,
                                         size_t max_bytes) const {
  const Wal* log;
  {
    std::lock_guard<std::mutex> lock(mu_);
    log = wal_.get();
  }
  if (log == nullptr) {
    Wal::TailChunk empty;
    empty.next_lsn = from_lsn;
    return empty;
  }
  // The Wal lives as long as the store once created; ReadDurable is
  // thread-safe, so the cursor read runs outside mu_ and never blocks
  // ingestion.
  return log->ReadDurable(from_lsn, max_bytes);
}

Result<uint64_t> OdhStore::PinWal(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t head = wal_ == nullptr ? 0 : wal_->head_lsn();
  if (lsn < head) {
    return Status::OutOfRange("wal lsn " + std::to_string(lsn) +
                              " is below the log head " +
                              std::to_string(head) +
                              ": truncated; re-bootstrap");
  }
  const uint64_t pin = next_pin_++;
  wal_pins_[pin] = lsn;
  return pin;
}

void OdhStore::MoveWalPin(uint64_t pin, uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = wal_pins_.find(pin);
  if (it != wal_pins_.end()) it->second = lsn;
}

void OdhStore::UnpinWal(uint64_t pin) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_pins_.erase(pin);
}

Timestamp OdhStore::MaxIngestedTimestamp() const {
  std::lock_guard<std::mutex> lock(mu_);
  Timestamp watermark = kMinTimestamp;
  for (const auto& [schema_type, container] : containers_) {
    (void)schema_type;
    for (const auto& [key, seg] : container.segments) {
      (void)key;
      for (const ContainerStats* s :
           {&seg.rts_stats, &seg.irts_stats, &seg.mg_stats}) {
        if (s->max_ts > watermark) watermark = s->max_ts;
      }
    }
  }
  return watermark;
}

Status OdhStore::DeleteMgByContent(int schema_type, int64_t group,
                                   Timestamp begin, Timestamp end,
                                   int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  const std::string key = EncodeKey({Datum::Time(begin), Datum::Int64(group)});
  for (auto& [seg_key, seg] : container->segments) {
    (void)seg_key;
    if (SegmentDisjoint(seg.mg_stats, begin, begin)) continue;
    ODH_ASSIGN_OR_RETURN(relational::Table::IndexIterator it,
                         seg.mg->IndexScan(0, key, key));
    while (it.Valid()) {
      ODH_ASSIGN_OR_RETURN(Row row, seg.mg->Get(it.rid()));
      if (row[kMgEnd].timestamp_value() == end &&
          row[kMgCount].int64_value() == n) {
        ContainerStats& stats = seg.mg_stats;
        --stats.blob_count;
        stats.point_count -= n;
        stats.blob_bytes -=
            static_cast<int64_t>(row[kMgBlob].string_value().size());
        ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kMgDelete, schema_type,
                                   group, begin, end, /*interval=*/0, n,
                                   Slice(), Slice()));
        ForgetMgLsn(&seg, MgKey{group, begin, end, n});
        ++seg.manifest.version;
        return seg.mg->Delete(it.rid());
      }
      ODH_RETURN_IF_ERROR(it.Next());
    }
  }
  // Already absent: the bootstrap snapshot can precede the delete record
  // it replicates, so this is convergence, not loss.
  return Status::OK();
}

Status OdhStore::ApplyReplicatedDrop(int schema_type, int64_t key,
                                     Timestamp lo, Timestamp hi) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  auto it = container->segments.find(key);
  if (it == container->segments.end()) return Status::OK();  // Idempotent.
  Segment& seg = it->second;
  // Log the LOCAL manifest bounds, not the primary's: this record drives
  // the replica's own recovery, which suppresses data records inside the
  // logged window. Same OdhOptions make the two identical anyway.
  (void)lo;
  (void)hi;
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kSegmentDrop, schema_type, key,
                             seg.manifest.lo, seg.manifest.hi,
                             /*interval=*/0, /*n=*/0, Slice(), Slice()));
  ODH_RETURN_IF_ERROR(wal_->Sync());
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.rts->name()));
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.irts->name()));
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.mg->name()));
  container->next_generation[key] =
      std::max(seg.manifest.generation, seg.mg_epoch) + 1;
  container->segments.erase(key);
  segments_dropped_.fetch_add(1, std::memory_order_relaxed);
  return ReleaseWalLocked();
}

Result<RecoveryReport> OdhStore::Recover(storage::SimDisk* crashed_disk) {
  ODH_ASSIGN_OR_RETURN(
      Wal::ReadResult log,
      Wal::ReadLog(crashed_disk, kWalFileName, WalFileBytes(crashed_disk)));
  RecoveryReport report;
  report.wal_head_lsn = log.head_lsn;
  report.wal_valid_bytes = log.valid_bytes;
  report.torn_bytes_dropped = log.torn_bytes_dropped;

  // Queries in flight at the crash may have left spill runs behind; they
  // are pure temp state (the WAL never references them), so recovery
  // sweeps them before replay.
  for (const std::string& name : crashed_disk->ListFiles()) {
    if (storage::IsSpillFileName(name)) {
      ODH_RETURN_IF_ERROR(crashed_disk->DeleteFile(name));
      ++report.spill_files_swept;
    }
  }

  std::vector<WalRecord> records;
  records.reserve(log.records.size());
  for (const std::string& payload : log.records) {
    WalRecord rec;
    if (!WalRecord::Decode(payload, &rec)) {
      ++report.undecodable_records;
      continue;
    }
    records.push_back(std::move(rec));
  }

  // Pass 1: classify segment ops. A retention drop supersedes every
  // EARLIER data record of its schema type whose begin lies inside the
  // logged segment bounds; a committed compaction episode (Begin..Commit,
  // appended contiguously under the store mutex) supersedes the earlier
  // RTS/IRTS records there only — compaction never rewrites MG blobs. An
  // episode whose Commit never made it to the log is discarded wholesale.
  struct Supersede {
    int schema_type;
    Timestamp lo, hi;  // hi exclusive.
    size_t cutoff;     // Records before this index are superseded.
    bool series_only;  // Compaction: RTS/IRTS only.
  };
  std::vector<Supersede> supersedes;
  std::vector<bool> skip(records.size(), false);
  size_t open_begin = records.size();  // == size: no open episode.
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& rec = records[i];
    if (rec.kind == WalRecord::Kind::kSegmentCompactBegin) {
      skip[i] = true;
      open_begin = i;
    } else if (rec.kind == WalRecord::Kind::kSegmentCompactCommit) {
      skip[i] = true;
      if (open_begin < i) {
        supersedes.push_back(
            {rec.schema_type, rec.begin, rec.end, open_begin, true});
      }
      open_begin = records.size();
    } else if (rec.kind == WalRecord::Kind::kSegmentDrop) {
      skip[i] = true;
      supersedes.push_back({rec.schema_type, rec.begin, rec.end, i, false});
    }
  }
  if (open_begin < records.size()) {
    // Crash mid-episode: the suffix from Begin on is the half-written
    // rewrite. Drop it; the superseded originals replay normally.
    for (size_t i = open_begin; i < records.size(); ++i) {
      if (!skip[i]) {
        skip[i] = true;
        ++report.uncommitted_episode_records;
      }
    }
  }
  for (const Supersede& s : supersedes) {
    for (size_t i = 0; i < s.cutoff; ++i) {
      if (skip[i]) continue;
      const WalRecord& rec = records[i];
      if (rec.schema_type != s.schema_type || !IsDataRecord(rec.kind)) {
        continue;
      }
      if (s.series_only && rec.kind != WalRecord::Kind::kRts &&
          rec.kind != WalRecord::Kind::kIrts) {
        continue;
      }
      if (rec.begin >= s.lo && rec.begin < s.hi) {
        skip[i] = true;
        ++report.records_superseded;
      }
    }
  }

  // Each surviving MG deletion cancels the earliest surviving EARLIER Put
  // with its content key (rids are not stable across recovery, so the
  // match is by content). A deletion whose Put lies below the log head
  // cancels nothing.
  using MgKey = std::tuple<int, int64_t, Timestamp, Timestamp, int64_t>;
  std::map<MgKey, std::deque<size_t>> mg_puts;
  for (size_t i = 0; i < records.size(); ++i) {
    if (skip[i]) continue;
    const WalRecord& rec = records[i];
    const MgKey key{rec.schema_type, rec.id_or_group, rec.begin, rec.end,
                    rec.n};
    if (rec.kind == WalRecord::Kind::kMg) {
      mg_puts[key].push_back(i);
    } else if (rec.kind == WalRecord::Kind::kMgDelete) {
      auto it = mg_puts.find(key);
      if (it != mg_puts.end() && !it->second.empty()) {
        skip[it->second.front()] = true;  // Converted by the reorganizer.
        it->second.pop_front();
      }
    }
  }

  // Pass 2: replay the survivors in log order through the normal Puts.
  for (size_t i = 0; i < records.size(); ++i) {
    if (skip[i]) continue;
    const WalRecord& rec = records[i];
    switch (rec.kind) {
      case WalRecord::Kind::kRts:
        ODH_RETURN_IF_ERROR(PutRts(rec.schema_type, rec.id_or_group,
                                   rec.begin, rec.end, rec.interval, rec.n,
                                   rec.blob, rec.zone_map));
        ++report.rts_blobs;
        break;
      case WalRecord::Kind::kIrts:
        ODH_RETURN_IF_ERROR(PutIrts(rec.schema_type, rec.id_or_group,
                                    rec.begin, rec.end, rec.n, rec.blob,
                                    rec.zone_map));
        ++report.irts_blobs;
        break;
      case WalRecord::Kind::kMg:
        ODH_RETURN_IF_ERROR(PutMg(rec.schema_type, rec.id_or_group,
                                  rec.begin, rec.end, rec.n, rec.blob,
                                  rec.zone_map));
        ++report.mg_blobs;
        break;
      case WalRecord::Kind::kMgDelete:
        break;  // Applied as skips above.
      case WalRecord::Kind::kSegmentCompactBegin:
      case WalRecord::Kind::kSegmentCompactCommit:
      case WalRecord::Kind::kSegmentDrop:
        break;  // Control records, consumed in pass 1.
    }
  }
  report.records_replayed =
      report.rts_blobs + report.irts_blobs + report.mg_blobs;

  // Make the recovered state durable in its own right (replay went through
  // the normal Put path, so this store's WAL has all surviving records).
  for (auto& [schema_type, container] : containers_) {
    (void)container;
    ODH_RETURN_IF_ERROR(Sync(schema_type));
  }
  return report;
}

}  // namespace odh::core
