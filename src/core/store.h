#ifndef ODH_CORE_STORE_H_
#define ODH_CORE_STORE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "core/config.h"
#include "core/wal.h"
#include "relational/database.h"
#include "storage/segment.h"

namespace odh::core {

/// What OdhStore::Recover() did. Only blobs that reached the WAL via a
/// successful Sync come back; dirty writer buffers and un-synced Puts are
/// legitimately lost (the paper's transaction-free ingestion contract).
struct RecoveryReport {
  uint64_t records_replayed = 0;
  uint64_t rts_blobs = 0;
  uint64_t irts_blobs = 0;
  uint64_t mg_blobs = 0;
  uint64_t wal_valid_bytes = 0;
  uint64_t torn_bytes_dropped = 0;  // Bytes after the first torn frame.
  uint64_t undecodable_records = 0;  // CRC-valid but unparseable (never
                                     // expected; counted, not fatal).
  /// Data records suppressed because a later committed compaction episode
  /// or retention drop superseded them.
  uint64_t records_superseded = 0;
  /// Records of a compaction episode whose Commit never reached the log:
  /// discarded wholesale, the pre-compaction segment survives.
  uint64_t uncommitted_episode_records = 0;
  /// Orphaned query-spill files (odh$spill$*) deleted from the crashed
  /// disk — temp state of in-flight ORDER BY sorts, never replayed.
  uint64_t spill_files_swept = 0;
  /// LSN replay started at: the crashed log's head (0 when nothing of it
  /// was ever freed).
  uint64_t wal_head_lsn = 0;
};

/// Aggregate statistics per container, maintained on every Put. The cost
/// model (paper §3: "we approximate the cost ... as the expected size, in
/// bytes, of the ValueBlobs that need to be accessed") reads these.
struct ContainerStats {
  int64_t blob_count = 0;
  int64_t point_count = 0;
  int64_t blob_bytes = 0;
  Timestamp min_ts = kMaxTimestamp;
  Timestamp max_ts = kMinTimestamp;
  /// Largest (end_ts - begin_ts) of any blob: the partition-elimination
  /// window widening needed on the lower bound.
  Timestamp max_span = 0;

  double AvgBlobBytes() const {
    return blob_count > 0 ? static_cast<double>(blob_bytes) / blob_count : 0;
  }
  double AvgPointsPerBlob() const {
    return blob_count > 0 ? static_cast<double>(point_count) / blob_count : 0;
  }

  /// Folds `other` in (segment stats -> schema-type aggregate).
  void Merge(const ContainerStats& other) {
    blob_count += other.blob_count;
    point_count += other.point_count;
    blob_bytes += other.blob_bytes;
    if (other.min_ts < min_ts) min_ts = other.min_ts;
    if (other.max_ts > max_ts) max_ts = other.max_ts;
    if (other.max_span > max_span) max_span = other.max_span;
  }
};

/// A fetched batch record.
struct BlobRecord {
  SourceId id = 0;        // RTS/IRTS only.
  int64_t group = 0;      // MG only.
  Timestamp begin = 0;
  Timestamp end = 0;
  Timestamp interval = 0;  // RTS only.
  int64_t n = 0;
  std::string blob;
  std::string zone_map;   // Encoded ZoneMap (may be empty on old rows).
  relational::Rid rid;
  /// Key of the segment the record came from (0 in the unsegmented
  /// layout). A rid is only meaningful together with its segment.
  int64_t seg = 0;
  /// Generation the rid was read under: the segment manifest generation
  /// for series records, the MG table epoch for MG records (MG rebuilds
  /// reshuffle rids without a manifest-generation bump). {seg, generation,
  /// rid} is a stable identity for the blob cache.
  int64_t generation = 0;
  /// Bytes of the stored blob a projected fetch left unread (0 when `blob`
  /// is the stored blob itself).
  int64_t bytes_skipped = 0;
};

/// What a series listing fetches of each RTS/IRTS record it returns.
///
/// A record that fits on a page is read with that page: its blob comes
/// back whole. A record longer than a page (an overflow chain) is fetched
/// by range: the head page's fixed fields and, of the blob, its header
/// and column directory, then only the continuation pages holding the
/// requested tag sections. Its BlobRecord::blob is then a valid blob of
/// the same point count whose other sections have size 0 in its
/// directory, so a decode of the requested tags reads it as it would the
/// stored blob. The zone map, stored after the blob, is fetched only when
/// asked for; otherwise BlobRecord::zone_map stays empty, which every
/// reader takes as "no summary". A projected record is never written
/// back: compaction, snapshots and replication read whole records.
struct SeriesProjection {
  /// Tags whose sections to fetch; empty = the whole blob.
  std::vector<int> tags;
  bool zone_map = true;
};

/// Per-scan segment-elimination counters, filled by the Get*/slice entry
/// points when the caller passes one (the reader threads them into the
/// per-query ScanCounters so EXPLAIN PROFILE can report segment pruning
/// next to blob pruning without double counting: blobs inside a pruned
/// segment are never examined, so they appear in neither blob counter).
struct SegmentScanStats {
  int64_t segments_pruned = 0;
};

/// One row of the odh_storage per-segment listing.
struct SegmentInfo {
  int64_t key = 0;
  Timestamp lo = 0;
  Timestamp hi = 0;
  int generation = 0;
  storage::SegmentTier tier = storage::SegmentTier::kHot;
  int64_t blob_count = 0;
  int64_t point_count = 0;
  int64_t blob_bytes = 0;
  Timestamp min_ts = kMaxTimestamp;  // Data bounds (kMax/kMin when empty).
  Timestamp max_ts = kMinTimestamp;
};

/// Manifest start of one segment plus each structure's data bounds: what a
/// windowed top-k scan needs to split a time range at segment boundaries
/// and to count the segments it never opened.
struct SegmentBounds {
  int64_t key = 0;
  Timestamp lo = 0;  // Nominal start; kMinTimestamp in the flat layout.
  ContainerStats rts;
  ContainerStats irts;
  ContainerStats mg;
};

/// Snapshot of one segment's series blobs, taken under the store mutex for
/// the compactor to rewrite outside it. `version` is the manifest version
/// at snapshot time; SwapCompactedSegment refuses the swap when the
/// segment changed since (a racing Put or drop).
struct SegmentSnapshot {
  storage::SegmentManifest manifest;
  std::vector<BlobRecord> rts;
  std::vector<BlobRecord> irts;
};

/// The index of one segment's RTS or IRTS table on its first two fields:
/// every row's rid, per source in (begin, rid) order with the rid compared
/// as (page, slot). Listings return blobs in that order; the reader's
/// ordered merge and CatchUpHistorical rely on it. It lives only in
/// memory: the WAL holds every live series blob and Recover() replays
/// each through PutRts/PutIrts, which refill it. Series rows are never
/// deleted one by one (a segment is swapped or dropped whole), so an
/// entry lives as long as its table.
struct SeriesDirectory {
  struct Entry {
    Timestamp begin = 0;
    relational::Rid rid;
  };
  std::unordered_map<SourceId, std::vector<Entry>> by_source;
  int64_t entries = 0;

  void Add(SourceId id, Timestamp begin, const relational::Rid& rid);
};

/// The ODH storage component: containers per schema type, each split into
/// time-partitioned segments. A segment owns a contiguous nominal time
/// range [lo, hi) of blobs — routed by floor(begin_ts / segment_span) — as
/// its own RTS / IRTS / MG table triple in the embedded relational engine,
/// indexed on the first two fields of each structure (the paper's Figure 1
/// layout, now per segment): MG by an on-disk B-tree, RTS and IRTS by an
/// in-memory series directory per segment (DESIGN.md § B+tree reads in
/// place), rebuilt from the WAL on recovery. RTS/IRTS rows are encoded and
/// parsed as bytes in RowCodec's layout (core/series_record.h), never
/// built as Rows: a read copies each kept blob once, from the page into
/// its BlobRecord, and a scan's listing fetches only what its
/// SeriesProjection asks for. A per-segment manifest keeps
/// the time bounds, tier, generation and per-structure stats; every scan
/// consults the manifests first, so a recent-window query skips cold
/// history with O(segments) metadata checks and zero page reads
/// (segments_pruned counts those skips). With segment_span == 0 (the
/// default) there is exactly one unbounded segment per schema type and
/// behavior is identical to the pre-segment store.
///
/// Segments are the unit of compaction (SnapshotSegment /
/// SwapCompactedSegment, driven by core::SegmentCompactor) and of
/// retention (SetRetention / ApplyRetention): an expired segment is
/// dropped as an O(1) metadata operation — one WAL record, table drops,
/// map erase — never a scan-and-delete. Both are WAL-logged so Recover()
/// replays a committed rewrite/drop and rolls back an uncommitted one.
///
/// Thread-safe: one store mutex serializes table mutations, index and
/// directory scans, stats updates and WAL appends (the relational tables
/// underneath are not concurrent). Writer shards do their buffering and
/// blob encoding outside this lock, so the store is the serialization
/// point, not the whole write path. Lock order: writer shard -> store ->
/// WAL -> disk; the store never calls back into the writer. Exception:
/// Recover() takes no lock itself (it replays through the locked Put/Sync
/// entry points and runs on a quiescent store). Slice scans materialize
/// one bounded chunk of rows per call under the mutex (NextSliceChunk), so
/// no table pointer or iterator ever leaves the lock — a concurrent
/// retention drop can never invalidate a cursor mid-scan.
class OdhStore {
 public:
  /// Name of the store's write-ahead log file on the database disk. (The
  /// relational tables keep their own modeled "<table>.wal" files; this one
  /// is the store-level redo log that Recover() replays.)
  static constexpr char kWalFileName[] = "odh$store.wal";
  /// Pages per rolled WAL file. The segmented layout rolls its log over
  /// files of this many pages and frees whole files once retention or
  /// compaction made every record in them dead (DESIGN.md § WAL
  /// lifecycle); the unsegmented layout keeps one flat file.
  static constexpr uint64_t kWalFilePages = 32;

  OdhStore(relational::Database* db, ConfigComponent* config)
      : db_(db), config_(config) {}

  OdhStore(const OdhStore&) = delete;
  OdhStore& operator=(const OdhStore&) = delete;

  /// Creates the container for a schema type. With segment_span == 0 this
  /// creates the single unbounded segment's tables immediately; otherwise
  /// segments materialize lazily at the first Put that routes to them.
  Status CreateContainers(int schema_type);

  /// `put_seq` (optional) receives the put sequence number of this blob:
  /// puts are numbered 1, 2, 3 ... under the store mutex, so a listing
  /// that reports sequence P (ListHistorical) holds every blob numbered
  /// up to P.
  Status PutRts(int schema_type, SourceId id, Timestamp begin, Timestamp end,
                Timestamp interval, int64_t n, const std::string& blob,
                const std::string& zone_map = {},
                uint64_t* put_seq = nullptr);
  Status PutIrts(int schema_type, SourceId id, Timestamp begin,
                 Timestamp end, int64_t n, const std::string& blob,
                 const std::string& zone_map = {},
                 uint64_t* put_seq = nullptr);
  Status PutMg(int schema_type, int64_t group, Timestamp begin,
               Timestamp end, int64_t n, const std::string& blob,
               const std::string& zone_map = {},
               uint64_t* put_seq = nullptr);

  /// Blobs of `id` overlapping [lo, hi], in begin_ts order. Segments whose
  /// data bounds are disjoint from [lo, hi] are skipped without touching
  /// their tables (`stats->segments_pruned` counts the skips).
  Result<std::vector<BlobRecord>> GetRts(int schema_type, SourceId id,
                                         Timestamp lo, Timestamp hi,
                                         SegmentScanStats* stats = nullptr);
  Result<std::vector<BlobRecord>> GetIrts(int schema_type, SourceId id,
                                          Timestamp lo, Timestamp hi,
                                          SegmentScanStats* stats = nullptr);

  /// MG blobs overlapping [lo, hi]; `group` < 0 means all groups.
  Result<std::vector<BlobRecord>> GetMg(int schema_type, int64_t group,
                                        Timestamp lo, Timestamp hi,
                                        SegmentScanStats* stats = nullptr);

  /// One source's blobs for a historical scan, listed under a single hold
  /// of the store mutex: RTS and IRTS blobs of `id` and MG blobs of
  /// `mg_group`, each list as Get* returns it, for the structures flagged.
  /// `put_seq` is the put sequence as of the listing: the listing holds
  /// exactly the blobs numbered up to it, which tells a reader whether a
  /// writer flush fell between this listing and its dirty-buffer
  /// collection (OdhWriter::CollectDirty), so it can catch up on it.
  struct HistoricalListing {
    std::vector<BlobRecord> rts;
    std::vector<BlobRecord> irts;
    std::vector<BlobRecord> mg;
    uint64_t put_seq = 0;
  };
  /// Series blobs are fetched as `projection` says (MG blobs whole).
  Result<HistoricalListing> ListHistorical(
      int schema_type, SourceId id, bool rts, bool irts, bool mg,
      int64_t mg_group, Timestamp lo, Timestamp hi,
      SegmentScanStats* stats = nullptr,
      const SeriesProjection& projection = {});

  /// The catch-up half of that check: appends to *listing the blobs of the
  /// same source and structures, overlapping [lo, hi], whose put sequence
  /// lies in (listing->put_seq, through], and advances listing->put_seq to
  /// `through`. Served from a bounded log of recent puts, so it reads only
  /// those blobs; false (listing untouched) when the log no longer reaches
  /// back far enough or a logged blob has since been rewritten or dropped
  /// — the caller then relists.
  Result<bool> CatchUpHistorical(int schema_type, SourceId id, bool rts,
                                 bool irts, bool mg, int64_t mg_group,
                                 Timestamp lo, Timestamp hi, uint64_t through,
                                 HistoricalListing* listing,
                                 const SeriesProjection& projection = {});

  /// Removes an MG blob (used by the reorganizer after conversion). `seg`
  /// is the BlobRecord::seg the blob was fetched with — rids are only
  /// unique within one segment's table.
  Status DeleteMg(int schema_type, int64_t seg, const relational::Rid& rid);

  /// Rebuilds every segment's MG table, reclaiming the space of deleted
  /// blobs (run after reorganization; heap pages are never compacted in
  /// place).
  Status CompactMg(int schema_type);

  /// Resume point of a chunked slice scan. Value-type state only: no
  /// table pointer or iterator survives between calls, so a concurrent
  /// segment drop or compaction can never invalidate a cursor — the next
  /// chunk just skips the vanished rows.
  struct SliceCursor {
    int64_t seg = INT64_MIN;  // Next segment key to visit (or current).
    bool in_segment = false;  // Resuming inside `seg` after `last`.
    int generation = 0;       // Generation `last` was read from.
    relational::Rid last;     // Physically last row already returned.
    /// Pinned to `seg` only: the cursor finishes (or skips, on a
    /// generation mismatch or drop) that one segment and reports done
    /// instead of advancing. Segment-parallel scans use one pinned cursor
    /// per worker; pinned cursors never count segment pruning (the
    /// SliceSegments listing already did).
    bool pin = false;
  };

  /// Chunked slice scan: materializes up to kSliceChunkRows blob rows of
  /// one segment's RTS or IRTS table overlapping [lo, hi] per call, under
  /// the store mutex — a scan over years of history never holds more than
  /// one chunk of blob rows. Start with a default SliceCursor; the call
  /// advances it. `*done` turns true when no rows remain (out may be
  /// empty on any call — keep calling until done). Chunks arrive in
  /// segment-key then physical order, so concatenated results are
  /// begin_ts-ordered per source. If the current segment is compacted or
  /// dropped between chunks (generation mismatch), its remaining rows are
  /// skipped rather than re-read from a different layout. Each row's
  /// time bounds are checked from its head page; only rows that overlap
  /// are fetched, as `projection` says.
  static constexpr int kSliceChunkRows = 8;
  Status NextSliceChunk(int schema_type, bool irts, Timestamp lo,
                        Timestamp hi, SliceCursor* cursor,
                        std::vector<BlobRecord>* out, bool* done,
                        SegmentScanStats* stats = nullptr,
                        const SeriesProjection& projection = {});

  /// Keys of segments whose RTS (irts == false) or IRTS data bounds
  /// overlap [lo, hi], in key order — the fan-out list for a
  /// segment-parallel slice scan (one pinned SliceCursor per key).
  /// Disjoint non-empty segments are counted into `stats` exactly like
  /// the streaming scan, so a scan that lists segments here and then
  /// visits each with a pinned cursor reports identical pruning totals.
  Result<std::vector<int64_t>> SliceSegments(int schema_type, bool irts,
                                             Timestamp lo, Timestamp hi,
                                             SegmentScanStats* stats = nullptr);

  /// Stats snapshots, aggregated across segments (copied under the store
  /// mutex; safe during ingest).
  ContainerStats rts_stats(int schema_type) const;
  ContainerStats irts_stats(int schema_type) const;
  ContainerStats mg_stats(int schema_type) const;

  /// Per-segment manifest + stats listing, key order (odh_storage rows).
  std::vector<SegmentInfo> SegmentInfos(int schema_type) const;

  /// Nominal start and per-structure data bounds of every segment, key
  /// order (metadata only, no page reads; empty for an unknown type).
  std::vector<SegmentBounds> SegmentBoundsOf(int schema_type) const;

  // --- Retention -------------------------------------------------------

  /// Sets (or with 0 clears) the retention interval for a schema type.
  /// Takes effect at the next ApplyRetention call. Fails on a negative
  /// interval or an unknown schema type.
  Status SetRetention(int schema_type, Timestamp retention_micros);
  Timestamp retention(int schema_type) const;

  /// Drops every expired segment of `schema_type`: nominal bounds AND data
  /// bounds entirely before (max ingested ts - retention). The newest
  /// segment never drops, segment_span == 0 never drops, no retention set
  /// never drops. Each drop is one WAL record (synced before the tables
  /// go away) plus table drops and a map erase — O(1) in the number of
  /// dropped points, no page reads of dropped data. Returns the number of
  /// segments dropped.
  Result<int64_t> ApplyRetention(int schema_type);

  // --- Compaction (driven by core::SegmentCompactor) -------------------

  /// Keys of sealed hot segments: every hot segment except the
  /// highest-keyed one (still ingesting). Empty when segment_span == 0.
  std::vector<int64_t> SealedHotSegments(int schema_type) const;

  /// Copies one segment's manifest and series blobs out under the mutex.
  Result<SegmentSnapshot> SnapshotSegment(int schema_type, int64_t key) const;

  /// Atomically replaces a segment's RTS/IRTS tables with the compacted
  /// blobs. Aborted when the segment's version moved past
  /// `expected_version` (a Put or drop raced the rewrite — retry later).
  /// The swap WAL-logs one kSegmentCompactBegin, the replacement blob
  /// records, and one kSegmentCompactCommit contiguously, then syncs the
  /// log before the in-memory swap: recovery replays the episode if the
  /// Commit made it to disk and discards it (keeping the old segment)
  /// otherwise. The MG table is never rewritten — merging MG blobs would
  /// break the WAL's content-keyed kMgDelete cancellation.
  Status SwapCompactedSegment(int schema_type, int64_t key,
                              uint64_t expected_version,
                              const std::vector<BlobRecord>& rts,
                              const std::vector<BlobRecord>& irts);

  /// Flushes buffered table writes (ODH ingestion has no transactions; this
  /// is a page flush, not a commit). The store WAL is synced first, so every
  /// blob visible in the flushed tables is also replayable from the log.
  Status Sync(int schema_type);

  /// Replays the store WAL found on `crashed_disk` (a post-crash
  /// SimDisk::CloneDurable()) into this store. Containers for every schema
  /// type appearing in the log must already exist — the caller re-creates
  /// its schema types, then recovers. Replayed blobs go through the normal
  /// Put path, so heap rows, MG B-tree entries, series directories,
  /// container stats and this store's own WAL are all rebuilt. The torn
  /// tail (an interrupted Sync) is detected via per-record CRC32C and
  /// dropped.
  ///
  /// Replay starts at the log's head: everything below it was freed
  /// because no live segment needed it. Segment ops replay in two passes:
  /// pass one classifies compaction episodes (Begin..Commit) and retention
  /// drops, pass two replays every surviving data record in log order. A
  /// drop suppresses all earlier data records of its schema type whose
  /// begin falls inside the logged segment bounds; a committed episode
  /// suppresses the earlier RTS/IRTS records there (compaction never
  /// rewrites MG blobs, so those stay). An episode without a Commit is
  /// discarded wholesale, so exactly one of {old segment, compacted
  /// segment} survives any crash point. A kMgDelete cancels one matching
  /// earlier kMg record.
  Result<RecoveryReport> Recover(storage::SimDisk* crashed_disk);

  /// The store's write-ahead log, nullptr until the first Put. Exposed for
  /// stats (retry counters) and tests. The Wal itself is thread-safe.
  const Wal* wal() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wal_.get();
  }

  // --- Replication (primary side) --------------------------------------

  /// A consistent bootstrap image for a fresh replica: every stored blob,
  /// re-encoded as WAL record payloads, plus the durable LSN the image is
  /// exactly as of. Streaming `records` and then tailing the WAL from
  /// `base_lsn` reproduces this store with no gap and no overlap.
  struct ReplicationSnapshot {
    uint64_t base_lsn = 0;
    std::vector<std::string> records;  // Encoded WalRecord payloads.
  };

  /// Takes the bootstrap snapshot under the store mutex: the WAL is synced
  /// first (appends are blocked, so durable == appended), then every
  /// segment's RTS/IRTS/MG rows are encoded. An empty store (no WAL yet)
  /// yields base_lsn 0 and no records. With `pin`, the log is pinned at
  /// base_lsn in the same critical section (see PinWal); the caller
  /// unpins.
  Result<ReplicationSnapshot> SnapshotForReplication(uint64_t* pin = nullptr);

  /// Durable WAL length — the replication LSN watermark. 0 before the
  /// first Put creates the log.
  uint64_t durable_lsn() const;

  /// Cursor read over the durable WAL (see Wal::ReadDurable). An empty
  /// chunk with next_lsn == from_lsn when the log does not exist yet;
  /// OutOfRange below the log head.
  Result<Wal::TailChunk> ReadWal(uint64_t from_lsn, size_t max_bytes) const;

  /// Pins the WAL at `lsn`, a stream's next position: releases never free
  /// log bytes at or above the lowest pin, so a replication stream can
  /// ship from where it stands. OutOfRange when `lsn` is already below the
  /// head — those records are gone and the subscriber must re-bootstrap.
  /// Returns the pin's id.
  Result<uint64_t> PinWal(uint64_t lsn);
  /// Moves a pin forward as its stream ships.
  void MoveWalPin(uint64_t pin, uint64_t lsn);
  void UnpinWal(uint64_t pin);

  /// Newest ingested timestamp across every container (kMinTimestamp when
  /// empty) — the primary's data watermark carried in replication
  /// heartbeats, against which replicas compute staleness.
  Timestamp MaxIngestedTimestamp() const;

  // --- Replication (replica side, driven by core::ReplicaApplier) ------

  /// Applies a replicated kMgDelete: finds the MG blob with this exact
  /// content key (group, begin, end, n), deletes it and re-logs the
  /// deletion into this store's own WAL. Rids are not stable across the
  /// wire, so the match is by content — the same rule Recover() uses. A
  /// missing blob is OK (the snapshot bootstrap may already reflect the
  /// deletion).
  Status DeleteMgByContent(int schema_type, int64_t group, Timestamp begin,
                           Timestamp end, int64_t n);

  /// Applies a replicated kSegmentDrop: drops segment `key` (nominal
  /// bounds [lo, hi)) with the same WAL-first discipline ApplyRetention
  /// uses. Idempotent — a segment this replica never materialized is OK.
  Status ApplyReplicatedDrop(int schema_type, int64_t key, Timestamp lo,
                             Timestamp hi);

  /// Wires WAL group-commit instruments into `metrics` — immediately when
  /// the WAL already exists, otherwise at its lazy creation. Instruments
  /// are resolved from the registry BEFORE taking mu_: registry gauges
  /// sample this store (registry lock -> store lock), so the store must
  /// never acquire the registry lock while holding mu_.
  void SetMetrics(common::MetricsRegistry* metrics) {
    common::Histogram* sync_hist = nullptr;
    common::Counter* group_commits = nullptr;
    common::Counter* piggybacked = nullptr;
    common::Counter* released = nullptr;
    if (metrics != nullptr) {
      sync_hist = metrics->GetHistogram("odh.wal.sync_micros");
      group_commits = metrics->GetCounter("odh.wal.group_commits");
      piggybacked = metrics->GetCounter("odh.wal.piggybacked");
      released = metrics->GetCounter("odh.wal.bytes_released");
    }
    std::lock_guard<std::mutex> lock(mu_);
    wal_sync_hist_ = sync_hist;
    wal_group_commits_ = group_commits;
    wal_piggybacked_ = piggybacked;
    wal_bytes_released_ = released;
    if (wal_ != nullptr) {
      wal_->SetInstruments(sync_hist, group_commits, piggybacked, released);
    }
  }

  /// Partition-elimination effectiveness across all Get* scans: candidate
  /// blobs the widened index range produced, and how many of those the
  /// exact overlap re-check (end >= lo, MG group match) then discarded.
  /// Blobs outside the index range are never touched at all — that saving
  /// is the difference against the container's blob_count.
  int64_t blobs_examined() const {
    return blobs_examined_.load(std::memory_order_relaxed);
  }
  int64_t blobs_discarded() const {
    return blobs_discarded_.load(std::memory_order_relaxed);
  }
  /// Segment-level elimination and lifecycle counters (store-global; the
  /// per-query twin lives in common::ScanCounters).
  int64_t segments_pruned() const {
    return segments_pruned_.load(std::memory_order_relaxed);
  }
  int64_t segments_compacted() const {
    return segments_compacted_.load(std::memory_order_relaxed);
  }
  int64_t segments_dropped() const {
    return segments_dropped_.load(std::memory_order_relaxed);
  }
  /// Entries the series directories of every live segment hold: one per
  /// live RTS/IRTS blob.
  int64_t series_directory_entries() const;

 private:
  static constexpr uint64_t kNoLsn = UINT64_MAX;
  /// (group, begin, end, n): how WAL records identify an MG blob.
  using MgKey = std::tuple<int64_t, Timestamp, Timestamp, int64_t>;

  struct Segment {
    storage::SegmentManifest manifest;
    relational::Table* rts = nullptr;
    relational::Table* irts = nullptr;
    relational::Table* mg = nullptr;
    SeriesDirectory rts_dir;
    SeriesDirectory irts_dir;
    ContainerStats rts_stats;
    ContainerStats irts_stats;
    ContainerStats mg_stats;
    /// Generation of the MG table's rids, bumped by CompactMg (which
    /// rebuilds the table, reshuffling rids, without touching the
    /// manifest generation). Starts at the manifest generation so a
    /// re-created segment's epochs are fresh too.
    int mg_epoch = 0;
    /// What recovery still needs of this segment's log (the WAL head
    /// rule): the first RTS/IRTS record since its last committed
    /// compaction, or that episode's Begin (kNoLsn: none yet), and the
    /// LSN of every live MG record by content key (a kMgDelete removes
    /// the lowest of its key, the one recovery cancels).
    uint64_t series_lsn = kNoLsn;
    std::multimap<MgKey, uint64_t> mg_lsns;
  };

  struct Container {
    std::map<int64_t, Segment> segments;  // Key order == time order.
    /// Floor for the generation of a re-created segment: a retention
    /// drop records max(manifest generation, mg_epoch) + 1 here so a
    /// late write re-creating the key can never reuse a generation the
    /// dropped segment's cached blobs were decoded under.
    std::map<int64_t, int> next_generation;
  };

  Result<Container*> GetContainer(int schema_type);
  Result<const Container*> GetContainer(int schema_type) const;

  /// Finds or lazily creates the segment covering `begin`.
  Result<Segment*> GetSegmentForWrite(int schema_type, Container* container,
                                      Timestamp begin);

  /// Listing bodies of GetRts/GetIrts/GetMg and ListHistorical; require
  /// mu_.
  Result<std::vector<BlobRecord>> GetSeriesLocked(
      int schema_type, bool irts, SourceId id, Timestamp lo, Timestamp hi,
      SegmentScanStats* stats, const SeriesProjection& projection);
  Result<std::vector<BlobRecord>> GetMgLocked(int schema_type, int64_t group,
                                              Timestamp lo, Timestamp hi,
                                              SegmentScanStats* stats);

  /// Creates a segment's three tables (+ the MG pk index) and manifest.
  Result<Segment> CreateSegment(int schema_type, int64_t key,
                                int generation);

  /// Table-name prefix for one segment generation. The unsegmented layout
  /// keeps the historical flat names ("odh$<type>$rts").
  std::string SegmentPrefix(const std::string& type_name, int64_t key,
                            int generation) const;

  /// True when the segment cannot contain any blob overlapping [lo, hi]
  /// for the structure described by `stats` (data bounds, not nominal).
  static bool SegmentDisjoint(const ContainerStats& stats, Timestamp lo,
                              Timestamp hi) {
    return stats.blob_count == 0 || stats.max_ts < lo || stats.min_ts > hi;
  }

  void CountSegmentPruned(SegmentScanStats* stats) {
    segments_pruned_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) ++stats->segments_pruned;
  }

  /// Lazily creates the WAL file and appends one record to it. Called
  /// before the corresponding heap/index write. `lsn` (optional) receives
  /// the record's log position.
  Status LogPut(WalRecord::Kind kind, int schema_type, int64_t id_or_group,
                Timestamp begin, Timestamp end, Timestamp interval,
                int64_t n, const Slice& blob, const Slice& zone_map,
                uint64_t* lsn = nullptr);

  /// Size of each rolled WAL file on `disk`; 0 (the flat log) in the
  /// unsegmented layout, where no segment ever drops or compacts.
  uint64_t WalFileBytes(const storage::SimDisk* disk) const {
    return config_->options().segment_span == 0
               ? 0
               : kWalFilePages * disk->page_size();
  }

  /// Drops the WAL position of one deleted MG blob; requires mu_.
  static void ForgetMgLsn(Segment* seg, const MgKey& key);

  /// Frees the log below the lowest position any live segment or pin
  /// still needs (DESIGN.md § WAL lifecycle). Runs after a retention drop
  /// or a compaction commit, with the log synced; requires mu_.
  Status ReleaseWalLocked();

  int mg_version_ = 0;  // Suffix for rebuilt MG container tables.
  /// Encoding buffer of series puts (EncodeSeriesRecord) and scratch of
  /// projected fetches; guarded by mu_.
  std::string record_scratch_;
  uint64_t puts_ = 0;    // Put sequence; guarded by mu_.

  /// Where put number `seq` landed (CatchUpHistorical's log).
  struct PutLogEntry {
    uint64_t seq = 0;
    int schema_type = 0;
    WalRecord::Kind kind = WalRecord::Kind::kRts;
    int64_t id_or_group = 0;
    Timestamp begin = 0;  // With id_or_group, re-identifies the row.
    int64_t seg = 0;
    int64_t generation = 0;  // Manifest generation; MG epoch for MG.
    relational::Rid rid;
  };
  static constexpr size_t kPutLogCapacity = 1024;
  /// Records a successful put; requires mu_.
  void LogRecentPut(int schema_type, WalRecord::Kind kind,
                    int64_t id_or_group, Timestamp begin, int64_t seg_key,
                    int64_t generation, const relational::Rid& rid,
                    uint64_t* put_seq);
  std::deque<PutLogEntry> put_log_;  // Guarded by mu_; seq order.

  static void UpdateStats(ContainerStats* stats, Timestamp begin,
                          Timestamp end, int64_t n, size_t blob_bytes);

  relational::Database* db_;
  ConfigComponent* config_;
  /// Guards containers_, their segments and stats, retention_, wal_
  /// creation and mg_version_.
  mutable std::mutex mu_;
  std::map<int, Container> containers_;
  std::map<int, Timestamp> retention_;
  std::unique_ptr<Wal> wal_;
  /// Pre-resolved WAL instruments (guarded by mu_), handed to the Wal at
  /// its lazy creation without touching the registry.
  common::Histogram* wal_sync_hist_ = nullptr;
  common::Counter* wal_group_commits_ = nullptr;
  common::Counter* wal_piggybacked_ = nullptr;
  common::Counter* wal_bytes_released_ = nullptr;
  /// Replication pins on the WAL, id -> LSN; guarded by mu_.
  std::map<uint64_t, uint64_t> wal_pins_;
  uint64_t next_pin_ = 1;
  mutable std::atomic<int64_t> blobs_examined_{0};
  mutable std::atomic<int64_t> blobs_discarded_{0};
  mutable std::atomic<int64_t> segments_pruned_{0};
  std::atomic<int64_t> segments_compacted_{0};
  std::atomic<int64_t> segments_dropped_{0};
};

}  // namespace odh::core

#endif  // ODH_CORE_STORE_H_
