// Seeded input streams and the ingest feeder shared by the workloads that
// write: ingest_steady (mixed TD + RT + LD stream, closed loop) and
// dashboard_live (TD stream, open loop).
#ifndef HISTBENCH_STREAMS_H_
#define HISTBENCH_STREAMS_H_

#include <map>
#include <memory>
#include <vector>

#include "benchfw/ld_generator.h"
#include "benchfw/td_generator.h"
#include "core/odh.h"
#include "harness.h"

namespace histbench {

using odh::SourceId;
using odh::Timestamp;
using odh::core::OperationalRecord;

/// Regular high-frequency sources (RTS blobs): every source samples at
/// exactly `hz`, all on the same clock; three smooth tags.
class RegularGenerator : public odh::benchfw::RecordStream {
 public:
  RegularGenerator(int64_t num_sources, double hz, SourceId first_id,
                   uint64_t seed);
  const odh::benchfw::StreamInfo& info() const override { return info_; }
  bool Next(OperationalRecord* record) override;
  void Reset() override { next_ = 0; }

 private:
  odh::benchfw::StreamInfo info_;
  uint64_t seed_;
  Timestamp interval_;
  int64_t next_ = 0;
};

/// One record tagged with the stream (schema-type slot) it belongs to.
struct TypedRecord {
  int kind = 0;
  OperationalRecord rec;
};

/// Merges time-ordered streams into one, in timestamp order. The TD, LD and
/// regular generators are each globally non-decreasing in time (their
/// jitter is below half a global step), so the merge is too.
class MergedStream {
 public:
  explicit MergedStream(
      std::vector<std::unique_ptr<odh::benchfw::RecordStream>> streams);
  /// Fills `out` with the next `n` records (fewer only when every stream
  /// has ended).
  void NextBatch(size_t n, std::vector<TypedRecord>* out);
  const odh::benchfw::StreamInfo& info(int kind) const {
    return streams_[static_cast<size_t>(kind)]->info();
  }
  int kinds() const { return static_cast<int>(streams_.size()); }

 private:
  std::vector<std::unique_ptr<odh::benchfw::RecordStream>> streams_;
  std::vector<OperationalRecord> heads_;
  std::vector<bool> live_;
};

/// Non-NULL tag values of a record.
int64_t RecordValues(const OperationalRecord& rec);

/// Stream-time cadences of the write path: FlushAll every `flush_every`,
/// CompactSegments + ApplyRetention every `compact_every`. Both divide the
/// segment span or are multiples of it, so every blob lies in one segment
/// and per-segment record counts are exact.
struct Cadence {
  Timestamp flush_every = 0;
  Timestamp compact_every = 0;
};

/// Drives OdhSystem::Ingest for batches of typed records and runs the
/// flush/compaction policy inside the op that crosses a boundary. Keeps the
/// bookkeeping the correctness checks need: values acknowledged by a
/// completed FlushAll, and records per (schema type, segment key).
class Feeder {
 public:
  Feeder(odh::core::OdhSystem* odh, std::vector<int> schema_types,
         Cadence cadence, Timestamp segment_span, Tracer* tracer);

  /// Ingests `batch`; `op`/`parent` tag the spans of any flush or
  /// compaction it triggers.
  odh::Status IngestBatch(const std::vector<TypedRecord>& batch, int64_t op,
                          int parent);
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Values and records covered by completed FlushAll calls.
  int64_t values_acked() const { return values_acked_; }
  int64_t records_acked() const { return records_acked_; }
  /// Every record stamped before this stream time is acknowledged.
  Timestamp acked_before() const { return acked_before_; }
  int64_t values_ingested() const { return values_ingested_; }
  /// Stream time of the newest record ingested.
  Timestamp watermark() const { return watermark_; }

  /// Nanoseconds the last IngestBatch spent in FlushAll / compaction.
  int64_t last_maintenance_ns() const { return last_maintenance_ns_; }
  int64_t compaction_cycles() const { return compaction_cycles_; }
  int64_t compaction_ns() const { return compaction_ns_; }
  int64_t compaction_bytes_rewritten() const { return compaction_bytes_; }

  /// Expected COUNT(*) of slot `kind` after retention: records (all, or
  /// only acknowledged ones) of every segment key at or above the oldest
  /// segment the store still lists.
  int64_t ExpectedLiveRecords(int kind, bool acked_only) const;

 private:
  odh::Status Flush(int64_t op, int parent, Timestamp boundary);
  odh::Status Compact(int64_t op, int parent);

  odh::core::OdhSystem* odh_;
  std::vector<int> schema_types_;
  Cadence cadence_;
  Timestamp segment_span_;
  Tracer* tracer_;
  bool started_ = false;
  Timestamp next_flush_ = 0;
  Timestamp next_compact_ = 0;
  int64_t values_pending_ = 0, records_pending_ = 0;
  int64_t values_acked_ = 0, records_acked_ = 0;
  int64_t values_ingested_ = 0;
  Timestamp acked_before_ = 0;
  Timestamp watermark_ = 0;
  int64_t last_maintenance_ns_ = 0;
  int64_t compaction_cycles_ = 0, compaction_ns_ = 0, compaction_bytes_ = 0;
  /// Per slot: records per segment key, acknowledged and still pending.
  std::vector<std::map<int64_t, int64_t>> acked_by_segment_;
  std::vector<std::map<int64_t, int64_t>> pending_by_segment_;
};

/// Defines the schema type of `info`, registers its sources and returns the
/// type id.
odh::Result<int> DefineStream(odh::core::OdhSystem* odh,
                              const odh::benchfw::StreamInfo& info);

}  // namespace histbench

#endif  // HISTBENCH_STREAMS_H_
