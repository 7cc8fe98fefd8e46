#include "streams.h"

#include <cmath>

namespace histbench {

using odh::Status;
using odh::core::OdhSystem;

RegularGenerator::RegularGenerator(int64_t num_sources, double hz,
                                   SourceId first_id, uint64_t seed)
    : seed_(seed),
      interval_(static_cast<Timestamp>(odh::kMicrosPerSecond / hz)) {
  info_.name = "RT";
  info_.tag_names = {"voltage", "current", "frequency"};
  info_.num_sources = num_sources;
  info_.first_source_id = first_id;
  info_.sample_interval = interval_;
  info_.regular = true;
  info_.offered_points_per_second = static_cast<double>(num_sources) * hz;
}

bool RegularGenerator::Next(OperationalRecord* record) {
  const int64_t n = info_.num_sources;
  const int64_t k = next_++;
  const int64_t source = k % n;
  const int64_t step = k / n;
  record->id = info_.first_source_id + source;
  record->ts = step * interval_;
  // Smooth per-source waves with a seeded phase: what a PMU or meter emits.
  const double phase =
      static_cast<double>((seed_ * 2654435761u + source * 40503u) % 6283) /
      1000.0;
  const double x = static_cast<double>(step) * 0.01 + phase;
  record->tags.resize(3);
  record->tags[0] = 230.0 + 2.0 * std::sin(x);
  record->tags[1] = 10.0 + static_cast<double>(source % 7) + std::cos(x);
  record->tags[2] = 50.0 + 0.01 * std::sin(3.0 * x);
  return true;
}

MergedStream::MergedStream(
    std::vector<std::unique_ptr<odh::benchfw::RecordStream>> streams)
    : streams_(std::move(streams)),
      heads_(streams_.size()),
      live_(streams_.size()) {
  for (size_t i = 0; i < streams_.size(); ++i) {
    live_[i] = streams_[i]->Next(&heads_[i]);
  }
}

void MergedStream::NextBatch(size_t n, std::vector<TypedRecord>* out) {
  out->resize(n);
  size_t filled = 0;
  while (filled < n) {
    int best = -1;
    for (size_t i = 0; i < streams_.size(); ++i) {
      if (live_[i] && (best < 0 || heads_[i].ts < heads_[best].ts)) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    TypedRecord& slot = (*out)[filled++];
    slot.kind = best;
    std::swap(slot.rec, heads_[static_cast<size_t>(best)]);
    live_[static_cast<size_t>(best)] =
        streams_[static_cast<size_t>(best)]->Next(
            &heads_[static_cast<size_t>(best)]);
  }
  out->resize(filled);
}

int64_t RecordValues(const OperationalRecord& rec) {
  int64_t n = 0;
  for (double v : rec.tags) n += std::isnan(v) ? 0 : 1;
  return n;
}

Feeder::Feeder(OdhSystem* odh, std::vector<int> schema_types,
               Cadence cadence, Timestamp segment_span, Tracer* tracer)
    : odh_(odh),
      schema_types_(std::move(schema_types)),
      cadence_(cadence),
      segment_span_(segment_span),
      tracer_(tracer),
      acked_by_segment_(schema_types_.size()),
      pending_by_segment_(schema_types_.size()) {}

Status Feeder::IngestBatch(const std::vector<TypedRecord>& batch, int64_t op,
                           int parent) {
  last_maintenance_ns_ = 0;
  for (const TypedRecord& r : batch) {
    if (!started_) {
      // Cadences count from the first boundary after the stream starts.
      next_flush_ = (r.rec.ts / cadence_.flush_every + 1) * cadence_.flush_every;
      next_compact_ =
          (r.rec.ts / cadence_.compact_every + 1) * cadence_.compact_every;
      started_ = true;
    }
    if (r.rec.ts >= next_flush_) {
      const Timestamp boundary =
          r.rec.ts / cadence_.flush_every * cadence_.flush_every;
      ODH_RETURN_IF_ERROR(Flush(op, parent, boundary));
      next_flush_ = boundary + cadence_.flush_every;
      if (r.rec.ts >= next_compact_) {
        ODH_RETURN_IF_ERROR(Compact(op, parent));
        next_compact_ = (r.rec.ts / cadence_.compact_every + 1) *
                        cadence_.compact_every;
      }
    }
    ODH_RETURN_IF_ERROR(odh_->Ingest(r.rec));
    const int64_t values = RecordValues(r.rec);
    values_pending_ += values;
    ++records_pending_;
    values_ingested_ += values;
    watermark_ = r.rec.ts;
    ++pending_by_segment_[static_cast<size_t>(r.kind)]
                         [r.rec.ts / segment_span_];
  }
  return Status::OK();
}

Status Feeder::Flush(int64_t op, int parent, Timestamp boundary) {
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer_, "odh.FlushAll", op, parent);
    ODH_RETURN_IF_ERROR(odh_->FlushAll());
  }
  last_maintenance_ns_ += NowNs() - t0;
  values_acked_ += values_pending_;
  records_acked_ += records_pending_;
  values_pending_ = records_pending_ = 0;
  for (size_t k = 0; k < pending_by_segment_.size(); ++k) {
    for (const auto& [key, n] : pending_by_segment_[k]) {
      acked_by_segment_[k][key] += n;
    }
    pending_by_segment_[k].clear();
  }
  acked_before_ = boundary;
  return Status::OK();
}

Status Feeder::Compact(int64_t op, int parent) {
  const int64_t t0 = NowNs();
  for (int type : schema_types_) {
    {
      ScopedSpan span(tracer_, "odh.CompactSegments", op, parent);
      ODH_ASSIGN_OR_RETURN(odh::core::CompactionReport report,
                           odh_->CompactSegments(type));
      compaction_bytes_ += report.bytes_after;
    }
    ScopedSpan span(tracer_, "odh.ApplyRetention", op, parent);
    ODH_RETURN_IF_ERROR(odh_->ApplyRetention(type).status());
  }
  const int64_t ns = NowNs() - t0;
  last_maintenance_ns_ += ns;
  compaction_ns_ += ns;
  ++compaction_cycles_;
  return Status::OK();
}

int64_t Feeder::ExpectedLiveRecords(int kind, bool acked_only) const {
  const std::vector<odh::core::SegmentInfo> segments =
      odh_->store()->SegmentInfos(schema_types_[static_cast<size_t>(kind)]);
  int64_t oldest = INT64_MIN;
  if (!segments.empty()) oldest = segments.front().key;
  int64_t n = 0;
  for (const auto& [key, count] : acked_by_segment_[static_cast<size_t>(kind)]) {
    if (key >= oldest) n += count;
  }
  if (!acked_only) {
    for (const auto& [key, count] :
         pending_by_segment_[static_cast<size_t>(kind)]) {
      if (key >= oldest) n += count;
    }
  }
  return n;
}

odh::Result<int> DefineStream(OdhSystem* odh,
                              const odh::benchfw::StreamInfo& info) {
  ODH_ASSIGN_OR_RETURN(int type, odh->DefineSchemaType(info.name,
                                                       info.tag_names));
  for (int64_t s = 0; s < info.num_sources; ++s) {
    ODH_RETURN_IF_ERROR(odh->RegisterSource(info.first_source_id + s, type,
                                            info.sample_interval,
                                            info.regular));
  }
  return type;
}

}  // namespace histbench
