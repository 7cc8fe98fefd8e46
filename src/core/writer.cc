#include "core/writer.h"

#include "common/stopwatch.h"
#include "core/zone_map.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>

namespace odh::core {
namespace {

// Fibonacci-style mixer: source ids and group numbers are often small and
// sequential, so a plain modulo would put neighbouring sources in
// neighbouring shards — fine — but correlated bench workloads (ids striped
// across threads) would then collide on one shard. Mixing spreads them.
size_t MixToShard(uint64_t key, size_t num_shards) {
  key *= 0x9E3779B97F4A7C15ULL;
  key ^= key >> 32;
  return static_cast<size_t>(key % num_shards);
}

}  // namespace

OdhWriter::OdhWriter(OdhStore* store, ConfigComponent* config)
    : store_(store), config_(config) {
  int num_shards = config->options().writer_shards;
  if (num_shards < 1) num_shards = 1;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t OdhWriter::ShardIndexForSource(SourceId id) const {
  return MixToShard(static_cast<uint64_t>(id), shards_.size());
}

size_t OdhWriter::ShardIndexForGroup(int schema_type, int64_t group) const {
  uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(schema_type))
                  << 32) ^
                 static_cast<uint64_t>(group);
  return MixToShard(key, shards_.size());
}

OdhWriter::Shard& OdhWriter::ShardForSource(SourceId id) {
  return *shards_[ShardIndexForSource(id)];
}

OdhWriter::Shard& OdhWriter::ShardForGroup(int schema_type, int64_t group) {
  return *shards_[ShardIndexForGroup(schema_type, group)];
}

Result<const ValueBlobCodec*> OdhWriter::CodecFor(int schema_type) {
  std::lock_guard<std::mutex> lock(codec_mu_);
  auto it = codecs_.find(schema_type);
  if (it == codecs_.end()) {
    ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                         config_->GetSchemaType(schema_type));
    it = codecs_.emplace(schema_type, ValueBlobCodec(type->compression))
             .first;
  }
  // The map never erases, so the pointer stays valid after the lock drops;
  // the codec itself is immutable and safe to share across threads.
  return &it->second;
}

Status OdhWriter::Ingest(const OperationalRecord& record) {
  // Config lookups are lock-free: the configuration component is immutable
  // once ingestion starts (setup happens before threads are spawned).
  ODH_ASSIGN_OR_RETURN(const DataSourceInfo* info,
                       config_->GetSource(record.id));
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(info->schema_type));
  if (record.tags.size() != type->tag_names.size()) {
    return Status::InvalidArgument("record arity mismatch for type " +
                                   type->name);
  }

  // A low-frequency source lives in its group's shard so the group buffer
  // has exactly one owner; a high-frequency source lives in its id's shard.
  const bool high_freq = IsHighFrequency(info->source_class);
  Shard& shard = high_freq
                     ? ShardForSource(record.id)
                     : ShardForGroup(info->schema_type, info->group);
  std::lock_guard<std::mutex> lock(shard.mu);

  auto [ts_it, first] = shard.last_ts.try_emplace(record.id, kMinTimestamp);
  if (!first && record.ts < ts_it->second) {
    return Status::InvalidArgument(
        "timestamps must be non-decreasing per source");
  }
  ts_it->second = record.ts;
  ++shard.stats.points_ingested;

  const int b = config_->options().batch_size;
  if (high_freq) {
    SourceBuffer& buffer = shard.source_buffers[record.id];
    if (buffer.columns.empty()) {
      buffer.columns.resize(type->tag_names.size());
    }
    buffer.timestamps.push_back(record.ts);
    for (size_t t = 0; t < record.tags.size(); ++t) {
      buffer.columns[t].push_back(record.tags[t]);
    }
    if (static_cast<int>(buffer.size()) >= b) {
      ODH_RETURN_IF_ERROR(FlushSource(shard, record.id, *info, &buffer));
    }
    return Status::OK();
  }

  // Low-frequency: mixed grouping.
  GroupBuffer& buffer =
      shard.group_buffers[{info->schema_type, info->group}];
  if (buffer.records.empty()) buffer.window_begin = record.ts;
  const Timestamp window = config_->options().mg_window;
  if (record.ts - buffer.window_begin > window &&
      !buffer.records.empty()) {
    ODH_RETURN_IF_ERROR(
        FlushGroup(shard, info->schema_type, info->group, &buffer));
    buffer.window_begin = record.ts;
  }
  buffer.records.push_back(record);
  if (static_cast<int>(buffer.records.size()) >= b) {
    ODH_RETURN_IF_ERROR(
        FlushGroup(shard, info->schema_type, info->group, &buffer));
  }
  return Status::OK();
}

Status OdhWriter::FlushSource(Shard& shard, SourceId id,
                              const DataSourceInfo& info,
                              SourceBuffer* buffer) {
  if (buffer->timestamps.empty()) return Status::OK();
  const Stopwatch flush_timer;
  ODH_ASSIGN_OR_RETURN(const ValueBlobCodec* codec,
                       CodecFor(info.schema_type));
  SeriesBatch batch;
  batch.id = id;
  batch.timestamps = std::move(buffer->timestamps);
  batch.columns = std::move(buffer->columns);
  buffer->timestamps.clear();
  buffer->columns.clear();

  const size_t n = batch.timestamps.size();
  const Timestamp begin = batch.timestamps.front();
  const Timestamp end = batch.timestamps.back();

  // Regularity check: a "regular" source whose batch actually is regular
  // (within 1% jitter) stores as RTS with snapped timestamps; anything else
  // stores as IRTS (paper Table 1).
  bool regular = IsRegular(info.source_class) && n >= 2;
  const Timestamp interval = info.expected_interval;
  if (regular) {
    const Timestamp tolerance = std::max<Timestamp>(interval / 100, 1);
    for (size_t i = 0; i < n; ++i) {
      Timestamp expected = begin + static_cast<Timestamp>(i) * interval;
      if (std::llabs(batch.timestamps[i] - expected) > tolerance) {
        regular = false;
        break;
      }
    }
  }

  std::string blob;
  std::string zone_map;
  if (config_->options().enable_zone_maps) {
    ZoneMap map = ZoneMap::FromColumns(batch.columns);
    map.Widen(codec->spec().max_error);  // Conservative under lossy codecs.
    zone_map = map.Encode();
  }
  if (regular) {
    for (size_t i = 0; i < n; ++i) {
      batch.timestamps[i] = begin + static_cast<Timestamp>(i) * interval;
    }
    ODH_RETURN_IF_ERROR(codec->EncodeRts(batch, interval, &blob));
    ODH_RETURN_IF_ERROR(store_->PutRts(info.schema_type, id, begin,
                                       batch.timestamps.back(), interval,
                                       static_cast<int64_t>(n), blob,
                                       zone_map, &shard.last_put_seq));
    ++shard.stats.rts_blobs;
  } else {
    ODH_RETURN_IF_ERROR(codec->EncodeIrts(batch, &blob));
    ODH_RETURN_IF_ERROR(store_->PutIrts(info.schema_type, id, begin, end,
                                        static_cast<int64_t>(n), blob,
                                        zone_map, &shard.last_put_seq));
    ++shard.stats.irts_blobs;
  }
  shard.stats.blob_bytes += static_cast<int64_t>(blob.size());
  if (flush_hist_ != nullptr) flush_hist_->Observe(flush_timer.ElapsedMicros());
  return Status::OK();
}

Status OdhWriter::FlushGroup(Shard& shard, int schema_type, int64_t group,
                             GroupBuffer* buffer) {
  if (buffer->records.empty()) return Status::OK();
  const Stopwatch flush_timer;
  // MG blobs are encoded losslessly: the paper's lossy codecs apply "when
  // the values are put into RTS or IRTS batch structures" (Figure 3), i.e.
  // at ingestion for high-frequency sources and at reorganization for
  // low-frequency ones. Compressing MG lossily too would double the error.
  static const ValueBlobCodec lossless{CompressionSpec{}};
  const ValueBlobCodec* codec = &lossless;
  std::vector<OperationalRecord> records = std::move(buffer->records);
  buffer->records.clear();
  std::stable_sort(records.begin(), records.end(),
                   [](const OperationalRecord& a, const OperationalRecord& b) {
                     return a.ts != b.ts ? a.ts < b.ts : a.id < b.id;
                   });
  Timestamp begin = records.front().ts;
  Timestamp end = records.back().ts;
  std::string blob;
  ODH_RETURN_IF_ERROR(codec->EncodeMg(records, begin, &blob));
  std::string zone_map;
  if (config_->options().enable_zone_maps && !records.empty()) {
    zone_map = ZoneMap::FromRecords(
                   records, static_cast<int>(records[0].tags.size()))
                   .Encode();
  }
  ODH_RETURN_IF_ERROR(store_->PutMg(schema_type, group, begin, end,
                                    static_cast<int64_t>(records.size()),
                                    blob, zone_map, &shard.last_put_seq));
  ++shard.stats.mg_blobs;
  shard.stats.blob_bytes += static_cast<int64_t>(blob.size());
  if (flush_hist_ != nullptr) flush_hist_->Observe(flush_timer.ElapsedMicros());
  return Status::OK();
}

Status OdhWriter::Flush(int schema_type) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [id, buffer] : shard.source_buffers) {
      if (buffer.size() == 0) continue;
      ODH_ASSIGN_OR_RETURN(const DataSourceInfo* info,
                           config_->GetSource(id));
      if (info->schema_type != schema_type) continue;
      ODH_RETURN_IF_ERROR(FlushSource(shard, id, *info, &buffer));
    }
    for (auto& [key, buffer] : shard.group_buffers) {
      if (key.first != schema_type) continue;
      ODH_RETURN_IF_ERROR(FlushGroup(shard, key.first, key.second, &buffer));
    }
  }
  // Sync is idempotent, so if a transient fault burst outlives the storage
  // layer's backoff (which already retried each page), re-issue the whole
  // sync a few times before giving up.
  constexpr int kMaxSyncAttempts = 4;
  Status synced;
  for (int attempt = 0; attempt < kMaxSyncAttempts; ++attempt) {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    synced = store_->Sync(schema_type);
    if (!synced.IsUnavailable()) return synced;
    sync_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  return synced;
}

Status OdhWriter::FlushAll() {
  for (int t = 0; t < config_->num_schema_types(); ++t) {
    ODH_RETURN_IF_ERROR(Flush(t));
  }
  return Status::OK();
}

Status OdhWriter::CollectDirty(int schema_type, SourceId id, Timestamp lo,
                               Timestamp hi,
                               std::vector<OperationalRecord>* out,
                               uint64_t* flushed_through) const {
  uint64_t put_seq = 0;
  // Only the shard owning `id`'s buffer can hold its rows; a slice (or an
  // unknown id) visits every shard.
  size_t first = 0, last = shards_.size();
  if (id >= 0) {
    auto info = config_->GetSource(id);
    if (info.ok()) {
      first = IsHighFrequency((*info)->source_class)
                  ? ShardIndexForSource(id)
                  : ShardIndexForGroup((*info)->schema_type, (*info)->group);
      last = first + 1;
    }
  }
  // Reproduce the single-shard ordering byte for byte: high-frequency
  // sources by ascending id, then group buffers by (schema_type, group).
  // Shard snapshots are merged through ordered maps to get there.
  std::map<SourceId, std::vector<OperationalRecord>> by_source;
  std::map<std::pair<int, int64_t>, std::vector<OperationalRecord>> by_group;
  for (size_t s = first; s < last; ++s) {
    const Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    put_seq = std::max(put_seq, shard.last_put_seq);
    for (const auto& [source_id, buffer] : shard.source_buffers) {
      if (id >= 0 && source_id != id) continue;
      if (buffer.size() == 0) continue;
      auto info = config_->GetSource(source_id);
      if (!info.ok() || (*info)->schema_type != schema_type) continue;
      std::vector<OperationalRecord>& dst = by_source[source_id];
      for (size_t i = 0; i < buffer.size(); ++i) {
        if (buffer.timestamps[i] < lo || buffer.timestamps[i] > hi) continue;
        OperationalRecord record;
        record.id = source_id;
        record.ts = buffer.timestamps[i];
        record.tags.resize(buffer.columns.size());
        for (size_t t = 0; t < buffer.columns.size(); ++t) {
          record.tags[t] = buffer.columns[t][i];
        }
        dst.push_back(std::move(record));
      }
    }
    for (const auto& [key, buffer] : shard.group_buffers) {
      if (key.first != schema_type) continue;
      std::vector<OperationalRecord>& dst = by_group[key];
      for (const OperationalRecord& record : buffer.records) {
        if (id >= 0 && record.id != id) continue;
        if (record.ts < lo || record.ts > hi) continue;
        dst.push_back(record);
      }
    }
  }
  for (auto& [source_id, records] : by_source) {
    (void)source_id;
    for (OperationalRecord& record : records) {
      out->push_back(std::move(record));
    }
  }
  for (auto& [key, records] : by_group) {
    (void)key;
    for (OperationalRecord& record : records) {
      out->push_back(std::move(record));
    }
  }
  if (flushed_through != nullptr) *flushed_through = put_seq;
  return Status::OK();
}

WriterStats OdhWriter::stats() const {
  WriterStats total;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total.points_ingested += shard.stats.points_ingested;
    total.rts_blobs += shard.stats.rts_blobs;
    total.irts_blobs += shard.stats.irts_blobs;
    total.mg_blobs += shard.stats.mg_blobs;
    total.blob_bytes += shard.stats.blob_bytes;
  }
  total.syncs = syncs_.load(std::memory_order_relaxed);
  total.sync_retries = sync_retries_.load(std::memory_order_relaxed);
  return total;
}

}  // namespace odh::core
