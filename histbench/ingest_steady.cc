// ingest_steady: the write path alone. One thread ingests a seeded, mixed,
// time-ordered stream as fast as it can, 1000 records per op (the paper's
// executeBatch(1000)):
//   - TD-shaped trades: 200 accounts at 20 Hz, irregular -> IRTS blobs;
//   - regular high-frequency sources: 40 at 100 Hz -> RTS blobs;
//   - LD-shaped stations: 4000 at a 20 s mean interval, sparse -> MG blobs.
// FlushAll runs every 2 s of stream time, CompactSegments + ApplyRetention
// every 20 s (one segment span); both land inside the op that crosses the
// boundary. Retention keeps 60 s, so the store reaches a steady size and a
// run completes many compaction cycles. One thread and stream-time
// cadences make the byte counts exact for a seed.
#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "core/value_blob.h"
#include "sql/session.h"
#include "streams.h"

namespace histbench {
namespace {

using odh::Datum;
using odh::Status;
using odh::core::OdhOptions;
using odh::core::OdhSystem;

constexpr Timestamp kSec = odh::kMicrosPerSecond;
constexpr Timestamp kSegmentSpan = 20 * kSec;
constexpr Cadence kCadence{2 * kSec, 20 * kSec};
constexpr Timestamp kRetention = 60 * kSec;
/// Set-up ingests this much stream time: four compaction cycles and the
/// first retention drop.
constexpr Timestamp kWarmupSpan = 100 * kSec;
constexpr size_t kBatch = 1000;
/// 8 MiB of pool against ~20 MiB of live data: evictions write pages back
/// during the run, as they would on a historian that has run for a while.
constexpr size_t kPoolPages = 2048;

OdhOptions Options() {
  OdhOptions options;
  options.segment_span = kSegmentSpan;
  options.pool_pages = kPoolPages;
  options.query_parallelism = 0;  // No read pool: compaction runs inline.
  return options;
}

std::unique_ptr<MergedStream> MakeStream(uint64_t seed) {
  odh::benchfw::TdConfig td;
  td.num_accounts = 200;
  td.per_account_hz = 20;
  td.duration_seconds = 1e6;
  td.seed = seed * 7919 + 1;
  td.first_source_id = 1;
  odh::benchfw::LdConfig ld;
  ld.num_sensors = 4000;
  ld.mean_interval = 20 * kSec;
  ld.duration_seconds = 1e6;
  ld.first_id = 10000001;
  ld.seed = seed * 31 + 7;
  std::vector<std::unique_ptr<odh::benchfw::RecordStream>> streams;
  streams.push_back(std::make_unique<odh::benchfw::TdGenerator>(td));
  streams.push_back(
      std::make_unique<RegularGenerator>(40, 100.0, 100001, seed));
  streams.push_back(std::make_unique<odh::benchfw::LdGenerator>(ld));
  return std::make_unique<MergedStream>(std::move(streams));
}

struct Instance {
  std::unique_ptr<OdhSystem> odh;
  std::unique_ptr<MergedStream> stream;
  std::unique_ptr<Feeder> feeder;
};

/// Builds a system, defines the three stream types and ingests the
/// warm-up span, then writes the pool back (a checkpoint). Records the
/// exact counters of that deterministic prefix.
odh::Result<Instance> SetUp(uint64_t seed, Tracer* tracer,
                            std::map<std::string, int64_t>* exact) {
  Instance in;
  in.odh = std::make_unique<OdhSystem>(Options());
  in.stream = MakeStream(seed);
  std::vector<int> types;
  for (int k = 0; k < in.stream->kinds(); ++k) {
    ODH_ASSIGN_OR_RETURN(int type, DefineStream(in.odh.get(),
                                                in.stream->info(k)));
    ODH_RETURN_IF_ERROR(in.odh->SetRetention(type, kRetention).status());
    types.push_back(type);
  }
  ODH_RETURN_IF_ERROR(in.odh->FlushAll());
  in.feeder = std::make_unique<Feeder>(in.odh.get(), types, kCadence,
                                       kSegmentSpan, tracer);
  std::vector<TypedRecord> batch;
  while (in.feeder->watermark() < kWarmupSpan) {
    in.stream->NextBatch(kBatch, &batch);
    ODH_RETURN_IF_ERROR(in.feeder->IngestBatch(batch, -1, -1));
  }
  ODH_RETURN_IF_ERROR(in.odh->database()->pool()->FlushAll());
  const Counters c = Counters::Read(in.odh.get());
  (*exact)["load.storage_bytes"] = static_cast<int64_t>(in.odh->storage_bytes());
  (*exact)["load.disk_bytes_written"] = static_cast<int64_t>(c.bytes_written);
  (*exact)["load.disk_page_reads"] = static_cast<int64_t>(c.page_reads);
  (*exact)["load.disk_page_writes"] =
      static_cast<int64_t>(in.odh->io_stats().page_writes);
  (*exact)["load.wal_synced_bytes"] = static_cast<int64_t>(c.wal_synced_bytes);
  (*exact)["load.blobs_written"] = c.blobs_written;
  (*exact)["load.blob_bytes"] = c.blob_bytes;
  (*exact)["load.values"] = in.feeder->values_acked();
  (*exact)["load.records"] = in.feeder->records_acked();
  (*exact)["load.pool_evictions"] = static_cast<int64_t>(c.pool_evictions);
  return in;
}

/// Encodes the records of one flush interval the way the writer would
/// (one blob per source, or per MG group) and returns {ns, values, blobs}.
struct EncodeReplay {
  int64_t ns = 0;
  int64_t values = 0;
  int64_t blobs = 0;
};

EncodeReplay ReplayEncode(OdhSystem* odh,
                          const std::vector<TypedRecord>& records) {
  // Key: (stream slot, MG group for low-frequency sources, else source id).
  std::map<std::tuple<int, bool, int64_t>, std::vector<OperationalRecord>>
      groups;
  for (const TypedRecord& r : records) {
    auto info = odh->config()->GetSource(r.rec.id);
    ODH_CHECK_OK(info.status());
    const bool mg = !odh::core::IsHighFrequency((*info)->source_class);
    groups[{r.kind, mg, mg ? (*info)->group : r.rec.id}].push_back(r.rec);
  }
  const odh::core::ValueBlobCodec codec{odh::core::CompressionSpec{}};
  EncodeReplay out;
  std::string blob;
  for (auto& [key, recs] : groups) {
    const bool mg = std::get<1>(key);
    for (const OperationalRecord& r : recs) out.values += RecordValues(r);
    const int64_t t0 = NowNs();
    if (mg) {
      std::sort(recs.begin(), recs.end(),
                [](const OperationalRecord& a, const OperationalRecord& b) {
                  return a.ts != b.ts ? a.ts < b.ts : a.id < b.id;
                });
      ODH_CHECK_OK(codec.EncodeMg(recs, recs.front().ts, &blob));
    } else {
      odh::core::SeriesBatch series;
      series.id = recs.front().id;
      const size_t tags = recs.front().tags.size();
      series.columns.assign(tags, {});
      for (const OperationalRecord& r : recs) {
        series.timestamps.push_back(r.ts);
        for (size_t t = 0; t < tags; ++t) series.columns[t].push_back(r.tags[t]);
      }
      auto info = odh->config()->GetSource(series.id);
      const bool regular =
          odh::core::IsRegular((*info)->source_class) && recs.size() > 1;
      ODH_CHECK_OK(regular ? codec.EncodeRts(series,
                                             recs[1].ts - recs[0].ts, &blob)
                           : codec.EncodeIrts(series, &blob));
    }
    out.ns += NowNs() - t0;
    ++out.blobs;
  }
  return out;
}

/// Counts rows per schema type with COUNT(*), optionally below a stream
/// time, through an ordinary SQL session.
odh::Result<int64_t> CountRows(OdhSystem* odh, const std::string& type_name,
                               Timestamp before) {
  odh::sql::Session session(odh->engine());
  std::string sql = "SELECT COUNT(*) FROM " + type_name + "_v";
  std::vector<Datum> params;
  if (before != odh::kMaxTimestamp) {
    sql += " WHERE ts < ?";
    params.push_back(Datum::Time(before));
  }
  ODH_ASSIGN_OR_RETURN(odh::sql::QueryResult result,
                       session.Execute(sql, params));
  if (result.rows.size() != 1 || result.rows[0].empty()) {
    return Status::Internal("COUNT(*) returned no row");
  }
  return result.rows[0][0].int64_value();
}

/// Recounts the live totals, then reboots a durable clone of the disk into
/// a fresh system and checks every acknowledged record came back.
void CheckTotalsAndDurability(Instance* in, Report* report) {
  const Feeder& feeder = *in->feeder;
  for (int k = 0; k < in->stream->kinds(); ++k) {
    const std::string& name = in->stream->info(k).name;
    auto live = CountRows(in->odh.get(), name, odh::kMaxTimestamp);
    const int64_t expected = feeder.ExpectedLiveRecords(k, false);
    report->Attempt(live.ok() && *live == expected);
    if (!live.ok() || *live != expected) {
      report->Fail("COUNT(*) of " + name + "_v: expected " +
                   std::to_string(expected) + ", got " +
                   (live.ok() ? std::to_string(*live)
                              : live.status().ToString()));
    }
  }
  std::unique_ptr<odh::storage::SimDisk> clone =
      in->odh->database()->disk()->CloneDurable();
  OdhSystem rebooted(Options());
  for (int k = 0; k < in->stream->kinds(); ++k) {
    ODH_CHECK_OK(DefineStream(&rebooted, in->stream->info(k)).status());
  }
  auto recovery = rebooted.Recover(clone.get());
  if (!recovery.ok()) {
    report->Fail("recovery: " + recovery.status().ToString());
    return;
  }
  for (int k = 0; k < in->stream->kinds(); ++k) {
    const std::string& name = in->stream->info(k).name;
    auto got = CountRows(&rebooted, name, feeder.acked_before());
    const int64_t expected = feeder.ExpectedLiveRecords(k, true);
    report->Attempt(got.ok() && *got == expected);
    if (!got.ok() || *got != expected) {
      report->Fail("durability of " + name + "_v: " +
                   std::to_string(expected) + " acknowledged records, " +
                   (got.ok() ? std::to_string(*got)
                             : got.status().ToString()) +
                   " after recovery");
    }
  }
  report->Info("durability: %llu WAL records replayed; every record "
               "acknowledged before stream time %lld us is readable",
               static_cast<unsigned long long>(recovery->records_replayed),
               static_cast<long long>(feeder.acked_before()));
}

}  // namespace

int RunIngestSteady(const Args& args, Report* report) {
  // One thread: keep its caches warm on one CPU during set-up; in the
  // measured phase a CpuRotation moves it over the CPUs once a second.
  PinThisThread(0);
  Tracer tracer(args.trace);
  Tracer off(false);
  std::map<std::string, int64_t> first_exact;
  auto made = RepeatSetUp<Instance>(
      [&](std::map<std::string, int64_t>* exact) {
        return SetUp(args.seed, &off, exact);
      },
      &first_exact, report);
  if (!made.ok()) {
    report->Fail("set-up: " + made.status().ToString());
    return report->Finish(args, tracer);
  }
  Instance in = std::move(*made);
  SetLoadMetrics(first_exact, report);
  report->Info("set-up prefix: %lld records, %lld values, storage %lld B",
               static_cast<long long>(first_exact["load.records"]),
               static_cast<long long>(first_exact["load.values"]),
               static_cast<long long>(first_exact["load.storage_bytes"]));

  Feeder& feeder = *in.feeder;
  const double crc_rate = CalibrateCrcBytesPerUs();
  PhaseStats untraced, traced;
  LayerTotals layers;
  int64_t ingest_ns = 0, ingest_records = 0;
  int64_t compaction_ns = 0, compaction_cycles = 0, compaction_bytes = 0;
  int64_t traced_values = 0;
  EncodeReplay encode_total;
  std::vector<TypedRecord> batch, interval_records;
  int flushes_seen = 0;
  CpuRotation rotation;
  const int64_t phase_start = NowNs();
  const int64_t phase_end =
      phase_start + static_cast<int64_t>(args.seconds * 1e9);
  for (int64_t op = 0; NowNs() < phase_end; ++op) {
    rotation.Tick();
    in.stream->NextBatch(kBatch, &batch);
    const bool tracing = InTracedWindow(args.trace, phase_start);
    Counters before;
    if (tracing) before = Counters::Read(in.odh.get());
    const int64_t acked0 = feeder.values_acked();
    const int64_t cycles0 = feeder.compaction_cycles();
    const int64_t cns0 = feeder.compaction_ns();
    const int64_t cbytes0 = feeder.compaction_bytes_rewritten();
    const int64_t values0 = feeder.values_ingested();
    Tracer* op_tracer = tracing ? &tracer : &off;
    feeder.set_tracer(op_tracer);
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    Status status;
    {
      ScopedSpan span(op_tracer, "op.ingest_batch", op);
      status = feeder.IngestBatch(batch, op, span.id());
    }
    const int64_t op_ns = NowNs() - t0;
    const int64_t cpu_ns = ProcessCpuNs() - cpu0;
    report->Attempt(status.ok());
    if (!status.ok()) {
      report->Fail("ingest: " + status.ToString());
      break;
    }
    const int64_t acked = feeder.values_acked() - acked0;
    (tracing ? traced : untraced).Add(op_ns, acked, cpu_ns);
    if (!args.trace) continue;
    interval_records.insert(interval_records.end(), batch.begin(),
                            batch.end());
    if (tracing) {
      layers.AddDelta(Counters::Read(in.odh.get()).Minus(before));
      ingest_ns += op_ns - feeder.last_maintenance_ns();
      ingest_records += static_cast<int64_t>(batch.size());
      compaction_cycles += feeder.compaction_cycles() - cycles0;
      compaction_ns += feeder.compaction_ns() - cns0;
      compaction_bytes += feeder.compaction_bytes_rewritten() - cbytes0;
      traced_values += feeder.values_ingested() - values0;
    }
    if (acked == 0) continue;
    // The op flushed: the records before its boundary form one flushed
    // interval. For every fourth flush in a traced window, replay their
    // encode after the op.
    const Timestamp boundary = feeder.acked_before();
    if (tracing && flushes_seen++ % 4 == 0) {
      ScopedSpan span(&tracer, "replay.value_blob.encode", op);
      std::vector<TypedRecord> flushed;
      for (const TypedRecord& r : interval_records) {
        if (r.rec.ts < boundary) flushed.push_back(r);
      }
      const EncodeReplay e = ReplayEncode(in.odh.get(), flushed);
      encode_total.ns += e.ns;
      encode_total.values += e.values;
      encode_total.blobs += e.blobs;
    }
    interval_records.erase(
        std::remove_if(interval_records.begin(), interval_records.end(),
                       [boundary](const TypedRecord& r) {
                         return r.rec.ts < boundary;
                       }),
        interval_records.end());
  }
  const double peak_rss = PeakRssMb();

  // End-to-end figures come from the untraced ops (all ops of an untraced
  // run, the untraced windows of a traced one).
  const PhaseStats& main_stats = untraced;
  report->Info("measured: %zu untraced ops, %zu traced ops, %.3f s busy",
               untraced.op_ms.size(), traced.op_ms.size(),
               untraced.busy_s + traced.busy_s);
  report->Set("dp_per_s", main_stats.DpPerS());
  SetLatencyMetrics(main_stats.op_ms, report, !args.trace);
  report->Set("cpu_ns_per_dp",
              main_stats.dp > 0
                  ? static_cast<double>(main_stats.cpu_ns) / main_stats.dp
                  : 0);
  report->Set("peak_rss_mb", peak_rss);

  if (args.trace) {
    SetLayerMetrics(layers, static_cast<double>(traced_values), crc_rate,
                    report);
    SetOverheadMetrics(untraced, traced, report);
    odh::common::MetricsRegistry* m = in.odh->metrics();
    const odh::common::Histogram* flush =
        m->GetHistogram("odh.writer.flush_micros");
    const odh::common::Histogram* sync =
        m->GetHistogram("odh.wal.sync_micros");
    report->Set("core.writer.ingest_ns_per_record",
                ingest_records > 0
                    ? static_cast<double>(ingest_ns) / ingest_records
                    : 0);
    report->Set("core.writer.flush_us_p99", flush->Quantile(0.99));
    report->Set("core.wal.sync_us_p50", sync->Quantile(0.5));
    report->Set("core.wal.sync_us_p99", sync->Quantile(0.99));
    report->Set("core.compactor.ms_per_cycle",
                compaction_cycles > 0
                    ? static_cast<double>(compaction_ns) / 1e6 /
                          compaction_cycles
                    : 0);
    report->Set("core.compactor.bytes_rewritten_per_dp",
                traced_values > 0
                    ? static_cast<double>(compaction_bytes) / traced_values
                    : 0);
    const double encode_us_per_blob =
        encode_total.blobs > 0
            ? static_cast<double>(encode_total.ns) / 1e3 / encode_total.blobs
            : 0;
    const double flush_us_per_blob =
        layers.sum.flush_count > 0
            ? static_cast<double>(layers.sum.flush_sum_us) /
                  layers.sum.flush_count
            : 0;
    report->Set("core.value_blob.encode_ns_per_dp",
                encode_total.values > 0
                    ? static_cast<double>(encode_total.ns) /
                          encode_total.values
                    : 0);
    report->Set("core.store.put_us_per_blob",
                std::max(0.0, flush_us_per_blob - encode_us_per_blob));
    report->Info("writer: %.2f us per blob flushed (encode + put), encode "
                 "replay %.2f us per blob over %lld blobs",
                 flush_us_per_blob, encode_us_per_blob,
                 static_cast<long long>(encode_total.blobs));
  }

  CheckTotalsAndDurability(&in, report);
  return report->Finish(args, tracer);
}

}  // namespace histbench
