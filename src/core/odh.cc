#include "core/odh.h"

#include <algorithm>

#include "common/logging.h"

namespace odh::core {

OdhSystem::OdhSystem(OdhOptions options) : config_(options) {
  metrics_ = std::make_unique<common::MetricsRegistry>();
  relational::EngineProfile profile = relational::EngineProfile::Odh();
  profile.pool_pages = options.pool_pages;
  db_ = std::make_unique<relational::Database>(profile);
  engine_ = std::make_unique<sql::SqlEngine>(db_.get());
  // Memory governance: budgets flow into the tracker hierarchy and
  // over-budget ORDER BY sorts spill to the store's disk.
  sql::MemoryBudgets budgets;
  budgets.process_bytes = options.server_memory_budget;
  budgets.session_bytes = options.session_memory_budget;
  budgets.query_bytes = options.query_memory_budget;
  engine_->ConfigureMemory(budgets, db_->disk());
  store_ = std::make_unique<OdhStore>(db_.get(), &config_);
  writer_ = std::make_unique<OdhWriter>(store_.get(), &config_);
  router_ = std::make_unique<DataRouter>(&config_, engine_.get());
  ODH_CHECK_OK(router_->CreateMetadataTables());
  cost_model_ = std::make_unique<OdhCostModel>(&config_, store_.get());
  const int pool_threads =
      std::max(options.read_parallelism, options.query_parallelism);
  if (pool_threads > 1) {
    read_pool_ = std::make_unique<common::ThreadPool>(pool_threads);
  }
  if (options.blob_cache_bytes > 0) {
    blob_cache_ = std::make_unique<BlobCache>(options.blob_cache_bytes);
  }
  reader_ = std::make_unique<OdhReader>(&config_, store_.get(),
                                        writer_.get(), router_.get(),
                                        read_pool_.get(), blob_cache_.get());
  reorganizer_ = std::make_unique<Reorganizer>(&config_, store_.get());
  compactor_ = std::make_unique<SegmentCompactor>(&config_, store_.get(),
                                                  read_pool_.get());

  // ALTER TABLE <name>_v RETENTION <interval>: map the view name back to
  // its schema type, then set + apply the window. Runs under the SQL
  // engine's write mutex (session layer), same as the other DDL.
  engine_->set_retention_handler(
      [this](const std::string& table, int64_t retention_micros) -> Status {
        std::string name = table;
        constexpr char kSuffix[] = "_v";
        if (name.size() > 2 && name.compare(name.size() - 2, 2, kSuffix) == 0) {
          name.resize(name.size() - 2);
        }
        ODH_ASSIGN_OR_RETURN(int type_id, config_.FindSchemaType(name));
        return SetRetention(type_id, retention_micros).status();
      });

  // Observability wiring: push-style instruments into the hot components
  // (flush/sync granularity), pull-gauges over everything that already
  // counts, and the three system tables into the SQL catalog.
  if (options.enable_metrics) {
    writer_->SetMetrics(metrics_.get());
    store_->SetMetrics(metrics_.get());
    RegisterGauges();
    metrics_table_ = std::make_unique<MetricsSystemTable>(metrics_.get());
    queries_table_ = std::make_unique<QueriesSystemTable>(engine_.get());
    storage_table_ =
        std::make_unique<StorageSystemTable>(&config_, store_.get());
    ODH_CHECK_OK(engine_->catalog()->RegisterProvider(metrics_table_.get()));
    ODH_CHECK_OK(engine_->catalog()->RegisterProvider(queries_table_.get()));
    ODH_CHECK_OK(engine_->catalog()->RegisterProvider(storage_table_.get()));
  }
}

void OdhSystem::RegisterGauges() {
  common::MetricsRegistry* m = metrics_.get();
  storage::BufferPool* pool = db_->pool();
  m->RegisterGauge("odh.bufferpool.hits", [pool] {
    return static_cast<double>(pool->hit_count());
  });
  m->RegisterGauge("odh.bufferpool.misses", [pool] {
    return static_cast<double>(pool->miss_count());
  });
  m->RegisterGauge("odh.bufferpool.evictions", [pool] {
    return static_cast<double>(pool->eviction_count());
  });
  m->RegisterGauge("odh.bufferpool.io_retries", [pool] {
    return static_cast<double>(pool->io_retry_count());
  });
  m->RegisterGauge("odh.bufferpool.checksum_failures", [pool] {
    return static_cast<double>(pool->checksum_failure_count());
  });
  storage::SimDisk* disk = db_->disk();
  m->RegisterGauge("odh.disk.page_reads", [disk] {
    return static_cast<double>(disk->stats().page_reads);
  });
  m->RegisterGauge("odh.disk.page_writes", [disk] {
    return static_cast<double>(disk->stats().page_writes);
  });
  m->RegisterGauge("odh.disk.transient_faults", [disk] {
    return static_cast<double>(disk->stats().transient_faults);
  });
  OdhWriter* writer = writer_.get();
  m->RegisterGauge("odh.writer.points_ingested", [writer] {
    return static_cast<double>(writer->stats().points_ingested);
  });
  m->RegisterGauge("odh.writer.blobs_flushed", [writer] {
    const WriterStats s = writer->stats();
    return static_cast<double>(s.rts_blobs + s.irts_blobs + s.mg_blobs);
  });
  m->RegisterGauge("odh.writer.syncs", [writer] {
    return static_cast<double>(writer->stats().syncs);
  });
  m->RegisterGauge("odh.writer.sync_retries", [writer] {
    return static_cast<double>(writer->stats().sync_retries);
  });
  OdhReader* reader = reader_.get();
  m->RegisterGauge("odh.reader.blobs_decoded", [reader] {
    return static_cast<double>(reader->stats().blobs_decoded);
  });
  m->RegisterGauge("odh.reader.blobs_pruned", [reader] {
    return static_cast<double>(reader->stats().blobs_pruned);
  });
  m->RegisterGauge("odh.reader.blobs_skipped_by_summary", [reader] {
    return static_cast<double>(reader->stats().blobs_skipped_by_summary);
  });
  m->RegisterGauge("odh.reader.blob_bytes_read", [reader] {
    return static_cast<double>(reader->stats().blob_bytes_read);
  });
  m->RegisterGauge("odh.reader.records_emitted", [reader] {
    return static_cast<double>(reader->stats().records_emitted);
  });
  DataRouter* router = router_.get();
  m->RegisterGauge("odh.router.lookups", [router] {
    return static_cast<double>(router->lookups());
  });
  const OdhStore* store = store_.get();
  m->RegisterGauge("odh.store.blobs_examined", [store] {
    return static_cast<double>(store->blobs_examined());
  });
  m->RegisterGauge("odh.store.blobs_discarded", [store] {
    return static_cast<double>(store->blobs_discarded());
  });
  m->RegisterGauge("odh.store.segments_pruned", [store] {
    return static_cast<double>(store->segments_pruned());
  });
  m->RegisterGauge("odh.store.segments_compacted", [store] {
    return static_cast<double>(store->segments_compacted());
  });
  m->RegisterGauge("odh.store.segments_dropped", [store] {
    return static_cast<double>(store->segments_dropped());
  });
  // What the in-memory RTS/IRTS index holds: one entry per live series
  // blob, so it tracks odh_storage's rts + irts blob_count.
  m->RegisterGauge("odh.store.series_directory_entries", [store] {
    return static_cast<double>(store->series_directory_entries());
  });
  m->RegisterGauge("odh.reader.segments_pruned", [reader] {
    return static_cast<double>(reader->stats().segments_pruned);
  });
  m->RegisterGauge("odh.parallel_scan.tasks", [reader] {
    return static_cast<double>(reader->stats().parallel_tasks);
  });
  m->RegisterGauge("odh.parallel_scan.merge_stalls", [reader] {
    return static_cast<double>(reader->stats().merge_stalls);
  });
  m->RegisterGauge("odh.parallel_scan.segments", [reader] {
    return static_cast<double>(reader->stats().segments_scanned_parallel);
  });
  // Null-safe: the gauges read 0 when the cache is disabled, so dashboards
  // keep a stable metric set across configurations.
  BlobCache* cache = blob_cache_.get();
  m->RegisterGauge("odh.blob_cache.hits", [cache] {
    return cache == nullptr ? 0.0 : static_cast<double>(cache->stats().hits);
  });
  m->RegisterGauge("odh.blob_cache.misses", [cache] {
    return cache == nullptr ? 0.0
                            : static_cast<double>(cache->stats().misses);
  });
  m->RegisterGauge("odh.blob_cache.evictions", [cache] {
    return cache == nullptr ? 0.0
                            : static_cast<double>(cache->stats().evictions);
  });
  m->RegisterGauge("odh.blob_cache.bytes", [cache] {
    return cache == nullptr ? 0.0
                            : static_cast<double>(cache->stats().bytes);
  });
  // Memory governance: live reserved bytes, the process high-water mark,
  // and the configured ceiling (0 = unbounded) off the tracker root.
  common::MemoryTracker* mem = engine_->memory_root();
  m->RegisterGauge("odh.mem.used_bytes", [mem] {
    return static_cast<double>(mem->used());
  });
  m->RegisterGauge("odh.mem.peak_bytes", [mem] {
    return static_cast<double>(mem->peak());
  });
  m->RegisterGauge("odh.mem.limit_bytes", [mem] {
    return static_cast<double>(mem->limit());
  });
  m->RegisterGauge("odh.wal.records_synced", [store] {
    const Wal* wal = store->wal();
    return wal == nullptr ? 0.0
                          : static_cast<double>(wal->records_synced());
  });
  m->RegisterGauge("odh.wal.synced_bytes", [store] {
    const Wal* wal = store->wal();
    return wal == nullptr ? 0.0 : static_cast<double>(wal->synced_bytes());
  });
  m->RegisterGauge("odh.wal.io_retries", [store] {
    const Wal* wal = store->wal();
    return wal == nullptr ? 0.0 : static_cast<double>(wal->io_retries());
  });
  // The log's footprint under the head rule: bytes still on disk and the
  // LSN recovery would start at (odh.wal.bytes_released counts the rest).
  m->RegisterGauge("odh.wal.live_bytes", [store] {
    const Wal* wal = store->wal();
    return wal == nullptr ? 0.0 : static_cast<double>(wal->live_bytes());
  });
  m->RegisterGauge("odh.wal.head_lsn", [store] {
    const Wal* wal = store->wal();
    return wal == nullptr ? 0.0 : static_cast<double>(wal->head_lsn());
  });
}

Result<int> OdhSystem::DefineSchemaType(const std::string& name,
                                        std::vector<std::string> tag_names,
                                        CompressionSpec compression) {
  SchemaType type;
  type.name = name;
  type.tag_names = std::move(tag_names);
  type.compression = compression;
  ODH_ASSIGN_OR_RETURN(int type_id, config_.DefineSchemaType(std::move(type)));
  ODH_RETURN_IF_ERROR(store_->CreateContainers(type_id));
  auto virtual_table = std::make_unique<OdhVirtualTable>(
      name + "_v", type_id, &config_, reader_.get(), cost_model_.get());
  ODH_RETURN_IF_ERROR(
      engine_->catalog()->RegisterProvider(virtual_table.get()));
  virtual_tables_.push_back(std::move(virtual_table));
  return type_id;
}

Status OdhSystem::RegisterSource(SourceId id, int schema_type,
                                 Timestamp sample_interval, bool regular) {
  ODH_RETURN_IF_ERROR(
      config_.RegisterSource(id, schema_type, sample_interval, regular));
  ODH_ASSIGN_OR_RETURN(const DataSourceInfo* info, config_.GetSource(id));
  return router_->AddSourceMetadata(*info);
}

Status OdhSystem::Ingest(const OperationalRecord& record) {
  return writer_->Ingest(record);
}

Status OdhSystem::FlushAll() {
  ODH_RETURN_IF_ERROR(writer_->FlushAll());
  return router_->SyncMetadata();
}

Result<std::unique_ptr<RecordCursor>> OdhSystem::HistoricalQuery(
    int schema_type, SourceId id, Timestamp lo, Timestamp hi,
    const std::vector<int>& wanted_tags) {
  return reader_->OpenHistorical(schema_type, id, lo, hi, wanted_tags);
}

Result<std::unique_ptr<RecordCursor>> OdhSystem::SliceQuery(
    int schema_type, Timestamp lo, Timestamp hi,
    const std::vector<int>& wanted_tags) {
  return reader_->OpenSlice(schema_type, lo, hi, wanted_tags);
}

Result<CompactionReport> OdhSystem::CompactSegments(int schema_type) {
  // Flush so sealed segments hold everything ingested so far; buffered
  // points routed to a sealed segment would otherwise race the rewrite
  // (the version check would abort the swap, which is correct but wasteful).
  ODH_RETURN_IF_ERROR(writer_->Flush(schema_type));
  return compactor_->CompactSealed(schema_type);
}

Result<int64_t> OdhSystem::SetRetention(int schema_type,
                                        Timestamp retention_micros) {
  ODH_RETURN_IF_ERROR(store_->SetRetention(schema_type, retention_micros));
  return store_->ApplyRetention(schema_type);
}

Result<ReorganizeReport> OdhSystem::Reorganize(int schema_type,
                                               Timestamp up_to) {
  // Reorganization works on persisted MG blobs; flush first so buffered
  // records are included.
  ODH_RETURN_IF_ERROR(writer_->Flush(schema_type));
  ODH_ASSIGN_OR_RETURN(ReorganizeReport report,
                       reorganizer_->Reorganize(schema_type, up_to));
  // Rebuild the MG container so the space of consumed blobs is reclaimed.
  if (report.mg_blobs_consumed > 0) {
    ODH_RETURN_IF_ERROR(store_->CompactMg(schema_type));
  }
  return report;
}

}  // namespace odh::core
