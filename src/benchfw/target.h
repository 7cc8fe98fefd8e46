#ifndef ODH_BENCHFW_TARGET_H_
#define ODH_BENCHFW_TARGET_H_

#include <memory>
#include <string>

#include "benchfw/metrics.h"
#include "benchfw/stream.h"
#include "core/odh.h"

namespace odh::benchfw {

/// A system under test for the WS1 write workloads: ODH through its writer
/// API, or a relational engine through row inserts (the JDBC substitute).
class IngestTarget {
 public:
  virtual ~IngestTarget() = default;
  virtual const std::string& name() const = 0;
  /// Creates tables / schema types and registers the stream's sources.
  virtual Status Setup(const StreamInfo& info) = 0;
  virtual Status Write(const core::OperationalRecord& record) = 0;
  /// Flushes anything buffered (end of workload).
  virtual Status Finish() = 0;

  virtual uint64_t StorageBytes() const = 0;
  virtual uint64_t BytesWritten() const = 0;

  /// Retry / checksum / WAL counters accumulated over the run. The default
  /// reports nothing; targets backed by the instrumented storage stack
  /// override it.
  virtual DurabilityCounters Durability() const { return {}; }
};

/// ODH target: OdhSystem ingestion through the writer API.
class OdhTarget : public IngestTarget {
 public:
  explicit OdhTarget(core::OdhOptions options = {});

  const std::string& name() const override { return name_; }
  Status Setup(const StreamInfo& info) override;
  Status Write(const core::OperationalRecord& record) override {
    return odh_->Ingest(record);
  }
  Status Finish() override {
    ODH_RETURN_IF_ERROR(odh_->FlushAll());
    // Write back dirty buffer-pool pages so I/O accounting covers the run.
    return odh_->database()->pool()->FlushAll();
  }
  uint64_t StorageBytes() const override { return odh_->storage_bytes(); }
  uint64_t BytesWritten() const override {
    return odh_->io_stats().bytes_written;
  }
  DurabilityCounters Durability() const override;

  core::OdhSystem* odh() { return odh_.get(); }
  int schema_type() const { return schema_type_; }

 private:
  std::string name_ = "ODH";
  std::unique_ptr<core::OdhSystem> odh_;
  int schema_type_ = -1;
};

/// Relational target: one heap table (ts, id, tags...) with B-tree indexes
/// on ts and id (the paper's TD/LD setup), inserted row-at-a-time with a
/// commit every `batch_size` rows (executeBatch) or every row (autocommit).
class RelationalTarget : public IngestTarget {
 public:
  RelationalTarget(relational::EngineProfile profile, int batch_size = 1000);

  const std::string& name() const override { return name_; }
  Status Setup(const StreamInfo& info) override;
  Status Write(const core::OperationalRecord& record) override;
  Status Finish() override;
  uint64_t StorageBytes() const override { return db_->TotalBytesStored(); }
  uint64_t BytesWritten() const override {
    return db_->disk()->stats().bytes_written;
  }
  DurabilityCounters Durability() const override;

  relational::Database* database() { return db_.get(); }
  relational::Table* table() { return table_; }

 private:
  std::string name_;
  std::unique_ptr<relational::Database> db_;
  relational::Table* table_ = nullptr;
  int batch_size_;
  int pending_ = 0;
  Row row_buffer_;
};

}  // namespace odh::benchfw

#endif  // ODH_BENCHFW_TARGET_H_
