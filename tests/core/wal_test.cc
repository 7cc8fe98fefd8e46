#include "core/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "storage/fault_policy.h"
#include "storage/sim_disk.h"

namespace odh::core {
namespace {

using storage::FaultPolicy;
using storage::FileId;
using storage::SimDisk;

constexpr char kWalName[] = "wal";

std::string Payload(int i, size_t size) {
  std::string p = "record-" + std::to_string(i) + ":";
  p.resize(size, static_cast<char>('a' + i % 26));
  return p;
}

/// Reads the raw bytes of a file (all pages concatenated).
std::string RawBytes(SimDisk* disk, const std::string& name) {
  FileId f = disk->OpenFile(name).value();
  uint32_t pages = disk->PageCount(f).value();
  std::string out(pages * disk->page_size(), '\0');
  for (uint32_t p = 0; p < pages; ++p) {
    ODH_CHECK_OK(disk->ReadPage(f, p, &out[p * disk->page_size()]));
  }
  return out;
}

/// Creates a file on a fresh disk holding exactly `bytes` (zero-padded to
/// page granularity) — the harness for hand-crafted torn tails.
void WriteRaw(SimDisk* disk, const std::string& name,
              const std::string& bytes) {
  FileId f = disk->CreateFile(name).value();
  const size_t ps = disk->page_size();
  size_t pages = (bytes.size() + ps - 1) / ps;
  std::string page(ps, '\0');
  for (size_t p = 0; p < pages; ++p) {
    ODH_CHECK_OK(disk->AllocatePage(f).status());
    page.assign(ps, '\0');
    size_t n = std::min(ps, bytes.size() - p * ps);
    page.replace(0, n, bytes, p * ps, n);
    ODH_CHECK_OK(disk->WritePage(f, static_cast<uint32_t>(p), page.data()));
  }
}

TEST(WalTest, MissingFileReadsAsEmptyLog) {
  SimDisk disk(512);
  auto result = Wal::ReadLog(&disk, "nope");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(result->valid_bytes, 0u);
  EXPECT_EQ(result->torn_bytes_dropped, 0u);
}

TEST(WalTest, AppendSyncReadRoundTrip) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  std::vector<std::string> payloads;
  for (int i = 0; i < 20; ++i) payloads.push_back(Payload(i, 40 + i));
  for (const auto& p : payloads) wal->Append(p);
  EXPECT_EQ(wal->records_appended(), 20u);
  EXPECT_EQ(wal->records_synced(), 0u);
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->records_synced(), 20u);
  EXPECT_EQ(wal->pending_bytes(), 0u);

  auto log = Wal::ReadLog(&disk, kWalName).value();
  EXPECT_EQ(log.records, payloads);
  EXPECT_EQ(log.torn_bytes_dropped, 0u);
  EXPECT_EQ(log.valid_bytes, wal->synced_bytes());
}

TEST(WalTest, RecordsStraddlePages) {
  SimDisk disk(256);
  auto wal = Wal::Create(&disk, kWalName).value();
  // Each record spans multiple 256-byte pages.
  std::vector<std::string> payloads = {Payload(0, 700), Payload(1, 900),
                                       Payload(2, 300)};
  for (const auto& p : payloads) wal->Append(p);
  ASSERT_TRUE(wal->Sync().ok());
  auto log = Wal::ReadLog(&disk, kWalName).value();
  EXPECT_EQ(log.records, payloads);
}

TEST(WalTest, RepeatedSyncsExtendTheLog) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  std::vector<std::string> payloads;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) {
      payloads.push_back(Payload(round * 3 + i, 100));
      wal->Append(payloads.back());
    }
    ASSERT_TRUE(wal->Sync().ok());
    auto log = Wal::ReadLog(&disk, kWalName).value();
    EXPECT_EQ(log.records, payloads);
  }
  ASSERT_TRUE(wal->Sync().ok());  // Nothing pending: a no-op.
}

TEST(WalTest, TornTailIsDropped) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  std::vector<std::string> payloads;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back(Payload(i, 120));
    wal->Append(payloads.back());
  }
  ASSERT_TRUE(wal->Sync().ok());
  std::string bytes = RawBytes(&disk, kWalName);

  // Cut 30 bytes into the 6th record's frame and splatter garbage after it.
  size_t boundary = 0;
  for (int i = 0; i < 5; ++i) boundary += 8 + payloads[i].size();
  std::string torn = bytes.substr(0, boundary + 30);
  torn.append("GARBAGEGARBAGEGARBAGE");

  SimDisk crafted(512);
  WriteRaw(&crafted, kWalName, torn);
  auto log = Wal::ReadLog(&crafted, kWalName).value();
  ASSERT_EQ(log.records.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(log.records[i], payloads[i]);
  EXPECT_EQ(log.valid_bytes, boundary);
  EXPECT_GT(log.torn_bytes_dropped, 0u);
}

TEST(WalTest, TruncationAtEveryRecordBoundary) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  std::vector<std::string> payloads;
  std::vector<size_t> boundaries = {0};
  for (int i = 0; i < 16; ++i) {
    payloads.push_back(Payload(i, 64 + 17 * i));
    wal->Append(payloads.back());
    boundaries.push_back(boundaries.back() + 8 + payloads.back().size());
  }
  ASSERT_TRUE(wal->Sync().ok());
  std::string bytes = RawBytes(&disk, kWalName);

  for (size_t k = 0; k <= payloads.size(); ++k) {
    // A power cut that tore everything after the k-th record: keep a clean
    // prefix, then half of the next frame as garbage-like remnants.
    std::string torn = bytes.substr(0, boundaries[k]);
    if (k < payloads.size()) {
      torn += bytes.substr(boundaries[k], (8 + payloads[k].size()) / 2);
    }
    SimDisk crafted(512);
    WriteRaw(&crafted, kWalName, torn);
    auto log = Wal::ReadLog(&crafted, kWalName).value();
    ASSERT_EQ(log.records.size(), k) << "boundary " << k;
    for (size_t i = 0; i < k; ++i) EXPECT_EQ(log.records[i], payloads[i]);
    EXPECT_EQ(log.valid_bytes, boundaries[k]);
  }
}

TEST(WalTest, CrashMidSyncKeepsDurablePrefix) {
  SimDisk disk(256);
  FaultPolicy policy;
  auto wal = Wal::Create(&disk, kWalName).value();
  std::vector<std::string> payloads;
  for (int i = 0; i < 12; ++i) {
    payloads.push_back(Payload(i, 200));  // ~10 pages of log.
    wal->Append(payloads.back());
  }
  policy.CrashAtWrite(4);  // Power dies on the 4th page write of the sync.
  disk.set_fault_policy(&policy);
  EXPECT_FALSE(wal->Sync().ok());
  EXPECT_TRUE(disk.crashed());

  auto rebooted = disk.CloneDurable();
  auto log = Wal::ReadLog(rebooted.get(), kWalName).value();
  // Exactly a prefix survived — no reordering, no phantom records.
  ASSERT_LT(log.records.size(), payloads.size());
  for (size_t i = 0; i < log.records.size(); ++i) {
    EXPECT_EQ(log.records[i], payloads[i]);
  }
  EXPECT_GT(log.records.size(), 0u);  // Three full pages did land.
}

TEST(WalTest, SyncRetriesTransientFaults) {
  SimDisk disk(512);
  FaultPolicy policy;
  policy.FailNthWrite(1);
  policy.FailNthAllocate(1);
  disk.set_fault_policy(&policy);
  auto wal = Wal::Create(&disk, kWalName).value();
  wal->Append(Payload(0, 100));
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->io_retries(), 2u);
  disk.set_fault_policy(nullptr);
  auto log = Wal::ReadLog(&disk, kWalName).value();
  ASSERT_EQ(log.records.size(), 1u);
}

TEST(WalTest, FailedSyncKeepsPendingForRetry) {
  SimDisk disk(512);
  FaultPolicy policy;
  policy.FailWritesPermanentlyAt(1);
  disk.set_fault_policy(&policy);
  auto wal = Wal::Create(&disk, kWalName).value();
  wal->Append(Payload(0, 100));
  EXPECT_FALSE(wal->Sync().ok());
  EXPECT_GT(wal->pending_bytes(), 0u);
  // Device replaced; the retry drains the buffer.
  disk.set_fault_policy(nullptr);
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->pending_bytes(), 0u);
  auto log = Wal::ReadLog(&disk, kWalName).value();
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0], Payload(0, 100));
}

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  WalRecord rec;
  rec.kind = WalRecord::Kind::kRts;
  rec.schema_type = 3;
  rec.id_or_group = -77;
  rec.begin = 1'000'000;
  rec.end = 2'000'000;
  rec.interval = 1000;
  rec.n = 1001;
  rec.blob = std::string("blob\0data", 9);
  rec.zone_map = "zm";
  std::string encoded;
  rec.EncodeTo(&encoded);

  WalRecord out;
  ASSERT_TRUE(WalRecord::Decode(encoded, &out));
  EXPECT_EQ(out.kind, rec.kind);
  EXPECT_EQ(out.schema_type, rec.schema_type);
  EXPECT_EQ(out.id_or_group, rec.id_or_group);
  EXPECT_EQ(out.begin, rec.begin);
  EXPECT_EQ(out.end, rec.end);
  EXPECT_EQ(out.interval, rec.interval);
  EXPECT_EQ(out.n, rec.n);
  EXPECT_EQ(out.blob, rec.blob);
  EXPECT_EQ(out.zone_map, rec.zone_map);
}

TEST(WalRecordTest, EncodePayloadMatchesEncodeTo) {
  WalRecord rec;
  rec.kind = WalRecord::Kind::kMgDelete;
  rec.schema_type = 1;
  rec.id_or_group = 42;
  rec.begin = 5;
  rec.end = 9;
  rec.n = 4;
  std::string via_struct;
  rec.EncodeTo(&via_struct);
  std::string via_fields;
  EncodeWalPayload(WalRecord::Kind::kMgDelete, 1, 42, 5, 9, 0, 4, Slice(),
                   Slice(), &via_fields);
  EXPECT_EQ(via_struct, via_fields);
}

TEST(WalRecordTest, DecodeRejectsCorruption) {
  WalRecord rec;
  rec.blob = "payload";
  std::string encoded;
  rec.EncodeTo(&encoded);
  WalRecord out;
  EXPECT_FALSE(WalRecord::Decode(Slice(), &out));
  EXPECT_FALSE(
      WalRecord::Decode(Slice(encoded.data(), encoded.size() - 1), &out));
  std::string bad_kind = encoded;
  bad_kind[0] = 9;
  EXPECT_FALSE(WalRecord::Decode(bad_kind, &out));
  std::string trailing = encoded + "x";
  EXPECT_FALSE(WalRecord::Decode(trailing, &out));
}


// --- ReadDurable: the replication cursor ------------------------------------

TEST(WalCursorTest, ReadsDurablePrefixInChunks) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  std::vector<std::string> payloads;
  for (int i = 0; i < 30; ++i) payloads.push_back(Payload(i, 50 + i));
  for (const auto& p : payloads) wal->Append(p);
  ASSERT_TRUE(wal->Sync().ok());

  // Walk the whole log with a small byte budget: every chunk's next_lsn
  // feeds the next call, and concatenating the chunks yields the log.
  std::vector<std::string> streamed;
  uint64_t lsn = 0;
  while (true) {
    auto chunk = wal->ReadDurable(lsn, /*max_bytes=*/200);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    EXPECT_EQ(chunk->durable_lsn, wal->synced_bytes());
    if (chunk->records.empty()) {
      EXPECT_EQ(chunk->next_lsn, lsn);  // Caught up: position is stable.
      break;
    }
    EXPECT_GT(chunk->next_lsn, lsn);
    for (auto& r : chunk->records) streamed.push_back(std::move(r));
    lsn = chunk->next_lsn;
  }
  EXPECT_EQ(streamed, payloads);
  EXPECT_EQ(lsn, wal->synced_bytes());
}

TEST(WalCursorTest, UnsyncedAppendsAreInvisible) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  wal->Append(Payload(0, 64));
  ASSERT_TRUE(wal->Sync().ok());
  const uint64_t durable = wal->synced_bytes();
  wal->Append(Payload(1, 64));  // Appended but NOT synced.

  auto chunk = wal->ReadDurable(0, 1 << 20);
  ASSERT_TRUE(chunk.ok());
  ASSERT_EQ(chunk->records.size(), 1u);
  EXPECT_EQ(chunk->records[0], Payload(0, 64));
  EXPECT_EQ(chunk->next_lsn, durable);
  EXPECT_EQ(chunk->durable_lsn, durable);
}

TEST(WalCursorTest, ResumesAcrossSyncsAndPageBoundaries) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  // Records bigger than a page force frames to straddle page boundaries.
  std::vector<std::string> payloads;
  uint64_t lsn = 0;
  std::vector<std::string> streamed;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back(Payload(i, 700 + 13 * i));
    wal->Append(payloads.back());
    ASSERT_TRUE(wal->Sync().ok());
    auto chunk = wal->ReadDurable(lsn, 1 << 20);
    ASSERT_TRUE(chunk.ok());
    for (auto& r : chunk->records) streamed.push_back(std::move(r));
    lsn = chunk->next_lsn;
  }
  EXPECT_EQ(streamed, payloads);
}

TEST(WalCursorTest, ReadPastDurableIsEmptyNotAnError) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  wal->Append(Payload(0, 64));
  ASSERT_TRUE(wal->Sync().ok());
  auto chunk = wal->ReadDurable(wal->synced_bytes(), 1 << 20);
  ASSERT_TRUE(chunk.ok());
  EXPECT_TRUE(chunk->records.empty());
  EXPECT_EQ(chunk->next_lsn, wal->synced_bytes());
}

TEST(WalCursorTest, CorruptionBelowWatermarkIsDataLoss) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  const std::string first = Payload(0, 60);
  wal->Append(first);
  wal->Append(Payload(1, 60));
  ASSERT_TRUE(wal->Sync().ok());

  // Rot a CRC byte of the second frame on disk, below the durable
  // watermark: the cursor re-reads pages from disk, and corruption under
  // the watermark is bit rot, never a torn tail.
  FileId f = disk.OpenFile(kWalName).value();
  std::string page(disk.page_size(), '\0');
  ODH_CHECK_OK(disk.ReadPage(f, 0, page.data()));
  page[(8 + first.size()) + 4] ^= 0x40;
  ODH_CHECK_OK(disk.WritePage(f, 0, page.data()));

  auto chunk = wal->ReadDurable(0, 1 << 20);
  EXPECT_TRUE(chunk.status().IsDataLoss()) << chunk.status().ToString();
  // The clean first frame is still readable on its own.
  auto good = wal->ReadDurable(0, /*max_bytes=*/1);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good->records.size(), 1u);
  EXPECT_EQ(good->records[0], first);
}


// --- Rolled layout: files, release and the head ------------------------------

constexpr uint64_t kRolledFileBytes = 2 * 512;  // Two 512-byte pages.

/// A rolled log of `count` records of 150-390 bytes (several per file,
/// some straddling files), synced; `lsns` receives each record's LSN.
std::unique_ptr<Wal> RolledLog(SimDisk* disk, int count,
                               std::vector<std::string>* payloads,
                               std::vector<uint64_t>* lsns) {
  auto wal = Wal::Create(disk, kWalName, kRolledFileBytes).value();
  for (int i = 0; i < count; ++i) {
    payloads->push_back(Payload(i, 150 + 60 * (i % 5)));
    lsns->push_back(wal->Append(payloads->back()));
  }
  ODH_CHECK_OK(wal->Sync());
  return wal;
}

TEST(WalTest, RolledLogSpansFilesAndReadsBack) {
  SimDisk disk(512);
  std::vector<std::string> payloads;
  std::vector<uint64_t> lsns;
  auto wal = RolledLog(&disk, 30, &payloads, &lsns);
  EXPECT_EQ(lsns[0], 0u);
  EXPECT_EQ(wal->appended_lsn(), wal->synced_bytes());
  // File n holds LSNs [n * 1024, (n + 1) * 1024).
  const uint64_t files = (wal->synced_bytes() + kRolledFileBytes - 1) /
                         kRolledFileBytes;
  for (uint64_t n = 0; n < files; ++n) {
    EXPECT_TRUE(disk.OpenFile(std::string(kWalName) + "." +
                              std::to_string(n)).ok()) << n;
  }
  EXPECT_FALSE(disk.OpenFile(kWalName).ok());  // No flat file.

  auto log = Wal::ReadLog(&disk, kWalName, kRolledFileBytes).value();
  EXPECT_EQ(log.records, payloads);
  EXPECT_EQ(log.head_lsn, 0u);
  EXPECT_EQ(log.valid_bytes, wal->synced_bytes());
  auto chunk = wal->ReadDurable(lsns[7], 1 << 20).value();
  EXPECT_EQ(chunk.records,
            std::vector<std::string>(payloads.begin() + 7, payloads.end()));
}

TEST(WalTest, ReleaseFreesWholeFilesBelowTheHead) {
  SimDisk disk(512);
  std::vector<std::string> payloads;
  std::vector<uint64_t> lsns;
  auto wal = RolledLog(&disk, 30, &payloads, &lsns);
  const uint64_t stored = disk.TotalBytesStored();

  // Release at record 17: the head becomes the first record starting in
  // the file holding it, and only the files below that one go.
  const uint64_t file = lsns[17] / kRolledFileBytes;
  size_t first = 0;
  while (lsns[first] < file * kRolledFileBytes) ++first;
  ASSERT_TRUE(wal->ReleaseBelow(lsns[17]).ok());
  EXPECT_EQ(wal->head_lsn(), lsns[first]);
  EXPECT_EQ(wal->bytes_released(), file * kRolledFileBytes);
  EXPECT_EQ(wal->live_bytes(), wal->synced_bytes() - file * kRolledFileBytes);
  EXPECT_EQ(disk.TotalBytesStored(), stored - file * kRolledFileBytes);
  for (uint64_t n = 0; n < file; ++n) {
    EXPECT_FALSE(disk.OpenFile(std::string(kWalName) + "." +
                               std::to_string(n)).ok()) << n;
  }

  // Recovery and cursors start at the head; below it is gone.
  auto log = Wal::ReadLog(&disk, kWalName, kRolledFileBytes).value();
  EXPECT_EQ(log.head_lsn, lsns[first]);
  EXPECT_EQ(log.records, std::vector<std::string>(payloads.begin() + first,
                                                   payloads.end()));
  EXPECT_EQ(log.valid_bytes, wal->synced_bytes() - lsns[first]);
  auto below = wal->ReadDurable(lsns[first] - 1, 1 << 20);
  EXPECT_EQ(below.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(below.status().ToString().find("re-bootstrap"),
            std::string::npos);
  auto at = wal->ReadDurable(lsns[first], 1 << 20).value();
  EXPECT_EQ(at.records.size(), payloads.size() - first);

  // A release that would not move the head is a no-op; appends after a
  // release keep their absolute LSNs and roll into new files.
  ASSERT_TRUE(wal->ReleaseBelow(lsns[first]).ok());
  EXPECT_EQ(wal->head_lsn(), lsns[first]);
  const uint64_t next = wal->Append(Payload(99, 900));
  EXPECT_EQ(next, lsns.back() + 8 + payloads.back().size());
  ASSERT_TRUE(wal->Sync().ok());
  log = Wal::ReadLog(&disk, kWalName, kRolledFileBytes).value();
  EXPECT_EQ(log.records.back(), Payload(99, 900));
}

TEST(WalTest, ReleaseCutShortReadsTheSameLog) {
  // A crash between the steps of a release leaves the new marker beside
  // the old one, or the files below the head not yet deleted; the newest
  // marker decides where the log starts either way.
  SimDisk disk(512);
  std::vector<std::string> payloads;
  std::vector<uint64_t> lsns;
  auto wal = RolledLog(&disk, 30, &payloads, &lsns);
  ASSERT_TRUE(wal->ReleaseBelow(lsns[8]).ok());
  const uint64_t old_head = wal->head_lsn();
  auto full = disk.CloneDurable();
  ASSERT_TRUE(wal->ReleaseBelow(lsns[25]).ok());
  const uint64_t new_head = wal->head_lsn();
  ASSERT_GT(new_head, old_head);
  const auto want = Wal::ReadLog(&disk, kWalName, kRolledFileBytes).value();

  // The new marker landed; nothing else did.
  ODH_CHECK_OK(full->CreateFile(std::string(kWalName) + ".head." +
                                std::to_string(new_head))
                   .status());
  auto log = Wal::ReadLog(full.get(), kWalName, kRolledFileBytes).value();
  EXPECT_EQ(log.head_lsn, new_head);
  EXPECT_EQ(log.records, want.records);
  EXPECT_EQ(want.records.front(),
            payloads[std::find(lsns.begin(), lsns.end(), new_head) -
                     lsns.begin()]);
}

TEST(WalTest, FlatLogIgnoresRelease) {
  SimDisk disk(512);
  auto wal = Wal::Create(&disk, kWalName).value();
  std::vector<uint64_t> lsns;
  for (int i = 0; i < 20; ++i) lsns.push_back(wal->Append(Payload(i, 300)));
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(wal->ReleaseBelow(lsns[15]).ok());
  EXPECT_EQ(wal->head_lsn(), 0u);
  EXPECT_EQ(wal->bytes_released(), 0u);
  EXPECT_EQ(Wal::ReadLog(&disk, kWalName).value().records.size(), 20u);
}

}  // namespace
}  // namespace odh::core
