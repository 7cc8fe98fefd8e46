// Memory governance end to end: ORDER BY over budget spills sorted runs
// to disk and stays byte-identical to the in-memory sort (NaN and NULL
// included), LIMIT bounds sort memory (top-N) and survives over-budget
// conversion, non-spillable paths fail fast with ResourceExhausted and
// no partial rows, buffered streams release rows and spill files eagerly
// on completion / abandonment / poison, OdhStore::Recover sweeps
// orphaned spill files after a crash, the memory columns surface through
// EXPLAIN PROFILE and odh_queries, and the prepared-statement cache
// promotes on re-execution (true LRU, not insertion order).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/memory.h"
#include "core/odh.h"
#include "sql/session.h"
#include "storage/fault_policy.h"
#include "storage/sim_disk.h"
#include "storage/spill_file.h"

namespace odh::sql {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

core::OdhOptions Governed(int64_t query_bytes, int64_t session_bytes = 0) {
  core::OdhOptions options;
  options.query_memory_budget = query_bytes;
  options.session_memory_budget = session_bytes;
  return options;
}

/// Two regular sensors, 500 points each: ~1000 rows whose sort working
/// set comfortably exceeds the budgets the governed tests configure.
void FillHistorian(core::OdhSystem* odh) {
  int type = odh->DefineSchemaType("env", {"temperature", "wind"}).value();
  for (SourceId id = 1; id <= 2; ++id) {
    ODH_CHECK_OK(odh->RegisterSource(id, type, kMicrosPerSecond,
                                     /*regular=*/true));
    for (int i = 0; i < 500; ++i) {
      ODH_CHECK_OK(odh->Ingest(
          {id, i * kMicrosPerSecond, {20.0 + id + 0.01 * i, 1.0 * id}}));
    }
  }
  ODH_CHECK_OK(odh->FlushAll());
}

/// A relational doubles table where NaN can survive to ORDER BY (the
/// historian scan turns NaN tags into NULL): id 0..n-1 in insertion
/// order; v cycles NULL / NaN / distinct-ish numbers with duplicates.
void LoadDoubles(Session* session, int n) {
  ODH_CHECK_OK(
      session->Execute("CREATE TABLE m (id BIGINT, v DOUBLE)").status());
  auto insert = session->Prepare("INSERT INTO m VALUES (?, ?)").value();
  for (int i = 0; i < n; ++i) {
    Datum v;
    if (i % 11 == 0) {
      v = Datum::Null();
    } else if (i % 7 == 0) {
      v = Datum::Double(kNaN);
    } else {
      v = Datum::Double(static_cast<double>((i * 37) % 101) + i * 1e-4);
    }
    ODH_CHECK_OK(
        session->ExecutePrepared(insert, {Datum::Int64(i), v}).status());
  }
}

/// What the memory governor charges for one row LoadDoubles stores (and
/// `SELECT id, v` returns). Budgets below are derived from it, so they
/// keep their meaning when the in-memory row format changes size.
int64_t DoublesRowBytes() {
  return common::ApproxRowBytes({Datum::Int64(0), Datum::Double(0)});
}

int CountSpillFiles(storage::SimDisk* disk) {
  int n = 0;
  for (const std::string& name : disk->ListFiles()) {
    if (storage::IsSpillFileName(name)) ++n;
  }
  return n;
}

int CountSpillFiles(core::OdhSystem* odh) {
  return CountSpillFiles(odh->database()->disk());
}

std::string Render(const Row& row) {
  std::string s;
  for (const Datum& d : row) s += d.ToString() + "|";
  return s;
}

std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(Render(row));
  return out;
}

/// Drains a stream to completion, CHECK-failing on any cursor error.
std::vector<Row> Drain(QueryStream* stream) {
  std::vector<Row> rows;
  Row row;
  while (true) {
    auto more = stream->Next(&row);
    ODH_CHECK_OK(more.status());
    if (!*more) break;
    rows.push_back(row);
  }
  return rows;
}

int64_t ProfileMetric(const QueryResult& r, const std::string& name) {
  for (const Row& row : r.rows) {
    if (row[0] == Datum::String(name)) return row[1].int64_value();
  }
  ADD_FAILURE() << "EXPLAIN PROFILE row missing: " << name;
  return -1;
}

TEST(MemoryGovernanceTest, OrderBySpillsAndMatchesInMemorySort) {
  core::OdhSystem plain;  // Unbounded: the whole sort fits in memory.
  FillHistorian(&plain);
  core::OdhSystem governed(Governed(/*query_bytes=*/128 * 1024));
  FillHistorian(&governed);

  // wind is constant per sensor: 500-deep key ties, so run boundaries
  // land inside tie groups and the merge must reproduce stable order.
  const std::string q =
      "SELECT id, ts, temperature, wind FROM env_v ORDER BY wind DESC, ts";

  Session plain_session(plain.engine());
  auto plain_stream = plain_session.ExecuteStreaming(q);
  ASSERT_TRUE(plain_stream.ok()) << plain_stream.status().ToString();
  const std::vector<std::string> expected = Render(Drain(plain_stream->get()));
  ASSERT_EQ(expected.size(), 1000u);
  EXPECT_EQ((*plain_stream)->profile().spill_runs, 0);

  Session session(governed.engine());
  auto stream = session.ExecuteStreaming(q);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const std::vector<std::string> got = Render(Drain(stream->get()));
  EXPECT_EQ(got, expected);

  const QueryProfile& profile = (*stream)->profile();
  EXPECT_GT(profile.spill_runs, 0);
  EXPECT_GT(profile.spill_bytes, 0);
  EXPECT_GT(profile.mem_peak_bytes, 0);
  EXPECT_LE(profile.mem_peak_bytes, 128 * 1024);  // The budget held.
  EXPECT_EQ(CountSpillFiles(&governed), 0);  // Deleted on completion.

  // Materialized execution of the same statement: same rows, same order,
  // and it spilled too (the session/materialization budget is separate
  // from the query working-set budget).
  auto materialized = session.Execute(q);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(Render(materialized->rows), expected);
  EXPECT_GT(materialized->profile.spill_runs, 0);

  // EXPLAIN PROFILE surfaces the memory rows.
  auto explained = session.Execute("EXPLAIN PROFILE " + q);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_GT(ProfileMetric(*explained, "mem_peak_bytes"), 0);
  EXPECT_GT(ProfileMetric(*explained, "spill_runs"), 0);
  EXPECT_GT(ProfileMetric(*explained, "spill_bytes"), 0);

  // ... and so does the odh_queries system table.
  auto queries = session.Execute(
      "SELECT statement, mem_peak_bytes, spill_runs FROM odh_queries");
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  bool found = false;
  for (const Row& row : queries->rows) {
    if (row[0].string_value().find("ORDER BY wind") != std::string::npos &&
        row[2].int64_value() > 0) {
      EXPECT_GT(row[1].int64_value(), 0);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no spilled statement visible in odh_queries";
}

TEST(MemoryGovernanceTest, SpilledSortPreservesNaNAndNullSemantics) {
  core::OdhSystem plain;
  Session plain_session(plain.engine());
  LoadDoubles(&plain_session, 800);
  core::OdhSystem governed(Governed(/*query_bytes=*/64 * 1024));
  Session session(governed.engine());
  LoadDoubles(&session, 800);

  const std::string q = "SELECT id, v FROM m ORDER BY v";
  auto plain_result = plain_session.Execute(q);
  ASSERT_TRUE(plain_result.ok()) << plain_result.status().ToString();
  EXPECT_EQ(plain_result->profile.spill_runs, 0);

  auto stream = session.ExecuteStreaming(q);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const std::vector<Row> rows = Drain(stream->get());
  EXPECT_GT((*stream)->profile().spill_runs, 0);

  // Byte-identical to the in-memory sort, NaN and NULL included.
  EXPECT_EQ(Render(rows), Render(plain_result->rows));

  // Structural semantics: NULLs first, non-NaN numbers non-decreasing,
  // NaNs last — and every NaN survived the spill codec as a real NaN.
  ASSERT_EQ(rows.size(), 800u);
  size_t i = 0;
  size_t nulls = 0, nans = 0;
  while (i < rows.size() && rows[i][1].is_null()) ++i, ++nulls;
  double prev = -std::numeric_limits<double>::infinity();
  while (i < rows.size() && !rows[i][1].is_null() &&
         !std::isnan(rows[i][1].double_value())) {
    EXPECT_GE(rows[i][1].double_value(), prev);
    prev = rows[i][1].double_value();
    ++i;
  }
  while (i < rows.size()) {
    EXPECT_TRUE(std::isnan(rows[i][1].double_value()));
    ++i, ++nans;
  }
  size_t expected_nulls = 0, expected_nans = 0;
  for (int k = 0; k < 800; ++k) {
    if (k % 11 == 0) {
      ++expected_nulls;
    } else if (k % 7 == 0) {
      ++expected_nans;
    }
  }
  EXPECT_EQ(nulls, expected_nulls);
  EXPECT_EQ(nans, expected_nans);
}

TEST(MemoryGovernanceTest, TopNLimitBoundsMemoryAndMatchesFullSort) {
  core::OdhSystem odh;
  FillHistorian(&odh);
  Session session(odh.engine());

  const std::string keys = " ORDER BY temperature DESC, ts";
  auto full = session.Execute(
      "SELECT id, ts, temperature FROM env_v" + keys);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->rows.size(), 1000u);

  auto limited = session.Execute(
      "SELECT id, ts, temperature FROM env_v" + keys + " LIMIT 25");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited->rows.size(), 25u);
  const std::vector<std::string> full_rendered = Render(full->rows);
  EXPECT_EQ(Render(limited->rows),
            std::vector<std::string>(full_rendered.begin(),
                                     full_rendered.begin() + 25));

  // The bounded heap holds 25 rows instead of 1000: even with no budget
  // configured the tracked peak must collapse.
  EXPECT_GT(limited->profile.mem_peak_bytes, 0);
  EXPECT_LT(limited->profile.mem_peak_bytes * 4,
            full->profile.mem_peak_bytes);
  EXPECT_EQ(limited->profile.spill_runs, 0);
}

TEST(MemoryGovernanceTest, TopNOverBudgetConvertsToSpillAndStaysExact) {
  core::OdhSystem plain;
  Session plain_session(plain.engine());
  LoadDoubles(&plain_session, 800);
  // The budget holds 300 bare rows, but each kept entry also carries its
  // sort key, so LIMIT 300's kept set exceeds it and the heap converts to
  // the external path mid-stream; the answer may not change.
  core::OdhSystem governed(Governed(/*query_bytes=*/300 * DoublesRowBytes()));
  Session session(governed.engine());
  LoadDoubles(&session, 800);

  const std::string q = "SELECT id, v FROM m ORDER BY v LIMIT 300";
  auto expected = plain_session.Execute(q);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->rows.size(), 300u);
  EXPECT_EQ(expected->profile.spill_runs, 0);

  // Sanity: the unbounded top-N equals the full-sort prefix.
  auto full = plain_session.Execute("SELECT id, v FROM m ORDER BY v");
  ASSERT_TRUE(full.ok());
  const std::vector<std::string> full_rendered = Render(full->rows);
  EXPECT_EQ(Render(expected->rows),
            std::vector<std::string>(full_rendered.begin(),
                                     full_rendered.begin() + 300));

  auto got = session.Execute(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Render(got->rows), Render(expected->rows));
  EXPECT_GT(got->profile.spill_runs, 0);
  EXPECT_EQ(CountSpillFiles(&governed), 0);
}

/// Eight regular sensors, 10000 points each (80k rows): a LIMIT 5000 kept
/// set is several times a 256 KiB budget. Prices repeat across sensors,
/// so the leading key ties and the tie-breakers decide.
void FillDeepHistorian(core::OdhSystem* odh) {
  int type = odh->DefineSchemaType("td", {"price"}).value();
  for (SourceId id = 1; id <= 8; ++id) {
    ODH_CHECK_OK(odh->RegisterSource(id, type, kMicrosPerSecond,
                                     /*regular=*/true));
    for (int i = 0; i < 10000; ++i) {
      ODH_CHECK_OK(odh->Ingest({id, i * kMicrosPerSecond,
                                {static_cast<double>((i * 7919 + id) % 997)}}));
    }
  }
  ODH_CHECK_OK(odh->FlushAll());
}

TEST(MemoryGovernanceTest, TopNSpillsUnderTightBudgetAndMatchesUnbounded) {
  core::OdhSystem plain;
  FillDeepHistorian(&plain);
  core::OdhSystem governed(Governed(/*query_bytes=*/256 * 1024));
  FillDeepHistorian(&governed);

  const std::string q =
      "SELECT id, ts, price FROM td_v ORDER BY price DESC, ts LIMIT 5000";
  Session plain_session(plain.engine());
  auto expected = plain_session.Execute(q);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->rows.size(), 5000u);
  EXPECT_EQ(expected->profile.spill_runs, 0);
  const std::vector<std::string> want = Render(expected->rows);

  Session session(governed.engine());
  auto stream = session.ExecuteStreaming(q);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(Render(Drain(stream->get())), want);
  EXPECT_GT((*stream)->profile().spill_runs, 0);
  EXPECT_LE((*stream)->profile().mem_peak_bytes, 256 * 1024);

  auto materialized = session.Execute(q);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(Render(materialized->rows), want);
  EXPECT_GT(materialized->profile.spill_runs, 0);
  EXPECT_EQ(session.memory()->used(), 0);
  EXPECT_EQ(CountSpillFiles(&governed), 0);
}

TEST(MemoryGovernanceTest, NonSpillableAggregationFailsFastLeakFree) {
  core::OdhSystem governed(Governed(/*query_bytes=*/16 * 1024));
  Session session(governed.engine());
  LoadDoubles(&session, 800);

  // 800 groups of aggregation state cannot spill: the query must be
  // refused outright — no cursor, no partial rows, nothing leaked.
  const std::string q = "SELECT id, COUNT(*) FROM m GROUP BY id";
  auto stream = session.ExecuteStreaming(q);
  ASSERT_FALSE(stream.ok());
  EXPECT_TRUE(stream.status().IsResourceExhausted())
      << stream.status().ToString();
  EXPECT_NE(stream.status().ToString().find("query"), std::string::npos);
  EXPECT_EQ(session.memory()->used(), 0);
  EXPECT_EQ(CountSpillFiles(&governed), 0);

  auto materialized = session.Execute(q);
  ASSERT_FALSE(materialized.ok());
  EXPECT_TRUE(materialized.status().IsResourceExhausted());
  EXPECT_EQ(session.memory()->used(), 0);

  // The session is not poisoned: a query within budget still runs.
  auto small = session.Execute("SELECT COUNT(*) FROM m");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ(small->rows[0][0], Datum::Int64(800));
}

TEST(MemoryGovernanceTest, SpillMergeReadFaultPoisonsCursor) {
  core::OdhSystem governed(Governed(/*query_bytes=*/64 * 1024));
  Session session(governed.engine());
  LoadDoubles(&session, 800);

  auto stream = session.ExecuteStreaming("SELECT id, v FROM m ORDER BY v");
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_GT(CountSpillFiles(&governed), 0);  // Runs live during the merge.

  // After Init the scan is fully drained; the only disk reads left are
  // the merge's page refills. Fail the next read: the cursor must poison
  // mid-stream without emitting a wrong or duplicate row.
  storage::FaultPolicy policy;
  policy.FailNthRead(1);
  governed.database()->disk()->set_fault_policy(&policy);
  Row row;
  int emitted = 0;
  Status error;
  while (true) {
    auto more = (*stream)->Next(&row);
    if (!more.ok()) {
      error = more.status();
      break;
    }
    ASSERT_TRUE(*more) << "stream completed despite the injected fault";
    ++emitted;
  }
  governed.database()->disk()->set_fault_policy(nullptr);

  EXPECT_FALSE(error.ok());
  EXPECT_LT(emitted, 800);
  // Poison sticks, and everything was released eagerly at poison time.
  EXPECT_FALSE((*stream)->Next(&row).ok());
  EXPECT_EQ((*stream)->memory()->used(), 0);
  EXPECT_EQ(session.memory()->used(), 0);
  EXPECT_EQ(CountSpillFiles(&governed), 0);
}

TEST(MemoryGovernanceTest, StreamsReleaseRowsAndSpillFilesEagerly) {
  core::OdhSystem governed(Governed(/*query_bytes=*/64 * 1024));
  Session session(governed.engine());
  LoadDoubles(&session, 800);

  // Abandonment mid-stream: rows and spill files go with the stream.
  {
    auto stream = session.ExecuteStreaming("SELECT id, v FROM m ORDER BY v");
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    EXPECT_GT((*stream)->memory()->used(), 0);
    EXPECT_GT(CountSpillFiles(&governed), 0);
    Row row;
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(*(*stream)->Next(&row));
  }
  EXPECT_EQ(session.memory()->used(), 0);
  EXPECT_EQ(CountSpillFiles(&governed), 0);

  // Normal completion releases before destruction, not at it.
  auto stream = session.ExecuteStreaming("SELECT id, v FROM m ORDER BY v");
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const size_t n = Drain(stream->get()).size();
  EXPECT_EQ(n, 800u);
  EXPECT_EQ((*stream)->memory()->used(), 0);
  EXPECT_EQ(session.memory()->used(), 0);
  EXPECT_EQ(CountSpillFiles(&governed), 0);
}

TEST(MemoryGovernanceTest, RecoverSweepsOrphanedSpillFiles) {
  core::OdhSystem victim(Governed(/*query_bytes=*/128 * 1024));
  FillHistorian(&victim);
  Session session(victim.engine());

  // Power off mid-spill: the run file's durable pages survive, and the
  // dead disk silently swallows the query's cleanup DeleteFile.
  storage::FaultPolicy policy;
  policy.CrashAtWrite(3);
  victim.database()->disk()->set_fault_policy(&policy);
  auto r = session.Execute(
      "SELECT id, ts, temperature FROM env_v ORDER BY temperature");
  EXPECT_FALSE(r.ok());
  victim.database()->disk()->set_fault_policy(nullptr);
  EXPECT_GE(CountSpillFiles(&victim), 1);

  std::unique_ptr<storage::SimDisk> rebooted =
      victim.database()->disk()->CloneDurable();
  ASSERT_GE(CountSpillFiles(rebooted.get()), 1);

  // A rebooted historian has no queries: every surviving spill file is
  // garbage and Recover sweeps it before replay.
  core::OdhSystem recovered;
  FillHistorian(&recovered);
  auto report = recovered.Recover(rebooted.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->spill_files_swept, 1u);
  EXPECT_EQ(CountSpillFiles(rebooted.get()), 0);
}

TEST(MemoryGovernanceTest, SessionBudgetBoundsMaterializedResults) {
  // The session may hold three quarters of the 800-row result.
  core::OdhSystem governed(
      Governed(/*query_bytes=*/0,
               /*session_bytes=*/800 * DoublesRowBytes() * 3 / 4));
  Session session(governed.engine());
  LoadDoubles(&session, 800);

  // Materialization holds the whole result in the session: over budget.
  const std::string q = "SELECT id, v FROM m ORDER BY v";
  auto materialized = session.Execute(q);
  ASSERT_FALSE(materialized.ok());
  EXPECT_TRUE(materialized.status().IsResourceExhausted())
      << materialized.status().ToString();
  EXPECT_NE(materialized.status().ToString().find("session"),
            std::string::npos);
  EXPECT_EQ(session.memory()->used(), 0);

  // Streaming the same statement succeeds: the sort working set spills
  // under the session ceiling and rows never pile up.
  auto stream = session.ExecuteStreaming(q);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(Drain(stream->get()).size(), 800u);
  EXPECT_GT((*stream)->profile().spill_runs, 0);
  EXPECT_EQ(session.memory()->used(), 0);
}

TEST(MemoryGovernanceTest, PreparedCachePromotesOnReexecution) {
  core::OdhSystem odh;
  Session session(odh.engine());
  ODH_CHECK_OK(session.Execute("CREATE TABLE t (id BIGINT)").status());
  ODH_CHECK_OK(session.Execute("INSERT INTO t VALUES (0)").status());

  auto filler = [](int k) {
    return "SELECT id FROM t WHERE id = " + std::to_string(k);
  };

  // Fill the 64-entry cache with the pinned statement as its oldest.
  const std::string pinned = "SELECT id FROM t WHERE id = 0";
  auto stmt = session.Prepare(pinned);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  for (int k = 1; k <= 63; ++k) {
    ASSERT_TRUE(session.Prepare(filler(k)).ok());
  }

  // Re-execution must promote: after one more insertion evicts the LRU
  // entry, the pinned statement is still cached.
  ASSERT_TRUE(session.ExecutePrepared(*stmt).ok());
  ASSERT_TRUE(session.Prepare(filler(64)).ok());
  const int64_t hits_before = session.stats().prepare_cache_hits;
  ASSERT_TRUE(session.Prepare(pinned).ok());
  EXPECT_EQ(session.stats().prepare_cache_hits, hits_before + 1)
      << "re-executed statement was evicted: promotion is broken";

  // Control: a statement that is NOT re-used ages out after 64 fresh
  // insertions and preparing it again is a miss.
  const std::string control = "SELECT id FROM t WHERE id = 9999";
  ASSERT_TRUE(session.Prepare(control).ok());
  for (int k = 100; k < 164; ++k) {
    ASSERT_TRUE(session.Prepare(filler(k)).ok());
  }
  const int64_t hits_mid = session.stats().prepare_cache_hits;
  ASSERT_TRUE(session.Prepare(control).ok());
  EXPECT_EQ(session.stats().prepare_cache_hits, hits_mid);
}

}  // namespace
}  // namespace odh::sql
