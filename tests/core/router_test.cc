// The data router under concurrency: every historical route reads the
// registered source from the config, so sessions on their own threads
// route in parallel while a writer ingests and flushes (FlushAll also
// commits the odh$sources mirror). CI re-runs this suite under TSAN.

#include "core/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

constexpr int kSessions = 4;
constexpr int kQueriesPerSession = 200;
constexpr int kHistory = 500;  // Seconds of flushed history per source.

double Value(SourceId id, int second) { return 1000.0 * id + second; }

TEST(RouterConcurrencyTest, SessionsRouteWhileAWriterFlushes) {
  OdhOptions options;
  options.batch_size = 50;
  OdhSystem odh(options);
  const int type = odh.DefineSchemaType("env", {"v"}).value();
  for (SourceId id = 1; id <= kSessions; ++id) {
    ODH_CHECK_OK(odh.RegisterSource(id, type, kMicrosPerSecond, true));
    for (int i = 0; i < kHistory; ++i) {
      ODH_CHECK_OK(odh.Ingest({id, i * kMicrosPerSecond, {Value(id, i)}}));
    }
  }
  ODH_CHECK_OK(odh.FlushAll());
  const int64_t lookups_before = odh.router()->lookups();

  // The writer appends past the queried window to the very sources the
  // sessions read, flushing as it goes, until every session is done (or a
  // cap that only a very slow build reaches).
  std::atomic<int> sessions_left{kSessions};
  std::thread writer([&] {
    for (int i = kHistory; sessions_left.load() > 0 && i < 100 * kHistory;
         ++i) {
      for (SourceId id = 1; id <= kSessions; ++id) {
        ODH_CHECK_OK(odh.Ingest({id, i * kMicrosPerSecond, {Value(id, i)}}));
      }
      if (i % 25 == 0) ODH_CHECK_OK(odh.FlushAll());
    }
  });

  // ts < 500 s: the flushed history only, whatever the writer adds.
  const std::string window = " AND ts < '1970-01-01 00:08:20'";
  double expected_sum[kSessions + 1] = {};
  for (SourceId id = 1; id <= kSessions; ++id) {
    for (int i = 0; i < kHistory; ++i) expected_sum[id] += Value(id, i);
  }
  std::vector<int> wrong(kSessions + 1, 0);
  std::vector<std::thread> sessions;
  for (SourceId id = 1; id <= kSessions; ++id) {
    sessions.emplace_back([&, id] {
      sql::Session session(odh.engine());
      auto count = session.Prepare(
          "SELECT COUNT(*), SUM(v) FROM env_v WHERE id = ?" + window);
      auto latest = session.Prepare("SELECT ts, v FROM env_v WHERE id = ?" +
                                    window + " ORDER BY ts DESC LIMIT 1");
      auto scan = session.Prepare("SELECT v FROM env_v WHERE id = ?" +
                                  window + " AND v >= ?");
      ODH_CHECK_OK(count.status());
      ODH_CHECK_OK(latest.status());
      ODH_CHECK_OK(scan.status());
      const Datum key = Datum::Int64(id);
      for (int q = 0; q < kQueriesPerSession; ++q) {
        bool ok = false;
        if (q % 3 == 0) {
          auto r = session.ExecutePrepared(*count, {key});
          ok = r.ok() && r->rows.size() == 1 &&
               r->rows[0][0] == Datum::Int64(kHistory) &&
               r->rows[0][1] == Datum::Double(expected_sum[id]);
        } else if (q % 3 == 1) {
          const Timestamp newest = (kHistory - 1) * kMicrosPerSecond;
          auto r = session.ExecutePrepared(*latest, {key});
          ok = r.ok() && r->rows.size() == 1 &&
               r->rows[0][0] == Datum::Time(newest) &&
               r->rows[0][1] == Datum::Double(Value(id, kHistory - 1));
        } else {
          const int from = q % kHistory;
          auto r = session.ExecutePrepared(
              *scan, {key, Datum::Double(Value(id, from))});
          ok = r.ok() && r->rows.size() == static_cast<size_t>(kHistory - from);
        }
        if (!ok) ++wrong[id];
      }
      sessions_left.fetch_sub(1);
    });
  }
  for (std::thread& t : sessions) t.join();
  writer.join();

  for (SourceId id = 1; id <= kSessions; ++id) {
    EXPECT_EQ(wrong[id], 0) << "source " << id;
  }
  // One route per query; the writer's flushes route nothing.
  EXPECT_EQ(odh.router()->lookups() - lookups_before,
            kSessions * kQueriesPerSession);
}

}  // namespace
}  // namespace odh::core
