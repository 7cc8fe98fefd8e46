// Chaos suite: scripted, deterministically seeded network fault schedules
// against a live server over loopback TCP. Each test is one schedule from
// the fault-tolerance contract:
//
//   1. transient connect failures  -> client retries with backoff
//   2. mid-frame disconnect        -> stream poisons; reconnect recovers
//   3. server stall > rpc deadline -> timeout, retry on fresh connection
//   4. drain during active streams -> in-flight statements finish
//   5. seeded rate faults under writes -> zero acknowledged-write loss
//   6. corrupted frame             -> rejected as hostile, then retried
//
// The invariants: no test hangs (every blocking call has a deadline), no
// acknowledged write is lost or duplicated, and a recovered client sees
// exactly the single-threaded ground truth.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/server.h"
#include "sql/session.h"

namespace odh::net {
namespace {

constexpr int kPoints = 120;

/// Fresh historian + server per test: fault policies count operations over
/// their lifetime, so sharing a server across tests would make every
/// schedule depend on the tests that ran before it.
class ChaosTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    odh_ = std::make_unique<core::OdhSystem>();
    int type = odh_->DefineSchemaType("env", {"temperature"}).value();
    ODH_CHECK_OK(
        odh_->RegisterSource(1, type, kMicrosPerSecond, /*regular=*/true));
    for (int i = 0; i < kPoints; ++i) {
      ODH_CHECK_OK(odh_->Ingest({1, i * kMicrosPerSecond, {20.0 + 0.01 * i}}));
    }
    ODH_CHECK_OK(odh_->FlushAll());
    server_ = std::make_unique<HistorianServer>(odh_->engine(), options,
                                                odh_->metrics());
    auto port = server_->Start();
    ODH_CHECK_OK(port.status());
    port_ = *port;
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  /// A server-side fault policy must outlive the server: session handlers
  /// consult it until Stop() joins the workers in TearDown, long after a
  /// test-body local would have died. The fixture owns it (destroyed
  /// after server_, which is declared later).
  FaultPolicy* MakeServerFaults(uint64_t seed) {
    faults_ = std::make_unique<FaultPolicy>(seed);
    return faults_.get();
  }

  /// Ground truth through a local (non-network) session.
  std::vector<Row> Truth(const std::string& sql) {
    sql::Session local(odh_->engine());
    auto r = local.Execute(sql);
    ODH_CHECK_OK(r.status());
    return r->rows;
  }

  std::unique_ptr<core::OdhSystem> odh_;
  std::unique_ptr<FaultPolicy> faults_;
  std::unique_ptr<HistorianServer> server_;
  int port_ = 0;
};

// Schedule 1: the first two TCP connects fail transiently. The client must
// absorb them with backoff and connect on the third attempt — and the
// retry schedule must be replayable from the seed.
TEST_F(ChaosTest, TransientConnectFailuresAreRetriedWithBackoff) {
  StartServer();

  FaultPolicy faults(/*seed=*/1);
  faults.FailNthConnect(1);
  faults.FailNthConnect(2);

  ClientOptions opts;
  opts.fault_policy = &faults;
  opts.retry.initial_backoff_ms = 1;
  opts.retry.max_backoff_ms = 8;
  opts.retry.backoff_seed = 7;
  auto client = Client::Connect("127.0.0.1", port_, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->stats().connect_attempts, 3);

  auto r = (*client)->Query("SELECT COUNT(*) FROM env_v WHERE id = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0], Datum::Int64(kPoints));

  // A client that only gets one attempt sees the injected failure raw,
  // and it is classified retryable — not mistaken for a SQL error.
  FaultPolicy once(/*seed=*/1);
  once.FailNthConnect(1);
  ClientOptions one_shot;
  one_shot.fault_policy = &once;
  one_shot.retry.max_connect_attempts = 1;
  auto refused = Client::Connect("127.0.0.1", port_, one_shot);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(Client::IsRetryable(refused.status()))
      << refused.status().ToString();
}

// Schedule 2: the server hangs up mid-frame while streaming rows. The
// client-side cursor must poison (same error on every further Next — a
// partially consumed stream is never resumed or silently restarted), and a
// reconnect must then see the full, correct result.
TEST_F(ChaosTest, MidFrameDisconnectPoisonsStreamThenReconnectRecovers) {
  FaultPolicy* server_faults = MakeServerFaults(/*seed=*/2);
  // Server writes: 1 Welcome, 2 ResultHeader, 3 first batch, 4 second
  // batch — which is cut mid-frame (roughly half the bytes delivered).
  server_faults->DisconnectAtNthWrite(4);

  ServerOptions options;
  options.rows_per_batch = 10;
  options.fault_policy = server_faults;
  StartServer(options);

  const std::string sql = "SELECT ts, temperature FROM env_v WHERE id = 1";
  std::vector<Row> truth = Truth(sql);

  auto client = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stream = (*client)->QueryStream(sql);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  // The first batch arrives intact; somewhere after it the wire dies.
  Row row;
  int delivered = 0;
  Status poison;
  while (true) {
    auto more = (*stream)->Next(&row);
    if (!more.ok()) {
      poison = more.status();
      break;
    }
    ASSERT_TRUE(*more) << "stream ended cleanly despite the disconnect";
    ASSERT_LT(delivered, static_cast<int>(truth.size()));
    EXPECT_EQ(row, truth[delivered]);  // Rows before the fault are intact.
    ++delivered;
  }
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, static_cast<int>(truth.size()));
  EXPECT_TRUE(poison.IsIoError()) << poison.ToString();

  // Poison contract over the network path: every further Next repeats the
  // same error — never a retry, never fabricated rows.
  for (int i = 0; i < 3; ++i) {
    auto again = (*stream)->Next(&row);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().ToString(), poison.ToString());
  }
  (*stream).reset();

  // Recovery: a fresh connection re-runs the statement from scratch and
  // the streamed result matches the materialized ground truth exactly.
  auto fresh = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto replay = (*fresh)->Query(sql);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->rows, truth);
}

// Schedule 3: the server freezes longer than the client's RPC deadline.
// The client must time out (not hang), classify the lapse as retryable,
// and — because the workload is declared idempotent — succeed on a fresh
// connection.
TEST_F(ChaosTest, ServerStallBeyondDeadlineTimesOutThenRetrySucceeds) {
  FaultPolicy* server_faults = MakeServerFaults(/*seed=*/3);
  // Server writes: 1 Welcome, 2 ResultHeader of the first statement —
  // stalled well past the client's deadline.
  server_faults->StallNthWrite(2, 400);

  ServerOptions options;
  options.fault_policy = server_faults;
  StartServer(options);

  ClientOptions opts;
  opts.retry.rpc_deadline_ms = 100;
  // Read-only workload: retry after send.
  opts.retry.idempotency = IdempotencyClass::kIdempotent;
  opts.retry.initial_backoff_ms = 1;
  opts.retry.max_backoff_ms = 8;
  auto client = Client::Connect("127.0.0.1", port_, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto r = (*client)->Query("SELECT COUNT(*) FROM env_v WHERE id = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0], Datum::Int64(kPoints));

  const ClientStats& stats = (*client)->stats();
  EXPECT_GE(stats.deadline_timeouts, 1);
  EXPECT_GE(stats.statement_retries, 1);
  EXPECT_GE(stats.reconnects, 1);

  // The stalled session must not pin its slot: once the stall elapses the
  // server notices the dead peer and frees it.
  for (int i = 0; i < 200 && server_->sessions_open() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(server_->sessions_open(), 1);
}

// Schedule 4a: Drain() while a stream is mid-flight. The in-flight
// statement finishes (streamed == materialized), the session counts as
// gracefully drained, and new connections are refused.
TEST_F(ChaosTest, DrainLetsActiveStreamsFinish) {
  FaultPolicy* server_faults = MakeServerFaults(/*seed=*/4);
  // Hold the server demonstrably inside the statement: writes 1 Welcome,
  // 2 ResultHeader, 3 first batch, 4 second batch stalled 400ms — the
  // drain below starts inside that window.
  server_faults->StallNthWrite(4, 400);

  ServerOptions options;
  options.rows_per_batch = 10;
  options.fault_policy = server_faults;
  StartServer(options);

  const std::string sql = "SELECT ts, temperature FROM env_v WHERE id = 1";
  std::vector<Row> truth = Truth(sql);

  ClientOptions opts;
  opts.retry.rpc_deadline_ms = 5000;  // Must ride out the injected stall.
  auto client = Client::Connect("127.0.0.1", port_, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stream = (*client)->QueryStream(sql);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  // First row in hand proves the server is inside the statement.
  Row row;
  auto first = (*stream)->Next(&row);
  ASSERT_TRUE(first.ok() && *first);
  std::vector<Row> streamed = {row};

  std::thread drainer(
      [&] { ASSERT_TRUE(server_->Drain(/*timeout_ms=*/5000).ok()); });
  while (true) {
    auto more = (*stream)->Next(&row);
    ASSERT_TRUE(more.ok()) << "drain cut an in-flight stream: "
                           << more.status().ToString();
    if (!*more) break;
    streamed.push_back(row);
  }
  drainer.join();

  EXPECT_EQ(streamed, truth);
  EXPECT_EQ(server_->drained_sessions(), 1);
  EXPECT_EQ(server_->sessions_force_closed(), 0);

  // A draining server takes no new work.
  ClientOptions one_shot;
  one_shot.retry.max_connect_attempts = 1;
  auto late = Client::Connect("127.0.0.1", port_, one_shot);
  EXPECT_FALSE(late.ok());
}

// Schedule 4b: a session still streaming when the drain budget lapses is
// force-closed, not waited on forever.
TEST_F(ChaosTest, DrainForceClosesStragglersAfterBudget) {
  FaultPolicy* server_faults = MakeServerFaults(/*seed=*/5);
  // The first batch write stalls for 800ms — far past the drain budget.
  server_faults->StallNthWrite(3, 800);

  ServerOptions options;
  options.rows_per_batch = 10;
  options.fault_policy = server_faults;
  StartServer(options);

  ClientOptions opts;
  opts.retry.rpc_deadline_ms = 5000;
  opts.retry.max_statement_attempts = 1;
  auto client = Client::Connect("127.0.0.1", port_, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stream =
      (*client)->QueryStream("SELECT ts, temperature FROM env_v WHERE id = 1");
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  ASSERT_TRUE(server_->Drain(/*timeout_ms=*/100).ok());
  EXPECT_EQ(server_->sessions_force_closed(), 1);
  EXPECT_EQ(server_->drained_sessions(), 0);

  // The client's half of the cut stream errors and poisons.
  Row row;
  Status first_error;
  while (true) {
    auto more = (*stream)->Next(&row);
    if (!more.ok()) {
      first_error = more.status();
      break;
    }
    ASSERT_TRUE(*more) << "stream completed despite the force-close";
  }
  auto again = (*stream)->Next(&row);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().ToString(), first_error.ToString());

  // Drain surfaces its bookkeeping through the metrics registry.
  sql::Session local(odh_->engine());
  auto metric = local.Execute(
      "SELECT value FROM odh_metrics WHERE name = 'net.sessions_force_closed'");
  ASSERT_TRUE(metric.ok()) << metric.status().ToString();
  ASSERT_EQ(metric->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(metric->rows[0][0].double_value(), 1.0);
}

// Schedule 5: seeded rate faults on the client's connects, reads and
// writes while it issues unique-value INSERTs. Errored statements are
// treated as unacknowledged and NOT resent (a lost reply is ambiguous).
// Invariant: every acknowledged write is present exactly once — the
// client's own retries (provably-unstarted sends only) must never
// duplicate a row.
TEST_F(ChaosTest, NoAcknowledgedWriteIsLostOrDuplicatedUnderRateFaults) {
  StartServer();
  {
    sql::Session ddl(odh_->engine());
    ODH_CHECK_OK(ddl.Execute("CREATE TABLE chaos_w (k BIGINT)").status());
  }

  FaultPolicy faults(/*seed=*/0xC0FFEE);
  faults.set_connect_fault_rate(0.05);
  faults.set_read_fault_rate(0.05);
  faults.set_write_fault_rate(0.15);

  ClientOptions opts;
  opts.fault_policy = &faults;
  opts.retry.initial_backoff_ms = 1;
  opts.retry.max_backoff_ms = 4;
  opts.retry.backoff_seed = 11;
  auto client = Client::Connect("127.0.0.1", port_, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr int kWrites = 200;
  std::set<int64_t> acked;
  for (int64_t k = 0; k < kWrites; ++k) {
    auto r = (*client)->Query("INSERT INTO chaos_w VALUES (?)",
                              {Datum::Int64(k)});
    if (r.ok()) acked.insert(k);
    // On error: k is unacknowledged — deliberately not resent. The row may
    // or may not exist (the reply could have been the lost half), which is
    // exactly why the client refused to retry it automatically.
  }
  ASSERT_GT(faults.faults_injected(), 0u) << "schedule never fired";
  ASSERT_GT(acked.size(), 0u) << "every write failed; rates too hot";

  // Audit through a clean client: each acknowledged key exactly once.
  auto clean = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto rows = (*clean)->Query("SELECT k FROM chaos_w ORDER BY k");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::map<int64_t, int> present;
  for (const Row& row : rows->rows) ++present[row[0].int64_value()];
  for (int64_t k : acked) {
    EXPECT_EQ(present[k], 1) << "acked key " << k
                             << (present[k] == 0 ? " lost" : " duplicated");
  }
  for (const auto& [k, count] : present) {
    EXPECT_EQ(count, 1) << "key " << k << " inserted " << count << " times";
  }
}

// Schedule 6: one byte of a response frame is flipped in flight. The
// parser must reject the stream as hostile (never trust a corrupt frame),
// and an idempotent retry on a fresh connection succeeds.
TEST_F(ChaosTest, CorruptedFrameIsRejectedThenRetried) {
  StartServer();

  FaultPolicy faults(/*seed=*/6);
  // Client reads: 1 Welcome, 2 response to the first statement (corrupted).
  faults.CorruptNthRead(2);

  ClientOptions opts;
  opts.fault_policy = &faults;
  opts.retry.idempotency = IdempotencyClass::kIdempotent;
  // A flipped length prefix can leave the parser waiting for bytes that
  // will never come; the deadline converts that into a fast, retryable
  // failure instead of a hang.
  opts.retry.rpc_deadline_ms = 300;
  opts.retry.initial_backoff_ms = 1;
  opts.retry.max_backoff_ms = 8;
  auto client = Client::Connect("127.0.0.1", port_, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto r = (*client)->Query("SELECT COUNT(*) FROM env_v WHERE id = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0], Datum::Int64(kPoints));
  EXPECT_GE((*client)->stats().statement_retries, 1);
}

}  // namespace
}  // namespace odh::net
