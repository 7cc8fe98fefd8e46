// Historian server end to end over loopback TCP: concurrent sessions
// issuing prepared statements against a shared historian must all see the
// single-threaded ground truth; a server at its session limit must reject
// the next connection crisply (admission control) and expose the count
// through odh_metrics; statement errors must not kill the session. The
// stress test here is the binary CI also runs under TSAN.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "net/client.h"
#include "sql/session.h"

namespace odh::net {
namespace {

constexpr int kSources = 8;
constexpr int kPoints = 400;
constexpr SourceId kOtherTypeSource = 100;

/// One historian + server shared by the whole suite: ingest once, then
/// hammer it over TCP. Ground truths are computed up front through a
/// local session.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    odh_ = new core::OdhSystem();
    int type = odh_->DefineSchemaType("env", {"temperature", "wind"}).value();
    for (SourceId id = 1; id <= kSources; ++id) {
      ODH_CHECK_OK(odh_->RegisterSource(id, type, kMicrosPerSecond,
                                        /*regular=*/true));
      for (int i = 0; i < kPoints; ++i) {
        ODH_CHECK_OK(odh_->Ingest(
            {id, i * kMicrosPerSecond, {20.0 + id + 0.01 * i, 1.0 * id}}));
      }
    }
    // A source of another schema type, for the routing test below.
    int other = odh_->DefineSchemaType("other", {"v"}).value();
    ODH_CHECK_OK(odh_->RegisterSource(kOtherTypeSource, other,
                                      kMicrosPerSecond, /*regular=*/true));
    for (int i = 0; i < kPoints; ++i) {
      ODH_CHECK_OK(odh_->Ingest({kOtherTypeSource, i * kMicrosPerSecond,
                                 {1.0 * i}}));
    }
    ODH_CHECK_OK(odh_->FlushAll());

    ServerOptions options;
    options.max_sessions = 80;  // Above the 64-session stress below.
    server_ = new HistorianServer(odh_->engine(), options, odh_->metrics());
    auto port = server_->Start();
    ODH_CHECK_OK(port.status());
    port_ = *port;
  }

  static void TearDownTestSuite() {
    server_->Stop();
    delete server_;
    delete odh_;
    server_ = nullptr;
    odh_ = nullptr;
  }

  static std::unique_ptr<Client> MustConnect() {
    auto client = Client::Connect("127.0.0.1", port_);
    ODH_CHECK_OK(client.status());
    return std::move(*client);
  }

  static core::OdhSystem* odh_;
  static HistorianServer* server_;
  static int port_;
};

core::OdhSystem* ServerTest::odh_ = nullptr;
HistorianServer* ServerTest::server_ = nullptr;
int ServerTest::port_ = 0;

TEST_F(ServerTest, QueryMatchesLocalSession) {
  sql::Session local(odh_->engine());
  auto truth = local.Execute(
      "SELECT ts, temperature FROM env_v WHERE id = 3 ORDER BY ts");
  ASSERT_TRUE(truth.ok());

  auto client = MustConnect();
  auto remote = client->Query(
      "SELECT ts, temperature FROM env_v WHERE id = 3 ORDER BY ts");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->columns, truth->columns);
  EXPECT_EQ(remote->rows, truth->rows);
  EXPECT_EQ(remote->done.rows_returned,
            static_cast<int64_t>(truth->rows.size()));
  EXPECT_FALSE(remote->done.path.empty());
}

TEST_F(ServerTest, StatementErrorLeavesSessionUsable) {
  auto client = MustConnect();
  auto bad = client->Query("SELECT nope FROM not_a_table");
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.status().IsIoError())
      << "a SQL error must arrive as an Error frame, not kill the socket: "
      << bad.status().ToString();
  // Same connection, next statement works.
  auto good = client->Query("SELECT COUNT(*) FROM env_v WHERE id = 1");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->rows[0][0], Datum::Int64(kPoints));
}

TEST_F(ServerTest, UnknownStatementIdIsAnError) {
  auto client = MustConnect();
  ClientStatement bogus;
  bogus.id = 424242;
  auto r = client->Execute(bogus, {});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
}

TEST_F(ServerTest, StreamedAndMaterializedAgreeOverTheWire) {
  auto client = MustConnect();
  auto whole = client->Query("SELECT ts, wind FROM env_v WHERE id = 5");
  ASSERT_TRUE(whole.ok());
  auto cursor = client->QueryStream("SELECT ts, wind FROM env_v WHERE id = 5");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<Row> streamed;
  Row row;
  while (true) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    streamed.push_back(row);
  }
  EXPECT_EQ(streamed, whole->rows);
}

TEST_F(ServerTest, SixtyFourConcurrentSessionsWithPreparedStatements) {
  constexpr int kClients = 64;
  constexpr int kRounds = 8;

  // Ground truth per source, computed locally once.
  sql::Session local(odh_->engine());
  std::vector<std::string> truth(kSources + 1);
  for (int id = 1; id <= kSources; ++id) {
    auto r = local.Execute(
        "SELECT COUNT(*), SUM(temperature) FROM env_v WHERE id = ?",
        {Datum::Int64(id)});
    ASSERT_TRUE(r.ok());
    truth[id] =
        r->rows[0][0].ToString() + "|" + r->rows[0][1].ToString();
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([t, &truth, &failures] {
      auto client = Client::Connect("127.0.0.1", port_);
      if (!client.ok()) {
        ++failures;
        return;
      }
      auto stmt = (*client)->Prepare(
          "SELECT COUNT(*), SUM(temperature) FROM env_v WHERE id = ?");
      if (!stmt.ok() || stmt->param_count != 1) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        int id = 1 + (t + round) % kSources;
        auto r = (*client)->Execute(*stmt, {Datum::Int64(id)});
        if (!r.ok() || r->rows.size() != 1) {
          ++failures;
          return;
        }
        std::string got =
            r->rows[0][0].ToString() + "|" + r->rows[0][1].ToString();
        if (got != truth[id]) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Server-side teardown is asynchronous: the handler still has to notice
  // EOF and release its slot after the client's socket closes.
  for (int wait = 0; wait < 500 && server_->sessions_open() != 0; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->sessions_open(), 0) << "sessions leaked after close";
}

TEST_F(ServerTest, RequestTimeIsRecordedBeforeTheReplyArrives) {
  // net.request_micros is observed before the last frame of a reply is
  // sent: once Execute returns, the histogram already holds exactly one
  // more sample, so client time minus server time never counts a whole
  // request as wire time.
  common::Histogram* request_us =
      odh_->metrics()->GetHistogram("net.request_micros");
  ASSERT_NE(request_us, nullptr);
  auto client = MustConnect();
  auto stmt = client->Prepare(
      "SELECT ts, temperature FROM env_v WHERE id = ? ORDER BY ts DESC "
      "LIMIT 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  int late = 0;
  for (int i = 0; i < 300; ++i) {
    const int64_t before = request_us->count();
    auto r = client->Execute(*stmt, {Datum::Int64(1 + i % kSources)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    const int64_t grown = request_us->count() - before;
    EXPECT_LE(grown, 1) << "execute " << i;
    if (grown != 1) ++late;
  }
  EXPECT_EQ(late, 0) << "requests whose sample landed after the reply";
}

// A prepared execute naming another schema type's source answers empty, as
// for an unregistered id, and so does one whose conjuncts on one column
// contradict each other.
TEST_F(ServerTest, PreparedQueriesThatMatchNothingAnswerEmpty) {
  auto client = MustConnect();
  auto latest = client->Prepare(
      "SELECT ts, temperature FROM env_v WHERE id = ? ORDER BY ts DESC "
      "LIMIT 1");
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  auto count = client->Prepare(
      "SELECT COUNT(*) FROM env_v WHERE id = ? AND id = ?");
  ASSERT_TRUE(count.ok()) << count.status().ToString();

  auto other = client->Execute(*latest, {Datum::Int64(kOtherTypeSource)});
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_TRUE(other->rows.empty());
  auto own = client->Execute(*latest, {Datum::Int64(1)});
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  EXPECT_EQ(own->rows.size(), 1u);

  auto contradiction =
      client->Execute(*count, {Datum::Int64(1), Datum::Int64(2)});
  ASSERT_TRUE(contradiction.ok()) << contradiction.status().ToString();
  EXPECT_EQ(contradiction->rows[0][0], Datum::Int64(0));
  auto both = client->Execute(*count, {Datum::Int64(1), Datum::Int64(1)});
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(both->rows[0][0], Datum::Int64(kPoints));
  auto foreign = client->Execute(
      *count, {Datum::Int64(kOtherTypeSource), Datum::Int64(kOtherTypeSource)});
  ASSERT_TRUE(foreign.ok()) << foreign.status().ToString();
  EXPECT_EQ(foreign->rows[0][0], Datum::Int64(0));
}

TEST_F(ServerTest, AdmissionControlRejectsBeyondMaxSessions) {
  // A second, tiny server: two session slots.
  ServerOptions options;
  options.max_sessions = 2;
  HistorianServer small(odh_->engine(), options);
  auto port = small.Start();
  ASSERT_TRUE(port.ok());

  // Single-attempt clients, so each Connect maps to exactly one
  // admission decision.
  ClientOptions one_shot;
  one_shot.retry.max_connect_attempts = 1;
  auto c1 = Client::Connect("127.0.0.1", *port, one_shot);
  auto c2 = Client::Connect("127.0.0.1", *port, one_shot);
  ASSERT_TRUE(c1.ok() && c2.ok());
  // Both slots busy: the third connection is refused at the handshake.
  auto c3 = Client::Connect("127.0.0.1", *port, one_shot);
  ASSERT_FALSE(c3.ok());
  EXPECT_TRUE(c3.status().IsResourceExhausted()) << c3.status().ToString();
  EXPECT_EQ(small.sessions_rejected(), 1);

  // Freeing a slot re-admits.
  (*c1)->Close();
  auto c4 = Result<std::unique_ptr<Client>>(Status::Unavailable("retry"));
  for (int attempt = 0; attempt < 100 && !c4.ok(); ++attempt) {
    c4 = Client::Connect("127.0.0.1", *port, one_shot);
    if (!c4.ok()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(c4.ok()) << "slot never freed: " << c4.status().ToString();
  small.Stop();
}

TEST_F(ServerTest, AdmissionRejectionRetriesAutomaticallyWithBackoff) {
  // With retries left on (the default), a client bounced by admission
  // control keeps trying with backoff and gets in once a slot frees up —
  // no caller-side retry loop needed.
  ServerOptions options;
  options.max_sessions = 1;
  HistorianServer small(odh_->engine(), options);
  auto port = small.Start();
  ASSERT_TRUE(port.ok());

  auto keeper = Client::Connect("127.0.0.1", *port);
  ASSERT_TRUE(keeper.ok());
  std::thread releaser([&keeper] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (*keeper)->Close();
  });
  ClientOptions patient;
  patient.retry.max_connect_attempts = 200;
  patient.retry.initial_backoff_ms = 5;
  patient.retry.max_backoff_ms = 20;
  auto late = Client::Connect("127.0.0.1", *port, patient);
  releaser.join();
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_GE((*late)->stats().connect_attempts, 2);
  small.Stop();
}

TEST_F(ServerTest, RejectionCounterVisibleThroughOdhMetrics) {
  // The shared server wires its counters into the historian's metrics
  // registry, so rejections show up in SQL — queried over the same wire.
  ServerOptions options;
  options.max_sessions = 1;
  core::OdhSystem tiny;
  HistorianServer server(tiny.engine(), options, tiny.metrics());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  ClientOptions one_shot;
  one_shot.retry.max_connect_attempts = 1;
  auto keeper = Client::Connect("127.0.0.1", *port, one_shot);
  ASSERT_TRUE(keeper.ok());
  auto refused = Client::Connect("127.0.0.1", *port, one_shot);
  ASSERT_FALSE(refused.ok());

  auto metrics = (*keeper)->Query(
      "SELECT value FROM odh_metrics WHERE name = 'net.sessions_rejected'");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics->rows[0][0].double_value(), 1.0);
  server.Stop();
}

TEST_F(ServerTest, MemoryPressureGatesAdmission) {
  // The memory admission gate: while the engine's reserved bytes sit at
  // or above the gate, new sessions are turned away with a retryable
  // kMemoryPressure rejection and re-admitted once pressure drains.
  core::OdhSystem tiny;
  ServerOptions options;
  options.memory_gate_bytes = 1 << 20;
  HistorianServer server(tiny.engine(), options, tiny.metrics());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // Saturate the process tracker, as a storm of buffered queries would.
  common::MemoryTracker* root = tiny.engine()->memory_root();
  ASSERT_TRUE(root->TryReserve(1 << 20).ok());

  ClientOptions one_shot;
  one_shot.retry.max_connect_attempts = 1;
  auto refused = Client::Connect("127.0.0.1", *port, one_shot);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted())
      << refused.status().ToString();
  EXPECT_EQ(server.mem_rejections(), 1);
  EXPECT_EQ(server.sessions_rejected(), 1);

  // Retryable by contract: a patient client with backoff rides out the
  // pressure and gets in the moment it drains.
  std::thread releaser([root] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    root->Release(1 << 20);
  });
  ClientOptions patient;
  patient.retry.max_connect_attempts = 200;
  patient.retry.initial_backoff_ms = 5;
  patient.retry.max_backoff_ms = 20;
  auto late = Client::Connect("127.0.0.1", *port, patient);
  releaser.join();
  ASSERT_TRUE(late.ok()) << late.status().ToString();

  // The admitted session works, and the gate's counter is SQL-visible.
  auto metrics = (*late)->Query(
      "SELECT value FROM odh_metrics WHERE name = 'net.mem_rejections'");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics->rows.size(), 1u);
  EXPECT_GE(metrics->rows[0][0].double_value(), 1.0);
  server.Stop();
}

// Satellite: admission rejection must be machine-readable — the client
// classifies by the RejectCode in the frame, never by the reason text.
TEST_F(ServerTest, RejectionCodeIsMachineReadableNotMessageText) {
  ServerOptions options;
  options.max_sessions = 1;
  HistorianServer small(odh_->engine(), options);
  auto port = small.Start();
  ASSERT_TRUE(port.ok());

  ClientOptions one_shot;
  one_shot.retry.max_connect_attempts = 1;
  auto keeper = Client::Connect("127.0.0.1", *port, one_shot);
  ASSERT_TRUE(keeper.ok());

  // Raw-socket handshake, so we can see the Rejected frame itself.
  auto fd = ConnectWithDeadline("127.0.0.1", *port,
                                common::Deadline::AfterMillis(2000));
  ASSERT_TRUE(fd.ok());
  Transport raw(*fd);
  ASSERT_TRUE(raw.SendFrame(FrameType::kHello,
                            Slice(EncodeHello(kProtocolVersion)),
                            common::Deadline::AfterMillis(2000))
                  .ok());
  Frame reply;
  auto got = raw.ReadFrame(&reply, common::Deadline::AfterMillis(2000));
  ASSERT_TRUE(got.ok() && got.value());
  ASSERT_EQ(reply.type, FrameType::kRejected);
  RejectCode code = RejectCode::kUnknown;
  std::string reason;
  ASSERT_TRUE(DecodeRejected(Slice(reply.payload), &code, &reason));
  EXPECT_EQ(code, RejectCode::kTooManySessions);

  // And the client maps that code to a retryable ResourceExhausted.
  auto refused = Client::Connect("127.0.0.1", *port, one_shot);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted())
      << refused.status().ToString();
  EXPECT_TRUE(Client::IsRetryable(refused.status()));
  small.Stop();
}

TEST_F(ServerTest, VersionSkewIsRejectedAsPermanent) {
  auto fd = ConnectWithDeadline("127.0.0.1", port_,
                                common::Deadline::AfterMillis(2000));
  ASSERT_TRUE(fd.ok());
  Transport raw(*fd);
  ASSERT_TRUE(raw.SendFrame(FrameType::kHello, Slice(EncodeHello(999)),
                            common::Deadline::AfterMillis(2000))
                  .ok());
  Frame reply;
  auto got = raw.ReadFrame(&reply, common::Deadline::AfterMillis(2000));
  ASSERT_TRUE(got.ok() && got.value());
  ASSERT_EQ(reply.type, FrameType::kRejected);
  RejectCode code = RejectCode::kUnknown;
  std::string reason;
  ASSERT_TRUE(DecodeRejected(Slice(reply.payload), &code, &reason));
  EXPECT_EQ(code, RejectCode::kIncompatibleVersion);
  // Version skew can never succeed on retry: clients must not back off
  // and hammer a server that will never speak their dialect.
  EXPECT_FALSE(Client::IsRetryable(Status::FailedPrecondition(reason)));
}

// Satellite: HistorianServer lifecycle edges — every combination of
// Stop/Drain/destructor must be safe and idempotent.

TEST(ServerLifecycleTest, StopBeforeStartIsSafe) {
  core::OdhSystem odh;
  HistorianServer server(odh.engine(), ServerOptions{});
  server.Stop();  // Never started: must not crash or hang.
  server.Stop();  // And again.
}

TEST(ServerLifecycleTest, DoubleStopIsIdempotent) {
  core::OdhSystem odh;
  HistorianServer server(odh.engine(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();  // Second Stop: no double-join, no double-close.
}

TEST(ServerLifecycleTest, ConcurrentStopsDoNotRace) {
  core::OdhSystem odh;
  HistorianServer server(odh.engine(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&server] { server.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
}

TEST(ServerLifecycleTest, StartAfterStopFails) {
  core::OdhSystem odh;
  HistorianServer server(odh.engine(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  auto again = server.Start();
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsFailedPrecondition());
}

TEST(ServerLifecycleTest, DoubleStartFails) {
  core::OdhSystem odh;
  HistorianServer server(odh.engine(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto again = server.Start();
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsFailedPrecondition());
}

TEST(ServerLifecycleTest, DestructorWithLiveSessionsIsSafe) {
  core::OdhSystem odh;
  int port = 0;
  std::unique_ptr<Client> c1, c2;
  {
    auto server =
        std::make_unique<HistorianServer>(odh.engine(), ServerOptions{});
    auto started = server->Start();
    ASSERT_TRUE(started.ok());
    port = *started;
    auto r1 = Client::Connect("127.0.0.1", port);
    auto r2 = Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(r1.ok() && r2.ok());
    c1 = std::move(*r1);
    c2 = std::move(*r2);
    // Destructor runs Stop() with both sessions still open.
  }
  // The orphaned clients see a dead connection, not a hang.
  ClientOptions no_retry;
  no_retry.retry.idempotency = IdempotencyClass::kNone;
  auto r = c1->Query("SELECT 1");
  EXPECT_FALSE(r.ok());
}

TEST(ServerLifecycleTest, IllegalTransitionsAreErrors) {
  core::OdhSystem odh;
  HistorianServer server(odh.engine(), ServerOptions{});
  EXPECT_EQ(server.state(), ServerState::kCreated);
  // Drain before Start: illegal (the old API silently no-opped here).
  EXPECT_TRUE(server.Drain(100).IsFailedPrecondition());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.state(), ServerState::kRunning);
  // Second Start on a running server is illegal.
  EXPECT_TRUE(server.Start().status().IsFailedPrecondition());
  // Drain while running is legal, and so is re-draining.
  EXPECT_TRUE(server.Drain(100).ok());
  EXPECT_EQ(server.state(), ServerState::kDraining);
  EXPECT_TRUE(server.Drain(100).ok());
  server.Stop();
  EXPECT_EQ(server.state(), ServerState::kStopped);
  // Drain after Stop: illegal. Restarting a stopped server: also illegal
  // (construct a new one instead).
  EXPECT_TRUE(server.Drain(100).IsFailedPrecondition());
  EXPECT_TRUE(server.Start().status().IsFailedPrecondition());
}

// Satellite: a connected-but-silent peer (slow loris) must not pin its
// session slot past the read deadline.
TEST(ServerLifecycleTest, SilentPeerIsReapedByReadDeadline) {
  core::OdhSystem odh;
  ServerOptions options;
  options.max_sessions = 2;
  options.handshake_deadline_ms = 100;
  HistorianServer server(odh.engine(), options, odh.metrics());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // Connect raw and say nothing: the handshake deadline must reap it.
  auto fd = ConnectWithDeadline("127.0.0.1", *port,
                                common::Deadline::AfterMillis(2000));
  ASSERT_TRUE(fd.ok());
  Transport silent(*fd);
  for (int wait = 0; wait < 500 && server.read_timeouts() == 0; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.read_timeouts(), 1);
  for (int wait = 0; wait < 500 && server.sessions_open() != 0; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.sessions_open(), 0) << "silent peer pinned its slot";
  server.Stop();
}


// Satellite: the RetryPolicy value object, the client's one retry knob.

TEST(RetryPolicyTest, ClientRunsTheResolvedPolicy) {
  core::OdhSystem odh;
  HistorianServer server(odh.engine(), ServerOptions{});
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  ClientOptions options;
  options.retry.rpc_deadline_ms = 2222;
  options.retry.idempotency = IdempotencyClass::kNone;
  options.retry.max_statement_attempts = 5;
  auto client = Client::Connect("127.0.0.1", *port, options);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->retry_policy().rpc_deadline_ms, 2222);
  // kNone means one attempt per statement, whatever the attempt knob says.
  EXPECT_EQ((*client)->retry_policy().StatementAttempts(), 1);
  server.Stop();
}

// Satellite: ClientStats lifetime semantics — counters survive Close()
// and only ResetStats() zeroes them.
TEST(ClientStatsTest, StatsSurviveCloseAndResetExplicitly) {
  core::OdhSystem odh;
  HistorianServer server(odh.engine(), ServerOptions{});
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  auto client = Client::Connect("127.0.0.1", *port);
  ASSERT_TRUE(client.ok());
  EXPECT_GE((*client)->stats().connect_attempts, 1);
  (*client)->Close();
  EXPECT_GE((*client)->stats().connect_attempts, 1)
      << "Close() must not reset stats";
  (*client)->ResetStats();
  EXPECT_EQ((*client)->stats().connect_attempts, 0);
  EXPECT_EQ((*client)->stats().reconnects, 0);
  server.Stop();
}

}  // namespace
}  // namespace odh::net
