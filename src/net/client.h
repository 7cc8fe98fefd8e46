#ifndef ODH_NET_CLIENT_H_
#define ODH_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/datum.h"
#include "common/result.h"
#include "net/fault.h"
#include "net/retry_policy.h"
#include "net/transport.h"
#include "net/wire.h"

namespace odh::net {

/// Knobs for the client's fault tolerance. The defaults suit an
/// interactive client on a mostly healthy network; ingest daemons on
/// flaky plant-floor links want more attempts and a larger backoff cap.
///
/// The retry semantics (what each deadline covers, when a statement is
/// safe to re-send, the stream poison contract) are documented on
/// RetryPolicy and IdempotencyClass.
struct ClientOptions {
  /// The one retry/deadline/backoff knob.
  RetryPolicy retry;

  /// Test hook: fault policy consulted on connect and by the transport
  /// (must outlive the client). Production leaves this null.
  FaultPolicy* fault_policy = nullptr;
};

/// A prepared statement's client-side handle. The id names the statement
/// to this Client (stable across reconnects: the client re-prepares the
/// carried SQL on the new connection transparently).
struct ClientStatement {
  uint64_t id = 0;
  int param_count = 0;
  std::vector<std::string> columns;  // SELECT output names; empty otherwise.
  std::string sql;                   // Retained for re-prepare.
};

/// A fully materialized statement result.
struct ClientResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  DoneInfo done;  // Affected rows, executed path, server-side timings.
};

/// Client-side fault-tolerance counters. Lifetime semantics (uniform with
/// sql::SessionStats): counters accumulate over the OBJECT's lifetime and
/// are never reset implicitly — not by Close(), not by an automatic
/// reconnect. Call Client::ResetStats() to zero them explicitly.
struct ClientStats {
  int64_t connect_attempts = 0;   // TCP connects tried (incl. successes).
  int64_t reconnects = 0;         // Successful re-handshakes after loss.
  int64_t statement_retries = 0;  // Statements re-sent after a failure.
  int64_t deadline_timeouts = 0;  // RPCs that ran out of budget.
};

class Client;

/// Pull-based view of one in-flight statement's result: rows arrive in
/// RowBatch frames and are handed out one at a time, so the client holds
/// at most one batch in memory. Follows the RowCursor poison contract:
/// after a non-OK Next every further Next returns the same error — a
/// partially consumed stream is never resumed or silently restarted, over
/// the network exactly as over local storage.
///
/// The owning Client allows a single outstanding stream; drain it (Next
/// to false/error) or destroy it before issuing the next statement —
/// destruction drains the wire quietly.
class ClientCursor {
 public:
  ~ClientCursor();
  ClientCursor(const ClientCursor&) = delete;
  ClientCursor& operator=(const ClientCursor&) = delete;

  Result<bool> Next(Row* row);

  const std::vector<std::string>& columns() const { return columns_; }
  /// Valid once Next has returned false (the Done frame carries it).
  const DoneInfo& done() const { return done_; }

 private:
  friend class Client;
  explicit ClientCursor(Client* client) : client_(client) {}

  Client* client_;
  std::vector<std::string> columns_;
  std::deque<Row> pending_;
  DoneInfo done_;
  bool finished_ = false;
  Status poison_;
};

/// Blocking client for the historian protocol with built-in fault
/// tolerance: connect/RPC deadlines, seeded exponential backoff with full
/// jitter, automatic reconnect, and retry of idempotent work only (see
/// ClientOptions). Not thread-safe: one Client per thread (mirroring one
/// Session per connection server-side).
///
/// A server at its session limit answers the handshake with a Rejected
/// frame carrying a machine-readable RejectCode; kTooManySessions and
/// kDraining surface as kResourceExhausted (retryable — Connect backs off
/// on them automatically), kIncompatibleVersion as kFailedPrecondition
/// (permanent).
class Client {
 public:
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, int port, const ClientOptions& options = {});

  /// One-shot execution, materialized.
  Result<ClientResult> Query(const std::string& sql,
                             const std::vector<Datum>& params = {});
  /// One-shot execution, streaming.
  Result<std::unique_ptr<ClientCursor>> QueryStream(
      const std::string& sql, const std::vector<Datum>& params = {});

  Result<ClientStatement> Prepare(const std::string& sql);
  Result<ClientResult> Execute(const ClientStatement& stmt,
                               const std::vector<Datum>& params = {});
  Result<std::unique_ptr<ClientCursor>> ExecuteStream(
      const ClientStatement& stmt, const std::vector<Datum>& params = {});
  /// Frees the server-side handle (fire-and-forget).
  Status CloseStatement(const ClientStatement& stmt);

  uint64_t session_id() const { return session_id_; }
  const ClientStats& stats() const { return stats_; }
  /// Zeroes the counters. The ONLY way stats reset — Close() and
  /// reconnects never do (see ClientStats).
  void ResetStats() { stats_ = {}; }
  /// The retry policy this client runs (ClientOptions::retry).
  const RetryPolicy& retry_policy() const { return options_.retry; }
  bool connected() const { return transport_.valid(); }

  /// True for errors worth retrying (possibly on a new connection):
  /// transient faults, timeouts, admission-control rejections, and broken
  /// connections. SQL-level errors (bad statement, missing table) are
  /// deterministic and excluded.
  static bool IsRetryable(const Status& status);

  /// Sends Bye and closes the socket. Idempotent; also run by the dtor.
  void Close();

 private:
  /// Server-side identity of one prepared statement on the current
  /// connection; `generation` says which connection prepared it.
  struct RemoteStatement {
    std::string sql;
    uint64_t server_id = 0;
    uint64_t generation = 0;
  };

  Client() = default;

  /// One TCP connect + handshake attempt (no retries).
  Status ConnectOnce();
  /// Connect with the options' backoff/retry schedule.
  Status ConnectWithRetry();
  /// Drops the current connection (no Bye): the stream state is unknown.
  void Abandon();

  Status SendFrame(FrameType type, const std::string& payload,
                   const common::Deadline& dl);
  Result<bool> ReadInto(Frame* frame, const common::Deadline& dl);
  /// Sends a statement frame and consumes its ResultHeader (or Error),
  /// applying the retry policy. `idempotent` marks requests safe to
  /// re-send even after they fully reached the wire.
  Result<std::unique_ptr<ClientCursor>> StartStream(FrameType type,
                                                    const std::string& payload,
                                                    bool idempotent);
  /// One send-request/read-header exchange, no retries. Sets
  /// *fully_sent once the request bytes are all on the wire.
  Result<std::unique_ptr<ClientCursor>> StartStreamOnce(
      FrameType type, const std::string& payload, bool* fully_sent);
  /// Ensures `stmt` is prepared on the current connection (re-preparing
  /// after a reconnect) and returns its current server-side id.
  Result<uint64_t> ResolveStatement(const ClientStatement& stmt);
  /// Pulls the next RowBatch/Done/Error frame for `cursor`.
  Status Advance(ClientCursor* cursor);
  Result<ClientResult> DrainCursor(std::unique_ptr<ClientCursor> cursor);

  std::string host_;
  int port_ = 0;
  ClientOptions options_;
  Transport transport_;
  uint64_t session_id_ = 0;
  /// Bumped on every successful (re)connect; prepared statements from
  /// older generations are re-prepared lazily.
  uint64_t generation_ = 0;
  uint64_t next_stmt_id_ = 1;
  std::map<uint64_t, RemoteStatement> statements_;
  ClientStats stats_;
  /// The single outstanding streaming cursor, if any.
  ClientCursor* active_cursor_ = nullptr;

  friend class ClientCursor;
};

}  // namespace odh::net

#endif  // ODH_NET_CLIENT_H_
