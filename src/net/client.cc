#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace odh::net {

using common::Deadline;
using common::ExponentialBackoff;

// ClientCursor ---------------------------------------------------------------

ClientCursor::~ClientCursor() {
  // Drain the wire so the connection is reusable for the next statement.
  if (!finished_ && client_ != nullptr) {
    Row discard;
    while (true) {
      Result<bool> more = Next(&discard);
      if (!more.ok() || !more.value()) break;
    }
  }
  if (client_ != nullptr && client_->active_cursor_ == this) {
    client_->active_cursor_ = nullptr;
  }
}

Result<bool> ClientCursor::Next(Row* row) {
  if (!poison_.ok()) return poison_;
  while (pending_.empty()) {
    if (finished_) return false;
    Status advanced = client_->Advance(this);
    if (!advanced.ok()) {
      // Poison, permanently: a partially consumed stream must never be
      // resumed or silently restarted — the caller re-runs the statement
      // if it wants the rows (and only it knows whether that is safe).
      poison_ = advanced;
      finished_ = true;
      return poison_;
    }
  }
  *row = std::move(pending_.front());
  pending_.pop_front();
  return true;
}

// Client ---------------------------------------------------------------------

Client::~Client() { Close(); }

bool Client::IsRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kIoError:
      return true;
    default:
      return false;
  }
}

void Client::Abandon() {
  transport_.Close();
  if (active_cursor_ != nullptr) {
    // Orphan the cursor: it keeps its buffered rows but can't refill.
    active_cursor_->client_ = nullptr;
    if (!active_cursor_->finished_) {
      active_cursor_->poison_ = Status::IoError("connection closed");
      active_cursor_->finished_ = true;
    }
    active_cursor_ = nullptr;
  }
}

void Client::Close() {
  if (transport_.valid()) {
    std::string out;
    AppendFrame(&out, FrameType::kBye, Slice());
    (void)transport_.WriteAll(out.data(), out.size(),
                              Deadline::AfterMillis(1000));
  }
  Abandon();
}

Status Client::ConnectOnce() {
  ++stats_.connect_attempts;
  if (options_.fault_policy != nullptr) {
    NetFaultDecision fault = options_.fault_policy->OnConnect();
    if (fault.kind == NetFaultDecision::Kind::kStall) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fault.stall_millis));
    } else if (fault.kind != NetFaultDecision::Kind::kNone) {
      return Status::Unavailable("injected connect fault");
    }
  }
  Deadline dl =
      Deadline::AfterMillisOrInfinite(options_.retry.connect_timeout_ms);
  Result<int> fd = ConnectWithDeadline(host_, port_, dl);
  if (!fd.ok()) {
    if (fd.status().IsDeadlineExceeded()) ++stats_.deadline_timeouts;
    return fd.status();
  }
  transport_ = Transport(*fd, options_.fault_policy);

  Status hello = SendFrame(FrameType::kHello, EncodeHello(kProtocolVersion), dl);
  if (!hello.ok()) {
    transport_.Close();
    return hello;
  }
  Frame frame;
  Result<bool> got = ReadInto(&frame, dl);
  if (!got.ok() || !got.value()) {
    transport_.Close();
    return got.ok() ? Status::IoError("server closed during handshake")
                    : got.status();
  }
  if (frame.type == FrameType::kRejected) {
    RejectCode code = RejectCode::kUnknown;
    std::string reason;
    DecodeRejected(Slice(frame.payload), &code, &reason);
    transport_.Close();
    // Classify by code, never by reason text.
    switch (code) {
      case RejectCode::kTooManySessions:
      case RejectCode::kDraining:
      case RejectCode::kMemoryPressure:
        return Status::ResourceExhausted("server rejected connection: " +
                                         reason);
      case RejectCode::kIncompatibleVersion:
      case RejectCode::kUnknown:
        return Status::FailedPrecondition("server rejected connection: " +
                                          reason);
    }
    return Status::Internal("unreachable");
  }
  uint32_t version = 0;
  uint64_t session_id = 0;
  if (frame.type != FrameType::kWelcome ||
      !DecodeWelcome(Slice(frame.payload), &version, &session_id)) {
    transport_.Close();
    return Status::IoError("bad handshake reply");
  }
  session_id_ = session_id;
  if (++generation_ > 1) ++stats_.reconnects;
  return Status::OK();
}

Status Client::ConnectWithRetry() {
  ExponentialBackoff backoff(options_.retry.initial_backoff_ms,
                             options_.retry.max_backoff_ms,
                             options_.retry.backoff_seed);
  const int attempts = options_.retry.ConnectAttempts();
  Status last;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    last = ConnectOnce();
    if (last.ok()) return last;
    if (!IsRetryable(last) || attempt == attempts) return last;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff.NextDelayMillis()));
  }
  return last;
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                int port,
                                                const ClientOptions& options) {
  std::unique_ptr<Client> client(new Client());
  client->host_ = host;
  client->port_ = port;
  client->options_ = options;
  ODH_RETURN_IF_ERROR(client->ConnectWithRetry());
  return client;
}

Status Client::SendFrame(FrameType type, const std::string& payload,
                         const Deadline& dl) {
  if (!transport_.valid()) {
    return Status::FailedPrecondition("client is closed");
  }
  std::string out;
  AppendFrame(&out, type, Slice(payload));
  Status sent = transport_.WriteAll(out.data(), out.size(), dl);
  if (sent.IsDeadlineExceeded()) ++stats_.deadline_timeouts;
  return sent;
}

Result<bool> Client::ReadInto(Frame* frame, const Deadline& dl) {
  if (!transport_.valid()) {
    return Status::FailedPrecondition("client is closed");
  }
  Result<bool> got = transport_.ReadFrame(frame, dl);
  if (!got.ok() && got.status().IsDeadlineExceeded()) {
    ++stats_.deadline_timeouts;
  }
  return got;
}

Result<uint64_t> Client::ResolveStatement(const ClientStatement& stmt) {
  auto it = statements_.find(stmt.id);
  if (it == statements_.end()) {
    // Not one of ours (hand-crafted handle): pass the id through and let
    // the server answer — it replies NotFound for unknown ids.
    return stmt.id;
  }
  RemoteStatement& remote = it->second;
  if (remote.generation == generation_) return remote.server_id;
  // Prepared on a dead connection: the server-side handle died with it.
  // Re-prepare the retained SQL on the current connection.
  Deadline dl = Deadline::AfterMillisOrInfinite(options_.retry.rpc_deadline_ms);
  ODH_RETURN_IF_ERROR(
      SendFrame(FrameType::kPrepare, [&] {
        std::string payload;
        PutString(&payload, remote.sql);
        return payload;
      }(), dl));
  Frame frame;
  ODH_ASSIGN_OR_RETURN(bool got, ReadInto(&frame, dl));
  if (!got) return Status::IoError("server closed mid-prepare");
  if (frame.type == FrameType::kError) {
    Status remote_status;
    if (!DecodeError(Slice(frame.payload), &remote_status)) {
      return Status::IoError("bad error frame");
    }
    return remote_status;
  }
  uint64_t server_id = 0;
  uint32_t param_count = 0;
  std::vector<std::string> columns;
  if (frame.type != FrameType::kPrepared ||
      !DecodePrepared(Slice(frame.payload), &server_id, &param_count,
                      &columns)) {
    return Status::IoError("bad prepare reply");
  }
  remote.server_id = server_id;
  remote.generation = generation_;
  return server_id;
}

Result<std::unique_ptr<ClientCursor>> Client::StartStreamOnce(
    FrameType type, const std::string& payload, bool* fully_sent) {
  Deadline dl = Deadline::AfterMillisOrInfinite(options_.retry.rpc_deadline_ms);
  ODH_RETURN_IF_ERROR(SendFrame(type, payload, dl));
  // WriteAll is all-or-error: an OK here means the whole request frame is
  // on the wire, so the server may act on it — the retry policy's
  // "fully-unstarted" boundary.
  *fully_sent = true;
  Frame frame;
  ODH_ASSIGN_OR_RETURN(bool got, ReadInto(&frame, dl));
  if (!got) return Status::IoError("server closed mid-statement");
  if (frame.type == FrameType::kError) {
    Status remote;
    if (!DecodeError(Slice(frame.payload), &remote)) {
      return Status::IoError("bad error frame");
    }
    return remote;
  }
  if (frame.type != FrameType::kResultHeader) {
    return Status::IoError("expected result header");
  }
  std::unique_ptr<ClientCursor> cursor(new ClientCursor(this));
  if (!DecodeColumns(Slice(frame.payload), &cursor->columns_)) {
    return Status::IoError("bad result header");
  }
  active_cursor_ = cursor.get();
  return cursor;
}

Result<std::unique_ptr<ClientCursor>> Client::StartStream(
    FrameType type, const std::string& payload, bool idempotent) {
  // (Re)built per attempt for Execute via ExecuteStream; here the payload
  // is fixed, so wrap it.
  if (active_cursor_ != nullptr) {
    return Status::FailedPrecondition(
        "a result stream is still open; drain or destroy it first");
  }
  ExponentialBackoff backoff(options_.retry.initial_backoff_ms,
                             options_.retry.max_backoff_ms,
                             options_.retry.backoff_seed + 1);
  const int attempts = options_.retry.StatementAttempts();
  Status last;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (!transport_.valid()) {
      Status connected = ConnectWithRetry();
      if (!connected.ok()) return connected;
    }
    bool fully_sent = false;
    Result<std::unique_ptr<ClientCursor>> started =
        StartStreamOnce(type, payload, &fully_sent);
    if (started.ok()) return started;
    last = started.status();
    if (!IsRetryable(last)) return last;  // SQL-level error: deterministic.
    // Connection-level failure: its stream position is unknowable, so the
    // connection is abandoned either way.
    Abandon();
    // Retry only provably-unstarted requests (never fully sent) or ones
    // the caller declared idempotent. A fully sent non-idempotent request
    // may have taken effect without its ack — surface the error instead.
    const bool safe_to_retry =
        !fully_sent || idempotent ||
        options_.retry.idempotency == IdempotencyClass::kIdempotent;
    if (!safe_to_retry || attempt == attempts) return last;
    ++stats_.statement_retries;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff.NextDelayMillis()));
  }
  return last;
}

Status Client::Advance(ClientCursor* cursor) {
  Deadline dl = Deadline::AfterMillisOrInfinite(options_.retry.rpc_deadline_ms);
  Frame frame;
  Result<bool> got = ReadInto(&frame, dl);
  if (!got.ok() || !got.value()) {
    // Connection-level failure mid-stream: the socket's framing position
    // is unknowable, so drop the connection — the next statement
    // reconnects. The cursor itself poisons (Next handles that).
    if (active_cursor_ == cursor) active_cursor_ = nullptr;
    Status broken =
        got.ok() ? Status::IoError("server closed mid-stream") : got.status();
    transport_.Close();
    return broken;
  }
  switch (frame.type) {
    case FrameType::kRowBatch: {
      std::vector<Row> rows;
      if (!DecodeRowBatch(Slice(frame.payload), &rows)) {
        if (active_cursor_ == cursor) active_cursor_ = nullptr;
        transport_.Close();
        return Status::IoError("bad row batch");
      }
      for (Row& row : rows) cursor->pending_.push_back(std::move(row));
      return Status::OK();
    }
    case FrameType::kDone: {
      if (!DecodeDone(Slice(frame.payload), &cursor->done_)) {
        if (active_cursor_ == cursor) active_cursor_ = nullptr;
        transport_.Close();
        return Status::IoError("bad done frame");
      }
      cursor->finished_ = true;
      if (active_cursor_ == cursor) active_cursor_ = nullptr;
      return Status::OK();
    }
    case FrameType::kError: {
      // A server-side statement error: the stream is over but the session
      // (and connection) live on.
      Status remote;
      if (!DecodeError(Slice(frame.payload), &remote)) {
        if (active_cursor_ == cursor) active_cursor_ = nullptr;
        transport_.Close();
        return Status::IoError("bad error frame");
      }
      if (active_cursor_ == cursor) active_cursor_ = nullptr;
      return remote;
    }
    default:
      if (active_cursor_ == cursor) active_cursor_ = nullptr;
      transport_.Close();
      return Status::IoError("unexpected frame in result stream");
  }
}

Result<ClientResult> Client::DrainCursor(
    std::unique_ptr<ClientCursor> cursor) {
  ClientResult result;
  result.columns = cursor->columns();
  Row row;
  while (true) {
    ODH_ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
    if (!more) break;
    result.rows.push_back(std::move(row));
  }
  result.done = cursor->done();
  return result;
}

Result<ClientResult> Client::Query(const std::string& sql,
                                   const std::vector<Datum>& params) {
  ODH_ASSIGN_OR_RETURN(std::unique_ptr<ClientCursor> cursor,
                       QueryStream(sql, params));
  return DrainCursor(std::move(cursor));
}

Result<std::unique_ptr<ClientCursor>> Client::QueryStream(
    const std::string& sql, const std::vector<Datum>& params) {
  return StartStream(FrameType::kQuery, EncodeQuery(sql, params),
                     /*idempotent=*/false);
}

Result<ClientStatement> Client::Prepare(const std::string& sql) {
  if (active_cursor_ != nullptr) {
    return Status::FailedPrecondition(
        "a result stream is still open; drain or destroy it first");
  }
  std::string payload;
  PutString(&payload, sql);
  ExponentialBackoff backoff(options_.retry.initial_backoff_ms,
                             options_.retry.max_backoff_ms,
                             options_.retry.backoff_seed + 2);
  const int attempts = options_.retry.StatementAttempts();
  Status last;
  ClientStatement stmt;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (!transport_.valid()) {
      Status connected = ConnectWithRetry();
      if (!connected.ok()) return connected;
    }
    Deadline dl =
        Deadline::AfterMillisOrInfinite(options_.retry.rpc_deadline_ms);
    last = SendFrame(FrameType::kPrepare, payload, dl);
    if (last.ok()) {
      Frame frame;
      Result<bool> got = ReadInto(&frame, dl);
      if (!got.ok()) {
        last = got.status();
      } else if (!got.value()) {
        last = Status::IoError("server closed mid-prepare");
      } else if (frame.type == FrameType::kError) {
        Status remote;
        if (!DecodeError(Slice(frame.payload), &remote)) {
          last = Status::IoError("bad error frame");
        } else {
          return remote;  // SQL-level: deterministic, never retried.
        }
      } else {
        uint64_t server_id = 0;
        uint32_t param_count = 0;
        if (frame.type != FrameType::kPrepared ||
            !DecodePrepared(Slice(frame.payload), &server_id, &param_count,
                            &stmt.columns)) {
          last = Status::IoError("bad prepare reply");
        } else {
          stmt.id = next_stmt_id_++;
          stmt.param_count = static_cast<int>(param_count);
          stmt.sql = sql;
          statements_[stmt.id] = RemoteStatement{sql, server_id, generation_};
          return stmt;
        }
      }
    }
    if (!IsRetryable(last)) return last;
    Abandon();  // Prepare is idempotent: always safe on a fresh connection.
    if (attempt == attempts) return last;
    ++stats_.statement_retries;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff.NextDelayMillis()));
  }
  return last;
}

Result<ClientResult> Client::Execute(const ClientStatement& stmt,
                                     const std::vector<Datum>& params) {
  ODH_ASSIGN_OR_RETURN(std::unique_ptr<ClientCursor> cursor,
                       ExecuteStream(stmt, params));
  return DrainCursor(std::move(cursor));
}

Result<std::unique_ptr<ClientCursor>> Client::ExecuteStream(
    const ClientStatement& stmt, const std::vector<Datum>& params) {
  if (active_cursor_ != nullptr) {
    return Status::FailedPrecondition(
        "a result stream is still open; drain or destroy it first");
  }
  // Like StartStream, but the payload is rebuilt per attempt: after a
  // reconnect the statement has to be re-prepared, which changes its
  // server-side id.
  ExponentialBackoff backoff(options_.retry.initial_backoff_ms,
                             options_.retry.max_backoff_ms,
                             options_.retry.backoff_seed + 3);
  const int attempts = options_.retry.StatementAttempts();
  Status last;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (!transport_.valid()) {
      Status connected = ConnectWithRetry();
      if (!connected.ok()) return connected;
    }
    Result<uint64_t> server_id = ResolveStatement(stmt);
    bool fully_sent = false;
    Result<std::unique_ptr<ClientCursor>> started =
        server_id.ok()
            ? StartStreamOnce(FrameType::kExecute,
                              EncodeExecute(*server_id, params), &fully_sent)
            : Result<std::unique_ptr<ClientCursor>>(server_id.status());
    if (started.ok()) return started;
    last = started.status();
    if (!IsRetryable(last)) return last;
    Abandon();
    const bool safe_to_retry =
        !fully_sent ||
        options_.retry.idempotency == IdempotencyClass::kIdempotent;
    if (!safe_to_retry || attempt == attempts) return last;
    ++stats_.statement_retries;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff.NextDelayMillis()));
  }
  return last;
}

Status Client::CloseStatement(const ClientStatement& stmt) {
  auto it = statements_.find(stmt.id);
  uint64_t server_id = stmt.id;
  if (it != statements_.end()) {
    const bool live = it->second.generation == generation_;
    server_id = it->second.server_id;
    statements_.erase(it);
    // Prepared on a dead connection: the server-side handle is already
    // gone, nothing to tell anyone.
    if (!live) return Status::OK();
  }
  if (!transport_.valid()) return Status::OK();
  return SendFrame(
      FrameType::kCloseStmt, EncodeStmtId(server_id),
      Deadline::AfterMillisOrInfinite(options_.retry.rpc_deadline_ms));
}

}  // namespace odh::net
