#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/stopwatch.h"
#include "net/wire.h"
#include "sql/session.h"

#include "net/replication.h"

namespace odh::net {

using common::Deadline;

const char* ToString(ServerState state) {
  switch (state) {
    case ServerState::kCreated:
      return "created";
    case ServerState::kRunning:
      return "running";
    case ServerState::kDraining:
      return "draining";
    case ServerState::kStopped:
      return "stopped";
  }
  return "unknown";
}

const char* ToString(ServerRole role) {
  switch (role) {
    case ServerRole::kPrimary:
      return "primary";
    case ServerRole::kReplica:
      return "replica";
  }
  return "unknown";
}

HistorianServer::HistorianServer(sql::SqlEngine* engine,
                                 ServerOptions options,
                                 common::MetricsRegistry* metrics)
    : engine_(engine), options_(std::move(options)) {
  if (options_.max_sessions < 1) options_.max_sessions = 1;
  if (options_.rows_per_batch < 1) options_.rows_per_batch = 1;
  if (metrics != nullptr) {
    sessions_total_metric_ = metrics->GetCounter("net.sessions_total");
    sessions_rejected_metric_ = metrics->GetCounter("net.sessions_rejected");
    mem_rejections_metric_ = metrics->GetCounter("net.mem_rejections");
    frames_sent_metric_ = metrics->GetCounter("net.frames_sent");
    rows_streamed_metric_ = metrics->GetCounter("net.rows_streamed");
    read_timeouts_metric_ = metrics->GetCounter("net.read_timeouts");
    write_timeouts_metric_ = metrics->GetCounter("net.write_timeouts");
    drained_sessions_metric_ = metrics->GetCounter("net.drained_sessions");
    force_closed_metric_ = metrics->GetCounter("net.sessions_force_closed");
    request_micros_metric_ = metrics->GetHistogram("net.request_micros");
    metrics->RegisterGauge("net.sessions_open", [this] {
      return static_cast<double>(
          sessions_open_.load(std::memory_order_relaxed));
    });
  }
}

HistorianServer::~HistorianServer() { Stop(); }

Result<int> HistorianServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (state() != ServerState::kCreated) {
    return Status::FailedPrecondition(
        std::string("cannot Start a ") + ToString(state()) +
        " server (only created -> running is legal)");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("bind: " + std::string(std::strerror(errno)));
  }
  if (::listen(fd, options_.listen_backlog) != 0) {
    ::close(fd);
    return Status::IoError("listen: " + std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  listen_fd_.store(fd, std::memory_order_release);

  workers_ = std::make_unique<common::ThreadPool>(options_.max_sessions);
  // Publish kRunning before the accept thread exists: AcceptLoop's first
  // state() check must not be able to observe kCreated and exit, leaving
  // a listener whose backlog accepts connections nobody ever serves.
  state_.store(ServerState::kRunning, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return port_;
}

void HistorianServer::ShutdownSessions(bool only_idle) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto& [id, slot] : sessions_) {
    if (only_idle && slot->in_statement.load(std::memory_order_acquire)) {
      continue;
    }
    slot->transport.Shutdown();
  }
}

Status HistorianServer::Drain(int timeout_ms) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (state() != ServerState::kRunning && state() != ServerState::kDraining) {
    return Status::FailedPrecondition(
        std::string("cannot Drain a ") + ToString(state()) +
        " server (legal from running or draining)");
  }
  state_.store(ServerState::kDraining, std::memory_order_release);
  // Stop accepting: closing the listener bounces new connections at the
  // TCP layer and ends the accept loop.
  int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  // Idle sessions (waiting for their next request) hold no in-flight work:
  // cut them now so only genuinely busy sessions spend the drain budget.
  ShutdownSessions(/*only_idle=*/true);
  // Let in-flight statements run to completion. Handlers notice draining_
  // after finishing a statement and exit on their own.
  Deadline budget = Deadline::AfterMillisOrInfinite(timeout_ms);
  while (sessions_open_.load(std::memory_order_relaxed) > 0 &&
         !budget.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Budget spent: whatever is still running gets the axe.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [id, slot] : sessions_) {
      slot->forced.store(true, std::memory_order_release);
      sessions_force_closed_.fetch_add(1, std::memory_order_relaxed);
      if (force_closed_metric_ != nullptr) force_closed_metric_->Add(1);
      slot->transport.Shutdown();
    }
  }
  return Status::OK();
}

void HistorianServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (state() == ServerState::kStopped) return;
  state_.store(ServerState::kStopped, std::memory_order_release);
  int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Unblock handlers stuck in poll/read; each closes its own transport.
  ShutdownSessions(/*only_idle=*/false);
  // ThreadPool teardown joins the workers, i.e. waits for every admitted
  // session handler to return.
  workers_.reset();
}

void HistorianServer::AcceptLoop() {
  while (state() == ServerState::kRunning) {
    int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;  // Stop/Drain already closed the listener.
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // Listener closed (Stop/Drain) or fatal accept error.
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const Deadline reject_dl =
        Deadline::AfterMillisOrInfinite(options_.write_deadline_ms);
    // A connection that raced the start of a drain is turned away with a
    // retryable code: its natural next stop is this server's replacement.
    if (state() == ServerState::kDraining) {
      Transport t(fd);
      (void)t.SendFrame(
          FrameType::kRejected,
          Slice(EncodeRejected(RejectCode::kDraining, "server draining")),
          reject_dl);
      continue;  // Transport dtor closes fd.
    }
    // Admission control. Only this thread admits, so the check-and-admit
    // below cannot overshoot max_sessions.
    if (sessions_open_.load(std::memory_order_relaxed) >=
        options_.max_sessions) {
      sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      if (sessions_rejected_metric_ != nullptr) {
        sessions_rejected_metric_->Add(1);
      }
      Transport t(fd);
      (void)t.SendFrame(FrameType::kRejected,
                        Slice(EncodeRejected(RejectCode::kTooManySessions,
                                             "server at max_sessions")),
                        reject_dl);
      continue;
    }
    // Memory admission gate: while reserved bytes sit at or above the
    // gate, new sessions would only deepen the pressure — turn them away
    // retryably and let in-flight queries release as they finish.
    const int64_t gate = options_.memory_gate_bytes > 0
                             ? options_.memory_gate_bytes
                             : engine_->memory_root()->limit();
    if (gate > 0 && engine_->memory_root()->used() >= gate) {
      sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      mem_rejections_.fetch_add(1, std::memory_order_relaxed);
      if (sessions_rejected_metric_ != nullptr) {
        sessions_rejected_metric_->Add(1);
      }
      if (mem_rejections_metric_ != nullptr) mem_rejections_metric_->Add(1);
      Transport t(fd);
      (void)t.SendFrame(FrameType::kRejected,
                        Slice(EncodeRejected(RejectCode::kMemoryPressure,
                                             "server memory budget full")),
                        reject_dl);
      continue;
    }
    sessions_open_.fetch_add(1, std::memory_order_relaxed);
    if (sessions_total_metric_ != nullptr) sessions_total_metric_->Add(1);
    const uint64_t session_id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    auto slot = std::make_shared<SessionSlot>(fd, options_.fault_policy);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      sessions_[session_id] = slot;
    }
    workers_->Submit([this, slot, session_id] {
      ServeConnection(slot.get(), session_id);
      const bool graceful_drain =
          state() == ServerState::kDraining &&
          !slot->forced.load(std::memory_order_acquire);
      slot->transport.Close();
      {
        std::lock_guard<std::mutex> lock(conn_mu_);
        sessions_.erase(session_id);
      }
      if (graceful_drain) {
        drained_sessions_.fetch_add(1, std::memory_order_relaxed);
        if (drained_sessions_metric_ != nullptr) {
          drained_sessions_metric_->Add(1);
        }
      }
      sessions_open_.fetch_sub(1, std::memory_order_relaxed);
    });
  }
}

void HistorianServer::ServeConnection(SessionSlot* slot,
                                      uint64_t session_id) {
  Transport& transport = slot->transport;
  Frame frame;

  auto write_deadline = [this] {
    return Deadline::AfterMillisOrInfinite(options_.write_deadline_ms);
  };
  auto send = [&](FrameType type, const std::string& payload) -> bool {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    if (frames_sent_metric_ != nullptr) frames_sent_metric_->Add(1);
    Status sent =
        transport.SendFrame(type, Slice(payload), write_deadline());
    if (sent.IsDeadlineExceeded()) {
      write_timeouts_.fetch_add(1, std::memory_order_relaxed);
      if (write_timeouts_metric_ != nullptr) write_timeouts_metric_->Add(1);
    }
    return sent.ok();
  };
  // Reads the next request frame under `dl`. False = this session is over
  // (EOF, error, timeout — timeouts counted as slow-client protection).
  auto read_request = [&](const Deadline& dl) -> bool {
    Result<bool> got = transport.ReadFrame(&frame, dl);
    if (got.ok()) return got.value();
    if (got.status().IsDeadlineExceeded()) {
      read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      if (read_timeouts_metric_ != nullptr) read_timeouts_metric_->Add(1);
    }
    return false;
  };

  // Handshake: the first frame must be a version-compatible Hello, inside
  // the handshake budget.
  {
    if (!read_request(
            Deadline::AfterMillisOrInfinite(options_.handshake_deadline_ms)) ||
        frame.type != FrameType::kHello) {
      return;
    }
    uint32_t version = 0;
    if (!DecodeHello(Slice(frame.payload), &version) ||
        version != kProtocolVersion) {
      send(FrameType::kRejected,
           EncodeRejected(RejectCode::kIncompatibleVersion,
                          "unsupported protocol version"));
      return;
    }
    if (!send(FrameType::kWelcome,
              EncodeWelcome(kProtocolVersion, session_id))) {
      return;
    }
  }

  sql::Session session(engine_);
  if (options_.role == ServerRole::kReplica) session.set_read_only(true);
  std::map<uint64_t, std::shared_ptr<const sql::PreparedStatement>> stmts;
  uint64_t next_stmt_id = 1;

  // net.request_micros records each request once, before the last frame
  // of its reply is sent: a client holding that frame already sees the
  // sample. Requests that end without a reply frame record at loop end.
  Stopwatch request_timer;
  bool request_recorded = false;
  auto record_request = [&] {
    if (request_recorded) return;
    request_recorded = true;
    if (request_micros_metric_ != nullptr) {
      request_micros_metric_->Observe(request_timer.ElapsedMicros());
    }
  };
  // Sends the last frame of a request's reply.
  auto reply = [&](FrameType type, const std::string& payload) -> bool {
    record_request();
    return send(type, payload);
  };

  // Streams the result of one statement back as Header RowBatch* Done.
  // Returns false when the socket broke (caller hangs up).
  auto stream_result = [&](sql::QueryStream* stream) -> bool {
    if (!send(FrameType::kResultHeader, EncodeColumns(stream->columns()))) {
      return false;
    }
    std::vector<Row> batch;
    batch.reserve(static_cast<size_t>(options_.rows_per_batch));
    while (true) {
      Row row;
      Result<bool> more = stream->Next(&row);
      if (!more.ok()) {
        // Mid-stream failure: the rows already sent stand; the error frame
        // tells the client the stream is poisoned, the session lives on.
        return reply(FrameType::kError, EncodeError(more.status()));
      }
      if (more.value()) {
        batch.push_back(std::move(row));
        if (batch.size() < static_cast<size_t>(options_.rows_per_batch)) {
          continue;
        }
      }
      if (!batch.empty()) {
        rows_streamed_.fetch_add(static_cast<int64_t>(batch.size()),
                                 std::memory_order_relaxed);
        if (rows_streamed_metric_ != nullptr) {
          rows_streamed_metric_->Add(static_cast<int64_t>(batch.size()));
        }
        if (!send(FrameType::kRowBatch, EncodeRowBatch(batch))) return false;
        batch.clear();
      }
      if (!more.value()) break;
    }
    DoneInfo done;
    done.affected_rows = stream->affected_rows();
    done.rows_returned = stream->profile().rows_returned;
    done.path = stream->profile().path;
    done.plan_micros = stream->profile().plan_micros;
    done.total_micros = stream->profile().total_micros;
    return reply(FrameType::kDone, EncodeDone(done));
  };

  while (true) {
    // Waiting for the next request is the idle state: drain cuts sessions
    // here immediately, and the idle deadline reclaims dead peers.
    if (!read_request(
            Deadline::AfterMillisOrInfinite(options_.read_deadline_ms))) {
      return;
    }
    slot->in_statement.store(true, std::memory_order_release);
    request_timer.Restart();
    request_recorded = false;
    bool session_over = false;
    switch (frame.type) {
      case FrameType::kQuery: {
        std::string sql;
        std::vector<Datum> params;
        if (!DecodeQuery(Slice(frame.payload), &sql, &params)) {
          session_over = true;
          break;
        }
        auto stream = session.ExecuteStreaming(sql, params);
        if (!stream.ok()) {
          session_over =
              !reply(FrameType::kError, EncodeError(stream.status()));
          break;
        }
        session_over = !stream_result(stream.value().get());
        break;
      }
      case FrameType::kPrepare: {
        Slice in(frame.payload);
        std::string sql;
        if (!GetString(&in, &sql) || !in.empty()) {
          session_over = true;
          break;
        }
        auto prepared = session.Prepare(sql);
        if (!prepared.ok()) {
          session_over =
              !reply(FrameType::kError, EncodeError(prepared.status()));
          break;
        }
        const uint64_t id = next_stmt_id++;
        stmts[id] = prepared.value();
        session_over = !reply(
            FrameType::kPrepared,
            EncodePrepared(
                id, static_cast<uint32_t>(prepared.value()->param_count()),
                prepared.value()->columns()));
        break;
      }
      case FrameType::kExecute: {
        uint64_t id = 0;
        std::vector<Datum> params;
        if (!DecodeExecute(Slice(frame.payload), &id, &params)) {
          session_over = true;
          break;
        }
        auto it = stmts.find(id);
        if (it == stmts.end()) {
          session_over = !reply(
              FrameType::kError,
              EncodeError(Status::NotFound("no such prepared statement")));
          break;
        }
        auto stream = session.ExecuteStreamingPrepared(it->second, params);
        if (!stream.ok()) {
          session_over =
              !reply(FrameType::kError, EncodeError(stream.status()));
          break;
        }
        session_over = !stream_result(stream.value().get());
        break;
      }
      case FrameType::kCloseStmt: {
        uint64_t id = 0;
        if (!DecodeStmtId(Slice(frame.payload), &id)) {
          session_over = true;
          break;
        }
        stmts.erase(id);
        break;
      }
      case FrameType::kReplSubscribe: {
        uint64_t from_lsn = 0;
        if (!DecodeReplSubscribe(Slice(frame.payload), &from_lsn)) {
          session_over = true;
          break;
        }
        if (options_.role != ServerRole::kPrimary ||
            options_.replication == nullptr) {
          reply(FrameType::kError,
                EncodeError(Status::FailedPrecondition(
                    options_.role != ServerRole::kPrimary
                        ? "replication subscribe on a replica"
                        : "server has no replication source")));
          session_over = true;
          break;
        }
        // The stream is idle-by-design between batches: clear
        // in_statement so a drain's idle sweep cuts the subscriber
        // instead of waiting a full drain budget on it.
        slot->in_statement.store(false, std::memory_order_release);
        Status served = options_.replication->Serve(
            &transport, from_lsn,
            [this] { return state() != ServerState::kRunning; });
        if (!served.ok() && transport.valid()) {
          reply(FrameType::kError, EncodeError(served));
        }
        session_over = true;
        break;
      }
      case FrameType::kBye:
        session_over = true;
        break;
      default:
        session_over = true;  // Client sent a server-only frame.
        break;
    }
    slot->in_statement.store(false, std::memory_order_release);
    record_request();
    if (session_over) return;
    // Graceful drain (or stop): this statement was allowed to finish.
    if (state() != ServerState::kRunning) return;
  }
}

}  // namespace odh::net
