// Client/server query throughput: N concurrent TCP clients hammer one
// historian server with prepared statements over the wire protocol, for
// client counts 1 / 4 / 16 / 64 and three query shapes:
//
//   point      one-sample lookup (id + exact ts)        -- latency-bound
//   range      one source's recent window               -- streaming-bound
//   aggregate  COUNT/AVG over one source (pushdown)     -- summary-bound
//
// Reported per (clients, shape): QPS and p50/p95/p99 latency. This is the
// concurrency story the paper's historian needs beyond single-process
// embedding: session admission, per-connection prepared statements and
// chunked result streaming, all through odh_serverd's server library.
//
//   build/bench/bench_server_clients [scale] [--smoke]
//
// Writes BENCH_server.json. `--smoke` (CI) shrinks the dataset and stops
// at 4 clients.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "benchfw/json_report.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/odh.h"
#include "core/replica.h"
#include "net/client.h"
#include "net/replication.h"
#include "net/server.h"

namespace odh::bench {
namespace {

using benchfw::JsonWriter;

constexpr int kSources = 32;

struct QueryShape {
  const char* name;
  const char* sql;  // One `?` parameter: the source id.
};

constexpr QueryShape kShapes[] = {
    {"point",
     "SELECT temperature FROM env_v WHERE id = ? AND ts = "
     "'1970-01-01 00:01:00'"},
    {"range",
     "SELECT ts, temperature, wind FROM env_v WHERE id = ? AND "
     "ts BETWEEN '1970-01-01 00:00:30' AND '1970-01-01 00:01:30'"},
    {"aggregate",
     "SELECT COUNT(*), AVG(temperature), MAX(wind) FROM env_v "
     "WHERE id = ?"},
};

struct ShapeResult {
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  int64_t queries = 0;
  int64_t errors = 0;
};

double PercentileMs(std::vector<double>* micros, double p) {
  if (micros->empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(micros->size()));
  if (idx >= micros->size()) idx = micros->size() - 1;
  std::nth_element(micros->begin(), micros->begin() + idx, micros->end());
  return (*micros)[idx] / 1000.0;
}

/// `clients` threads, each with its own connection and prepared handle,
/// each running `per_client` executions round-robin over the sources.
ShapeResult RunShape(int port, const QueryShape& shape, int clients,
                     int per_client,
                     const net::ClientOptions& copts = {}) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<int64_t> errors{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([t, port, &shape, per_client, &latencies, &errors,
                          &copts] {
      auto client = net::Client::Connect("127.0.0.1", port, copts);
      if (!client.ok()) {
        errors += per_client;
        return;
      }
      auto stmt = (*client)->Prepare(shape.sql);
      if (!stmt.ok()) {
        errors += per_client;
        return;
      }
      latencies[t].reserve(per_client);
      for (int q = 0; q < per_client; ++q) {
        int64_t id = 1 + (t + q) % kSources;
        Stopwatch timer;
        auto result = (*client)->Execute(*stmt, {Datum::Int64(id)});
        if (!result.ok()) {
          ++errors;
          continue;
        }
        latencies[t].push_back(static_cast<double>(timer.ElapsedMicros()));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  double seconds = wall.ElapsedSeconds();

  std::vector<double> merged;
  for (const auto& per_thread : latencies) {
    merged.insert(merged.end(), per_thread.begin(), per_thread.end());
  }
  ShapeResult r;
  r.queries = static_cast<int64_t>(merged.size());
  r.errors = errors.load();
  r.qps = seconds > 0 ? static_cast<double>(merged.size()) / seconds : 0;
  r.p50_ms = PercentileMs(&merged, 0.50);
  r.p95_ms = PercentileMs(&merged, 0.95);
  r.p99_ms = PercentileMs(&merged, 0.99);
  return r;
}

/// Fault-mode leg: the same workload twice, with zero injected faults.
/// "off" disables every deadline and the retry machinery outright; "armed"
/// runs the defaults plus an attached-but-quiet FaultPolicy, so each
/// socket op pays the full hook + deadline bookkeeping. The QPS delta is
/// the price of the fault-tolerance plumbing on the fault-free fast path.
void RunFaultModeSection(core::OdhSystem* odh, JsonWriter* json, bool smoke) {
  const int clients = smoke ? 2 : 4;
  const int per_client = smoke ? 40 : 200;
  const QueryShape& shape = kShapes[1];  // range: streaming-bound.

  auto run_once = [&](const net::ServerOptions& sopts,
                      const net::ClientOptions& copts) {
    net::HistorianServer server(odh->engine(), sopts);
    auto port = server.Start();
    ODH_CHECK_OK(port.status());
    ShapeResult r = RunShape(*port, shape, clients, per_client, copts);
    server.Stop();
    return r;
  };

  net::ServerOptions server_off;
  server_off.handshake_deadline_ms = 0;
  server_off.read_deadline_ms = 0;
  server_off.write_deadline_ms = 0;
  net::ClientOptions client_off;
  client_off.retry.connect_timeout_ms = 0;
  client_off.retry.rpc_deadline_ms = 0;
  client_off.retry.idempotency = net::IdempotencyClass::kNone;

  net::FaultPolicy quiet(/*seed=*/1);  // Consulted every op; never fires.
  net::ServerOptions server_armed;     // Default deadlines.
  server_armed.fault_policy = &quiet;
  net::ClientOptions client_armed;     // Default deadlines + retry policy.
  client_armed.fault_policy = &quiet;

  ShapeResult base = run_once(server_off, client_off);
  ShapeResult armed = run_once(server_armed, client_armed);
  double overhead_pct =
      base.qps > 0 ? (base.qps - armed.qps) / base.qps * 100.0 : 0.0;

  TablePrinter table({"mode", "QPS", "p50 ms", "p99 ms", "errors"});
  table.AddRow({"deadlines off", TablePrinter::FormatCount(base.qps),
                TablePrinter::FormatDouble(base.p50_ms, 2),
                TablePrinter::FormatDouble(base.p99_ms, 2),
                std::to_string(base.errors)});
  table.AddRow({"armed, 0 faults", TablePrinter::FormatCount(armed.qps),
                TablePrinter::FormatDouble(armed.p50_ms, 2),
                TablePrinter::FormatDouble(armed.p99_ms, 2),
                std::to_string(armed.errors)});
  table.Print("Timeout machinery overhead (range shape, zero faults)");
  std::printf("Fault-machinery overhead: %.1f%% QPS\n\n", overhead_pct);

  json->Key("fault_mode");
  json->BeginObject();
  json->KeyValue("clients", static_cast<int64_t>(clients));
  json->KeyValue("queries_per_client", static_cast<int64_t>(per_client));
  json->KeyValue("shape", shape.name);
  json->KeyValue("qps_deadlines_off", base.qps);
  json->KeyValue("qps_armed_zero_faults", armed.qps);
  json->KeyValue("overhead_pct", overhead_pct);
  json->KeyValue("injected_faults", static_cast<int64_t>(0));
  json->EndObject();
}

/// Read-replica scale-out leg: one primary keeps ingesting while 1/2/4
/// replicas tail its WAL and serve the aggregate shape read-only. Reported
/// per replica count: aggregate QPS across all replicas (the scale-out
/// curve) and the staleness distribution sampled from the replicas' lag
/// watermarks during the run.
void RunReplicationSection(core::OdhSystem* primary, int points,
                           JsonWriter* json, bool smoke) {
  const std::vector<int> replica_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const int clients_per_replica = 2;
  const int per_client = smoke ? 30 : 150;
  const QueryShape& shape = kShapes[2];  // aggregate: replica-friendly.

  net::ReplicationSource source(primary->store());
  net::ServerOptions primary_options;
  primary_options.role = net::ServerRole::kPrimary;
  primary_options.replication = &source;
  net::HistorianServer primary_server(primary->engine(), primary_options);
  auto primary_port = primary_server.Start();
  ODH_CHECK_OK(primary_port.status());

  TablePrinter table({"replicas", "agg QPS", "stale p50 us", "stale p95 us",
                      "stale p99 us", "errors"});
  json->Key("replication");
  json->BeginArray();
  for (int replicas : replica_counts) {
    // Build the fleet: replica system + applier + tailing client + server.
    struct Replica {
      std::unique_ptr<core::OdhSystem> odh;
      std::unique_ptr<core::ReplicaApplier> applier;
      std::unique_ptr<net::ReplicationClient> tail;
      std::unique_ptr<net::HistorianServer> server;
      int port = 0;
    };
    std::vector<Replica> fleet(replicas);
    for (Replica& r : fleet) {
      r.odh = std::make_unique<core::OdhSystem>();
      int type =
          r.odh->DefineSchemaType("env", {"temperature", "wind"}).value();
      for (SourceId id = 1; id <= kSources; ++id) {
        ODH_CHECK_OK(r.odh->RegisterSource(id, type, kMicrosPerSecond,
                                           /*regular=*/true));
      }
      r.applier = std::make_unique<core::ReplicaApplier>(r.odh->store());
      r.tail = std::make_unique<net::ReplicationClient>(
          "127.0.0.1", *primary_port, r.applier.get());
      ODH_CHECK_OK(r.tail->Start());
      net::ExposeReplicationLag(r.applier.get(), r.odh->engine());
      net::ServerOptions ro;
      ro.role = net::ServerRole::kReplica;
      r.server = std::make_unique<net::HistorianServer>(r.odh->engine(), ro);
      auto port = r.server->Start();
      ODH_CHECK_OK(port.status());
      r.port = *port;
      // Bootstrap before the clock starts: the leg measures steady-state
      // read scale-out, not snapshot shipping.
      while (!r.tail->WaitForLsn(primary->store()->durable_lsn(), 100)) {
      }
    }

    // Writes keep flowing while the read fleet is hammered, so the
    // staleness samples reflect a live system, not a quiesced one.
    std::atomic<bool> stop_ingest{false};
    std::thread ingester([&] {
      // Resume past everything already ingested (earlier sections and
      // earlier fleet sizes share this primary): per-source timestamps
      // must be non-decreasing.
      int64_t i =
          primary->store()->MaxIngestedTimestamp() / kMicrosPerSecond + 1;
      while (!stop_ingest.load(std::memory_order_relaxed)) {
        for (SourceId id = 1; id <= kSources; ++id) {
          ODH_CHECK_OK(primary->Ingest({id, i * kMicrosPerSecond,
                                        {20.0 + id + 0.01 * i, 0.5 * id}}));
        }
        ODH_CHECK_OK(primary->FlushAll());
        ++i;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    std::atomic<bool> stop_sampling{false};
    std::vector<double> staleness_us;
    std::thread sampler([&] {
      while (!stop_sampling.load(std::memory_order_relaxed)) {
        for (const Replica& r : fleet) {
          staleness_us.push_back(
              static_cast<double>(r.applier->staleness_micros()));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    // One RunShape per replica, concurrently: aggregate QPS is total
    // queries over the longest replica's wall time (the fleet's rate).
    std::vector<ShapeResult> results(replicas);
    Stopwatch wall;
    std::vector<std::thread> runners;
    for (int i = 0; i < replicas; ++i) {
      runners.emplace_back([&, i] {
        results[i] = RunShape(fleet[i].port, shape, clients_per_replica,
                              per_client);
      });
    }
    for (std::thread& t : runners) t.join();
    const double seconds = wall.ElapsedSeconds();
    stop_sampling.store(true, std::memory_order_relaxed);
    stop_ingest.store(true, std::memory_order_relaxed);
    sampler.join();
    ingester.join();

    int64_t queries = 0, errors = 0;
    for (const ShapeResult& r : results) {
      queries += r.queries;
      errors += r.errors;
    }
    const double agg_qps =
        seconds > 0 ? static_cast<double>(queries) / seconds : 0;
    // PercentileMs reports milliseconds; staleness stays in microseconds.
    const double p50 = PercentileMs(&staleness_us, 0.50) * 1000.0;
    const double p95 = PercentileMs(&staleness_us, 0.95) * 1000.0;
    const double p99 = PercentileMs(&staleness_us, 0.99) * 1000.0;

    table.AddRow({std::to_string(replicas), TablePrinter::FormatCount(agg_qps),
                  TablePrinter::FormatCount(p50), TablePrinter::FormatCount(p95),
                  TablePrinter::FormatCount(p99), std::to_string(errors)});
    json->BeginObject();
    json->KeyValue("replicas", static_cast<int64_t>(replicas));
    json->KeyValue("clients_per_replica",
                   static_cast<int64_t>(clients_per_replica));
    json->KeyValue("shape", shape.name);
    json->KeyValue("aggregate_qps", agg_qps);
    json->KeyValue("staleness_p50_us", p50);
    json->KeyValue("staleness_p95_us", p95);
    json->KeyValue("staleness_p99_us", p99);
    json->KeyValue("queries", queries);
    json->KeyValue("errors", errors);
    json->EndObject();

    for (Replica& r : fleet) {
      r.tail->Stop();
      r.server->Stop();
    }
  }
  json->EndArray();
  table.Print("Read-replica scale-out (aggregate shape, live ingest)");
  primary_server.Stop();
}

int Run(int argc, char** argv) {
  const double scale = ScaleFromArgs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  PrintHeader("Historian server: concurrent client scaling",
              "client/server extension (paper deploys ODH inside Informix; "
              "this measures the standalone server front door)",
              smoke ? "Smoke mode: tiny dataset, 1-4 clients."
                    : "32 sources; prepared statements over TCP; "
                      "QPS and latency percentiles per client count.");

  // One historian: 32 sensors at 1 Hz. Scale stretches the recorded span.
  const int points =
      std::max(120, static_cast<int>((smoke ? 240 : 1800) * scale));
  core::OdhSystem odh;
  int type = odh.DefineSchemaType("env", {"temperature", "wind"}).value();
  for (SourceId id = 1; id <= kSources; ++id) {
    ODH_CHECK_OK(odh.RegisterSource(id, type, kMicrosPerSecond,
                                    /*regular=*/true));
  }
  for (int i = 0; i < points; ++i) {
    for (SourceId id = 1; id <= kSources; ++id) {
      ODH_CHECK_OK(odh.Ingest({id, i * kMicrosPerSecond,
                               {20.0 + id + 0.01 * i, 0.5 * id}}));
    }
  }
  ODH_CHECK_OK(odh.FlushAll());
  std::printf("Dataset: %d sources x %d points\n\n", kSources, points);

  net::ServerOptions options;
  options.max_sessions = 96;
  net::HistorianServer server(odh.engine(), options, odh.metrics());
  auto port = server.Start();
  ODH_CHECK_OK(port.status());

  const std::vector<int> client_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16, 64};
  const int queries_per_client = smoke ? 20 : 100;

  TablePrinter table(
      {"clients", "shape", "QPS", "p50 ms", "p95 ms", "p99 ms", "errors"});
  JsonWriter json;
  json.BeginObject();
  json.KeyValue("bench", "server_clients");
  json.KeyValue("smoke", smoke);
  json.KeyValue("sources", static_cast<int64_t>(kSources));
  json.KeyValue("points_per_source", static_cast<int64_t>(points));
  json.Key("runs");
  json.BeginArray();
  for (int clients : client_counts) {
    for (const QueryShape& shape : kShapes) {
      ShapeResult r = RunShape(*port, shape, clients, queries_per_client);
      table.AddRow({std::to_string(clients), shape.name,
                    TablePrinter::FormatCount(r.qps),
                    TablePrinter::FormatDouble(r.p50_ms, 2),
                    TablePrinter::FormatDouble(r.p95_ms, 2),
                    TablePrinter::FormatDouble(r.p99_ms, 2),
                    std::to_string(r.errors)});
      json.BeginObject();
      json.KeyValue("clients", static_cast<int64_t>(clients));
      json.KeyValue("shape", shape.name);
      json.KeyValue("qps", r.qps);
      json.KeyValue("p50_ms", r.p50_ms);
      json.KeyValue("p95_ms", r.p95_ms);
      json.KeyValue("p99_ms", r.p99_ms);
      json.KeyValue("queries", r.queries);
      json.KeyValue("errors", r.errors);
      json.EndObject();
      if (r.errors > 0) {
        std::printf("WARNING: %lld errors at %d clients / %s\n",
                    static_cast<long long>(r.errors), clients, shape.name);
      }
    }
  }
  json.EndArray();
  json.KeyValue("sessions_rejected", server.sessions_rejected());
  table.Print("Prepared-statement QPS over TCP vs concurrent clients");
  server.Stop();

  // Fault-mode leg: measures what the deadline/fault plumbing costs when
  // nothing goes wrong (the acceptance bar is <= 5% QPS).
  RunFaultModeSection(&odh, &json, smoke);

  // Replica scale-out leg: aggregate QPS at 1/2/4 replicas plus staleness
  // percentiles under live ingest.
  RunReplicationSection(&odh, points, &json, smoke);
  json.EndObject();
  if (json.WriteFile("BENCH_server.json")) {
    std::printf("Server data written to BENCH_server.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace odh::bench

int main(int argc, char** argv) { return odh::bench::Run(argc, argv); }
