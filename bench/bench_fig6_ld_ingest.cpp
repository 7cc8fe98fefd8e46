// Reproduces paper Figure 6: insert throughput (a) and CPU rate (b) for the
// 10 LD(i) datasets (sparse low-frequency weather sensors), candidates
// ODH / RDB / MySQL.
//
// Scaling: sensor unit 20000 (paper: 1,000,000), 60 s of simulated data
// per dataset (the paper's 60x-sped-up streams truncated to two hours).
// Expected shape: ODH sustains the offered rate everywhere via MG batching;
// the relational candidates' throughput is higher than on TD (bigger
// records, paper §5.3) but still falls behind ODH and below the offered
// line at large i.

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "bench/bench_util.h"
#include "benchfw/json_report.h"
#include "benchfw/ld_generator.h"
#include "common/logging.h"

namespace odh::bench {
namespace {

using benchfw::IngestMetrics;
using benchfw::IngestRunOptions;
using benchfw::JsonWriter;
using benchfw::LdConfig;
using benchfw::LdGenerator;
using benchfw::OdhTarget;
using benchfw::RelationalTarget;

IngestMetrics RunOne(const LdConfig& config, benchfw::IngestTarget* target,
                     double wall_limit) {
  LdGenerator stream(config);
  ODH_CHECK_OK(target->Setup(stream.info()));
  IngestRunOptions options;
  options.simulated_cores = 8;
  options.wall_time_limit_seconds = wall_limit;
  options.window_seconds = 5.0;
  auto metrics = benchfw::RunIngest(&stream, target, options);
  ODH_CHECK_OK(metrics.status());
  return *metrics;
}

/// Average non-NULL tag values per record (the dp multiplier: the paper
/// counts data points, not records).
double DpPerRecord(const LdConfig& config) {
  LdGenerator gen(config);
  core::OperationalRecord record;
  int64_t present = 0, records = 0;
  while (records < 200 && gen.Next(&record)) {
    for (double v : record.tags) {
      if (!std::isnan(v)) ++present;
    }
    ++records;
  }
  return records > 0 ? static_cast<double>(present) / records : 0;
}

/// Multi-core scaling on the low-frequency (MG-grouped) write path: LD(5)
/// split into disjoint sensor-id partitions, one ingest thread each. Group
/// buffers at partition boundaries may be shared by two threads — the
/// sharded writer serializes them per group, which is exactly the
/// contention this curve exercises.
void RunScalingCurve(int max_threads, int64_t sensor_unit) {
  std::vector<int> curve;
  for (int t = 1; t < max_threads; t *= 2) curve.push_back(t);
  curve.push_back(max_threads);
  const double duration = 60;
  const int64_t total_sensors = sensor_unit * 5;  // LD(5) shape.

  TablePrinter table(
      {"Threads", "Points", "Wall s", "rec/s", "Speedup vs 1T"});
  JsonWriter json;
  json.BeginObject();
  json.KeyValue("bench", "fig6_ld_ingest_threads");
  json.KeyValue("dataset", "LD(5)");
  json.KeyValue("total_sensors", total_sensors);
  json.KeyValue(
      "hardware_concurrency",
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("runs");
  json.BeginArray();
  double base_rate = 0;
  for (int threads : curve) {
    const int64_t per_thread =
        std::max<int64_t>(1, total_sensors / threads);
    std::vector<std::unique_ptr<LdGenerator>> streams;
    std::vector<benchfw::RecordStream*> stream_ptrs;
    for (int t = 0; t < threads; ++t) {
      LdConfig part;
      part.num_sensors = per_thread;
      part.duration_seconds = duration;
      part.seed = static_cast<uint64_t>(9005 + t);
      part.first_id = 1 + t * per_thread;
      streams.push_back(std::make_unique<LdGenerator>(part));
      stream_ptrs.push_back(streams.back().get());
    }
    OdhTarget odh;
    {
      LdConfig all;
      all.num_sensors = per_thread * threads;
      all.duration_seconds = duration;
      ODH_CHECK_OK(odh.Setup(LdGenerator(all).info()));
    }
    IngestRunOptions options;
    options.simulated_cores = 8;
    auto metrics = benchfw::RunIngestThreads(stream_ptrs, &odh, options);
    ODH_CHECK_OK(metrics.status());
    double rate = metrics->Throughput();
    if (threads == 1) base_rate = rate;
    double speedup = base_rate > 0 ? rate / base_rate : 0;
    table.AddRow(
        {std::to_string(threads),
         TablePrinter::FormatCount(static_cast<double>(metrics->points)),
         Fmt("%.3f", metrics->wall_seconds),
         TablePrinter::FormatCount(rate), Fmt("%.2fx", speedup)});
    json.BeginObject();
    json.KeyValue("threads", threads);
    json.KeyValue("points", metrics->points);
    json.KeyValue("wall_seconds", metrics->wall_seconds);
    json.KeyValue("cpu_seconds", metrics->cpu_seconds);
    json.KeyValue("records_per_second", rate);
    json.KeyValue("speedup_vs_1_thread", speedup);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  table.Print("Multi-core LD ingest scaling (MG write path)");
  if (json.WriteFile("BENCH_ld_ingest.json")) {
    std::printf("Scaling data written to BENCH_ld_ingest.json\n");
  }
}

int Run(int argc, char** argv) {
  double scale = ScaleFromArgs(argc, argv);
  int max_threads = ThreadsFromArgs(argc, argv, 1);
  PrintHeader(
      "IoT-X WS1: LD insert throughput and CPU rate",
      "Figure 6 (a: throughput, b: CPU rate) over LD(i), i=1..10",
      "Sensor unit scaled to 20000 (paper: 1,000,000); 60 s of simulated "
      "data; dp/s counts non-NULL tag values per record.");

  const int64_t sensor_unit = static_cast<int64_t>(20000 * scale);
  TablePrinter table({"Dataset", "# Sensors", "Offered dp/s", "ODH dp/s",
                      "ODH CPU", "ODH RT?", "RDB dp/s", "RDB CPU", "RDB RT?",
                      "MySQL dp/s", "MySQL CPU", "MySQL RT?"});
  for (int i = 1; i <= 10; ++i) {
    LdConfig config = LdConfig::Of(i, sensor_unit, /*duration_seconds=*/60);
    double dp_mult = DpPerRecord(config);

    // Each candidate runs alone: its target is destroyed before the next
    // one starts, so no candidate's live heap shapes another's figures.
    IngestMetrics m_odh, m_rdb, m_mysql;
    {
      OdhTarget odh;
      m_odh = RunOne(config, &odh, /*wall_limit=*/0);
    }
    {
      RelationalTarget rdb(relational::EngineProfile::Rdb(), 1000);
      m_rdb = RunOne(config, &rdb, /*wall_limit=*/3);
    }
    {
      RelationalTarget mysql(relational::EngineProfile::MySql(), 1000);
      m_mysql = RunOne(config, &mysql, /*wall_limit=*/3);
    }

    auto rt = [](const IngestMetrics& m) {
      return m.RealTimeFeasible() ? std::string("yes") : std::string("NO");
    };
    table.AddRow(
        {"LD(" + std::to_string(i) + ")",
         TablePrinter::FormatCount(static_cast<double>(config.num_sensors)),
         TablePrinter::FormatCount(m_odh.offered_points_per_second * dp_mult),
         TablePrinter::FormatCount(m_odh.Throughput() * dp_mult),
         Fmt("%.2f%%", m_odh.AvgCpuLoad() * 100), rt(m_odh),
         TablePrinter::FormatCount(m_rdb.Throughput() * dp_mult),
         Fmt("%.2f%%", m_rdb.AvgCpuLoad() * 100), rt(m_rdb),
         TablePrinter::FormatCount(m_mysql.Throughput() * dp_mult),
         Fmt("%.2f%%", m_mysql.AvgCpuLoad() * 100), rt(m_mysql)});
  }
  table.Print("Figure 6 — LD(i) insert throughput & CPU (8 cores sim.)");
  RunScalingCurve(max_threads, sensor_unit / 10);
  std::printf(
      "\nExpected shape: ODH ahead of the relational candidates, but by a\n"
      "smaller factor than on TD (larger records amortize the per-record\n"
      "B-tree cost -- the paper's \"RDB performed surprisingly well on\n"
      "LD\"). At this 1/50 scale the offered rates stay below every\n"
      "candidate's ceiling, so RT stays 'yes'; at paper scale the offered\n"
      "line crosses the relational ceilings first.\n");
  return 0;
}

}  // namespace
}  // namespace odh::bench

int main(int argc, char** argv) { return odh::bench::Run(argc, argv); }
