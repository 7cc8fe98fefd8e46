// Reproduces paper Table 1: "The batch structures vs. data sources and
// operations" — not a performance table but the data-model contract. This
// bench ingests each of the four source classes, then reports which batch
// structure actually served ingestion, a slice query and a historical
// query (after reorganization for the low-frequency rows).

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/odh.h"

namespace odh::bench {
namespace {

using core::OdhOptions;
using core::OdhSystem;
using core::OperationalRecord;

struct ClassSetup {
  const char* label;
  Timestamp interval;
  bool regular;
  double jitter_fraction;  // Relative timestamp jitter.
};

int Run(int argc, char** argv) {
  PrintHeader("ODH data model: batch structure selection",
              "Table 1 (batch structures vs data sources and operations)",
              "Each source class ingested, flushed and reorganized; the "
              "structures that hold its data are reported.");

  const ClassSetup classes[] = {
      {"Regular high frequency", kMicrosPerSecond / 50, true, 0.0},
      {"Irregular high frequency", kMicrosPerSecond / 50, false, 0.5},
      {"Regular low frequency", 15 * kMicrosPerMinute, true, 0.0},
      {"Irregular low frequency", 23 * kMicrosPerMinute, false, 0.5},
  };

  TablePrinter table(
      {"Data Source", "Ingestion", "Slice Query", "Historical Query"});
  for (const ClassSetup& setup : classes) {
    OdhOptions options;
    options.batch_size = 32;
    OdhSystem odh(options);
    int type = odh.DefineSchemaType("t", {"v"}).value();
    ODH_CHECK_OK(odh.RegisterSource(1, type, setup.interval, setup.regular));

    Timestamp ts = 0;
    uint64_t state = 12345;
    for (int i = 0; i < 64; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      double jitter = setup.jitter_fraction *
                      (static_cast<double>(state >> 40) / (1 << 24) - 0.5);
      ts += static_cast<Timestamp>(
          static_cast<double>(setup.interval) * (1.0 + jitter));
      ODH_CHECK_OK(odh.Ingest(OperationalRecord{1, ts, {1.0 * i}}));
    }
    ODH_CHECK_OK(odh.FlushAll());

    auto structure_holding_data = [&]() -> std::string {
      std::string out;
      if (odh.store()->rts_stats(type).point_count > 0) out += "RTS ";
      if (odh.store()->irts_stats(type).point_count > 0) out += "IRTS ";
      if (odh.store()->mg_stats(type).point_count > 0) out += "MG ";
      if (!out.empty()) out.pop_back();
      return out;
    };

    std::string ingestion = structure_holding_data();
    std::string slice = ingestion;  // Slice queries read what ingest wrote.
    // Historical queries on low-frequency sources read per-source
    // structures after the reorganizer runs (paper Table 1).
    ODH_CHECK_OK(odh.Reorganize(type, kMaxTimestamp).status());
    std::string historical = structure_holding_data();

    table.AddRow({setup.label, ingestion, slice, historical});
  }
  table.Print("Table 1 — structures used per source class");
  std::printf(
      "\nExpected: high-frequency rows stay RTS/IRTS throughout;\n"
      "low-frequency rows ingest and slice from MG and read history from\n"
      "RTS (regular) or IRTS (irregular) after reorganization.\n");
  return 0;
}

}  // namespace
}  // namespace odh::bench

int main(int argc, char** argv) { return odh::bench::Run(argc, argv); }
