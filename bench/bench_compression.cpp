// Reproduces the paper's §5.3 compression result: "applying linear
// compression on LD(1) with a maximum deviation of 0.1 from the original
// value ... led to ... an overall compression factor of more than 35
// compared to the sizes produced by the relational databases", and §3's
// claimed 10-100x overall compression with acceptable error bounds.
//
// Three ODH configurations ingest the same LD(1)-scaled dataset: lossless,
// lossy with max deviation 0.1, and lossy 0.5; RDB provides the relational
// reference size. The measured maximum absolute error is verified against
// the bound by re-reading every stored point.

#include <cmath>
#include <map>

#include "bench/bench_util.h"
#include "benchfw/ld_generator.h"
#include "common/logging.h"

namespace odh::bench {
namespace {

using benchfw::LdConfig;
using benchfw::LdGenerator;
using benchfw::RelationalTarget;
using core::CompressionSpec;
using core::OdhOptions;
using core::OdhSystem;

/// Ingests the stream into an OdhSystem with the given compression spec;
/// returns storage bytes and (via *max_error) the measured worst deviation.
uint64_t RunOdh(const LdConfig& config, CompressionSpec spec,
                double* max_error) {
  OdhOptions options;
  options.batch_size = 256;
  OdhSystem odh(options);
  LdGenerator stream(config);
  const auto& info = stream.info();
  int type = odh.DefineSchemaType(info.name, info.tag_names, spec).value();
  for (int64_t s = 0; s < info.num_sources; ++s) {
    ODH_CHECK_OK(odh.RegisterSource(info.first_source_id + s, type,
                                    info.sample_interval, info.regular));
  }
  core::OperationalRecord record;
  while (stream.Next(&record)) ODH_CHECK_OK(odh.Ingest(record));
  ODH_CHECK_OK(odh.FlushAll());
  // Long-term storage state: the reorganizer converts the MG ingest form
  // into per-source RTS/IRTS series, where the paper's linear compression
  // applies (smooth per-sensor signals; MG columns interleave sensors).
  ODH_CHECK_OK(odh.Reorganize(type, kMaxTimestamp).status());

  // Verify the error bound by comparing every stored point against the
  // regenerated original.
  *max_error = 0;
  stream.Reset();
  std::map<std::pair<SourceId, Timestamp>, std::vector<double>> original;
  while (stream.Next(&record)) {
    original[{record.id, record.ts}] = record.tags;
  }
  auto cursor = odh.SliceQuery(type, 0, kMaxTimestamp).value();
  int64_t points = 0;
  while (cursor->Next(&record).value()) {
    auto it = original.find({record.id, record.ts});
    ODH_CHECK(it != original.end());
    for (size_t t = 0; t < record.tags.size(); ++t) {
      bool stored_nan = std::isnan(record.tags[t]);
      bool orig_nan = std::isnan(it->second[t]);
      ODH_CHECK(stored_nan == orig_nan);
      if (!stored_nan) {
        double err = std::fabs(record.tags[t] - it->second[t]);
        if (err > *max_error) *max_error = err;
        ++points;
      }
    }
  }
  ODH_CHECK(points > 0);
  return odh.storage_bytes();
}

int Run(int argc, char** argv) {
  double scale = ScaleFromArgs(argc, argv);
  PrintHeader(
      "ODH compression on LD(1)",
      "Section 5.3 compression note (linear, max deviation 0.1 -> >35x) "
      "and Section 3 (10-100x overall)",
      "LD(1) scaled to 500 sensors x ~100 readings; storage measured "
      "after reorganization; errors re-verified against the originals.");

  // 500 sensors over ~38 simulated minutes: ~100 readings per sensor, the
  // same per-sensor history depth as the paper's LD(1) (2 h at 1/23 s).
  LdConfig config = LdConfig::Of(1, static_cast<int64_t>(500 * scale),
                                 /*duration_seconds=*/2300);

  uint64_t rdb_bytes;
  {
    RelationalTarget rdb(relational::EngineProfile::Rdb(), 1000);
    LdGenerator stream(config);
    ODH_CHECK_OK(rdb.Setup(stream.info()));
    ODH_CHECK_OK(benchfw::RunIngest(&stream, &rdb).status());
    rdb_bytes = rdb.StorageBytes();
  }

  struct Config {
    const char* label;
    CompressionSpec spec;
  };
  CompressionSpec lossless;
  CompressionSpec lossy01;
  lossy01.max_error = 0.1;
  CompressionSpec lossy05;
  lossy05.max_error = 0.5;
  const Config configs[] = {{"ODH lossless", lossless},
                            {"ODH lossy e=0.1", lossy01},
                            {"ODH lossy e=0.5", lossy05}};

  TablePrinter table({"Candidate", "Storage", "vs RDB", "Max abs error"});
  table.AddRow({"RDB", TablePrinter::FormatBytes(
                            static_cast<double>(rdb_bytes)),
                "1.0x", "0 (row storage)"});
  for (const Config& c : configs) {
    double max_error = 0;
    uint64_t bytes = RunOdh(config, c.spec, &max_error);
    ODH_CHECK(max_error <= c.spec.max_error + 1e-9);
    table.AddRow({c.label,
                  TablePrinter::FormatBytes(static_cast<double>(bytes)),
                  Fmt("%.1fx", static_cast<double>(rdb_bytes) /
                                   static_cast<double>(bytes)),
                  Fmt("%.4f", max_error)});
  }
  table.Print("Compression on LD(1) (scaled)");
  std::printf(
      "\nExpected shape: lossless ODH already ~3-4x smaller than RDB (the\n"
      "data-model compression of Table 7); lossy linear compression lands\n"
      "in the paper's 10-100x band (its LD(1) run reached >35x; our\n"
      "synthetic signals carry more timestamp jitter entropy), with the\n"
      "measured max error exactly at the configured bound.\n");
  return 0;
}

}  // namespace
}  // namespace odh::bench

int main(int argc, char** argv) { return odh::bench::Run(argc, argv); }
