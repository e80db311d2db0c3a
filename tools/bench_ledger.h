// The one bench ledger format. Every bench producer (bench/kernel_microbench,
// bench/des_queue_bench, bench/fleet_scale, tools/ioc_loadgen) writes its
// BENCH_*.json through write_ledger(); bench_check validates and gates that
// shape, and doc_check verifies that every `ioc.bench.*` tag the docs quote
// is kLedgerSchema — so a format rename (or a doc typo) fails CI instead of
// silently rotting either side.
//
// Artifact: {"schema", "threads_available", "results": [row, ...]}, each row
// {"layer", "name", "metric", "value", "unit", "better", "clock"} plus any
// numeric extra fields, which readers may use and the gate ignores.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace ioc::bench {

inline constexpr std::string_view kLedgerSchema = "ioc.bench.ledger/v1";

/// One gated number. (name, metric) is the row's key within an artifact;
/// `layer` names the subsystem measured (md, sp, des, fed, svc).
struct LedgerRow {
  std::string layer;
  std::string name;
  std::string metric;
  double value = 0;
  std::string unit;
  /// Direction of improvement: a regression is growth for lower-is-better
  /// metrics (latency, ns/op) and shrinkage for higher-is-better ones
  /// (throughput).
  bool higher_is_better = false;
  /// Simulated-time metrics reproduce bit-for-bit under a fixed seed on any
  /// machine; wall-clock ones are gated only where they were recorded.
  bool sim_clock = false;
  std::vector<std::pair<std::string, double>> extra;
};

/// Write `rows` as a ledger artifact at `path`; `tool` prefixes messages.
inline bool write_ledger(const std::string& path,
                         const std::vector<LedgerRow>& rows,
                         const char* tool) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"schema\": \"%.*s\",\n  \"threads_available\": %u,\n"
               "  \"results\": [\n",
               static_cast<int>(kLedgerSchema.size()), kLedgerSchema.data(),
               std::max(1u, std::thread::hardware_concurrency()));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LedgerRow& r = rows[i];
    std::fprintf(f,
                 "    {\"layer\": \"%s\", \"name\": \"%s\", \"metric\": "
                 "\"%s\", \"value\": %.10g, \"unit\": \"%s\", \"better\": "
                 "\"%s\", \"clock\": \"%s\"",
                 r.layer.c_str(), r.name.c_str(), r.metric.c_str(), r.value,
                 r.unit.c_str(), r.higher_is_better ? "higher" : "lower",
                 r.sim_clock ? "sim" : "wall");
    for (const auto& [key, v] : r.extra) {
      std::fprintf(f, ", \"%s\": %.10g", key.c_str(), v);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu results)\n", path.c_str(), rows.size());
  return true;
}

}  // namespace ioc::bench
