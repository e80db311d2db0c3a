// bench_check: validates the machine-readable bench artifacts CI keeps
// honest the same way doc_check keeps the docs honest. Every producer writes
// the one ledger format of bench_ledger.h (schema ioc.bench.ledger/v1):
// a non-empty `results` array of rows keyed by (name, metric), each with a
// layer, a finite value >= 0, a unit, a direction (`better`: lower|higher)
// and a clock (sim|wall).
//
// With --baseline it additionally gates the fresh artifact against a
// committed baseline, row by row:
//   - a baseline row the fresh run no longer has is a finding (coverage
//     lost) — so the coverage a baseline records (a threads=1 and a
//     threads>1 point per kernel, heap and ladder per DES point, 1-shard and
//     multi-shard fleet tiers, a >= 256-connection svc row) is enforced by
//     the committed rows themselves; new fresh-only rows are fine;
//   - a unit that differs between the two is a finding;
//   - a value that moved the wrong way (per the baseline row's `better`) by
//     more than --max-regression percent (default 15) is a finding;
//   - a zero baseline cannot gate by percentage: a lower-is-better row must
//     stay within an absolute 1.0 of it, a higher-is-better one has nothing
//     left to lose.
// --sim-only skips the value comparison of wall-clock rows (machine-
// dependent; compared only on the runner that recorded them) while
// sim-clock rows, coverage and units stay gated. --update-baseline rewrites
// the baseline file from a fresh artifact that validated — the escape hatch
// after an intentional change.
//
// usage: bench_check [--baseline FILE] [--max-regression PCT] [--sim-only]
//                    [--update-baseline] <BENCH_*.json>
// exit 0 clean, 1 findings, 2 usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_ledger.h"
#include "trace/json.h"

namespace {

using ioc::trace::json::Value;
using RowKey = std::pair<std::string, std::string>;  // (name, metric)

/// Absolute allowance for a lower-is-better row whose baseline is zero.
constexpr double kZeroAllowance = 1.0;

bool read_file(const std::string& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

RowKey key_of(const Value& row) {
  return {row.str_or("name"), row.str_or("metric")};
}

/// The one validator. Appends findings prefixed with `label`; returns true
/// when the artifact is sound enough to gate.
bool validate(const Value& root, const std::string& label,
              std::vector<std::string>* findings) {
  const std::size_t before = findings->size();
  auto fail = [&](const std::string& msg) {
    findings->push_back(label + ": " + msg);
  };
  if (!root.is_object()) {
    fail("top level is not an object");
    return false;
  }
  const std::string schema = root.str_or("schema");
  if (schema != ioc::bench::kLedgerSchema) {
    fail("unknown schema '" + schema + "'");
    return false;
  }
  if (root.num_or("threads_available") < 1) {
    fail("threads_available must be >= 1");
  }
  const Value* results = root.find("results");
  if (results == nullptr || !results->is_array() || results->array.empty()) {
    fail("'results' must be a non-empty array");
    return false;
  }
  std::map<RowKey, std::size_t> seen;
  for (std::size_t i = 0; i < results->array.size(); ++i) {
    const Value& r = results->array[i];
    const std::string at = "results[" + std::to_string(i) + "]";
    if (!r.is_object()) {
      fail(at + " is not an object");
      continue;
    }
    for (const char* field : {"layer", "name", "metric", "unit"}) {
      if (r.str_or(field).empty()) fail(at + " lacks a '" + field + "'");
    }
    const Value* v = r.find("value");
    if (v == nullptr || !v->is_number() || !std::isfinite(v->number) ||
        v->number < 0) {
      fail(at + " value must be a finite number >= 0");
    }
    const std::string better = r.str_or("better");
    if (better != "lower" && better != "higher") {
      fail(at + " better must be 'lower' or 'higher', got '" + better + "'");
    }
    const std::string clock = r.str_or("clock");
    if (clock != "sim" && clock != "wall") {
      fail(at + " clock must be 'sim' or 'wall', got '" + clock + "'");
    }
    const auto [it, inserted] = seen.emplace(key_of(r), i);
    if (!inserted) {
      fail(at + " repeats ('" + it->first.first + "', '" + it->first.second +
           "') of results[" + std::to_string(it->second) + "]");
    }
  }
  return findings->size() == before;
}

/// The one gate: every baseline row must still exist with the same unit and
/// must not have moved the wrong way past the allowance. Findings are
/// prefixed with `label`.
void compare_to_baseline(const Value& fresh, const Value& baseline,
                         double max_regression_pct, bool sim_only,
                         const std::string& label,
                         std::vector<std::string>* findings) {
  auto fail = [&](const std::string& msg) {
    findings->push_back(label + ": " + msg);
  };
  std::map<RowKey, const Value*> fresh_rows;
  for (const Value& r : fresh.find("results")->array) {
    fresh_rows[key_of(r)] = &r;
  }
  const double allowance = 1.0 + max_regression_pct / 100.0;
  for (const Value& b : baseline.find("results")->array) {
    const RowKey key = key_of(b);
    const std::string id = "'" + key.first + "' " + key.second;
    const auto it = fresh_rows.find(key);
    if (it == fresh_rows.end()) {
      fail("baseline row " + id +
           " is missing from the fresh run (coverage lost)");
      continue;
    }
    const Value& f = *it->second;
    const std::string unit = b.str_or("unit");
    if (f.str_or("unit") != unit) {
      fail(id + " unit changed from '" + unit + "' to '" + f.str_or("unit") +
           "'");
      continue;
    }
    if (sim_only && b.str_or("clock") == "wall") continue;
    const bool lower_is_better = b.str_or("better") == "lower";
    const double base = b.num_or("value");
    const double got = f.num_or("value");
    char buf[256];
    if (base == 0) {
      if (lower_is_better && got > kZeroAllowance) {
        std::snprintf(buf, sizeof(buf),
                      "%s regressed from a zero baseline: 0 -> %.10g %s "
                      "(allowed absolute delta %.1f)",
                      id.c_str(), got, unit.c_str(), kZeroAllowance);
        fail(buf);
      }
      continue;
    }
    const bool regressed =
        lower_is_better ? got > base * allowance : got * allowance < base;
    if (regressed) {
      std::snprintf(buf, sizeof(buf),
                    "%s regressed %.1f%%: %.10g -> %.10g %s (allowed %.0f%%)",
                    id.c_str(),
                    lower_is_better ? (got / base - 1.0) * 100.0
                                    : (1.0 - got / base) * 100.0,
                    base, got, unit.c_str(), max_regression_pct);
      fail(buf);
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_check [--baseline FILE] [--max-regression PCT] "
               "[--sim-only] [--update-baseline] <BENCH_*.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fresh_path;
  std::string baseline_path;
  double max_regression_pct = 15.0;
  bool update_baseline = false;
  bool sim_only = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(arg, "--max-regression") == 0 && i + 1 < argc) {
      max_regression_pct = std::atof(argv[++i]);
      if (max_regression_pct <= 0) return usage();
    } else if (std::strcmp(arg, "--sim-only") == 0) {
      sim_only = true;
    } else if (std::strcmp(arg, "--update-baseline") == 0) {
      update_baseline = true;
    } else if (arg[0] == '-') {
      return usage();
    } else if (fresh_path.empty()) {
      fresh_path = arg;
    } else {
      return usage();
    }
  }
  if (fresh_path.empty()) return usage();
  if (update_baseline && baseline_path.empty()) {
    std::fprintf(stderr,
                 "bench_check: --update-baseline needs --baseline FILE\n");
    return 2;
  }

  std::string text;
  if (!read_file(fresh_path, &text)) {
    std::fprintf(stderr, "bench_check: cannot read %s\n", fresh_path.c_str());
    return 1;
  }
  Value root;
  std::string error;
  if (!ioc::trace::json::parse(text, &root, &error)) {
    std::fprintf(stderr, "bench_check: %s: %s\n", fresh_path.c_str(),
                 error.c_str());
    return 1;
  }

  std::vector<std::string> findings;
  const bool fresh_ok = validate(root, fresh_path, &findings);

  if (!baseline_path.empty() && !update_baseline) {
    std::string base_text;
    Value base_root;
    if (!read_file(baseline_path, &base_text)) {
      findings.push_back("cannot read baseline " + baseline_path);
    } else if (!ioc::trace::json::parse(base_text, &base_root, &error)) {
      findings.push_back(baseline_path + ": " + error);
    } else if (validate(base_root, baseline_path, &findings) && fresh_ok) {
      compare_to_baseline(root, base_root, max_regression_pct, sim_only,
                          fresh_path, &findings);
    }
  }

  for (const auto& f : findings) {
    std::fprintf(stderr, "bench_check: %s\n", f.c_str());
  }
  if (!findings.empty()) return 1;

  if (update_baseline) {
    std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.good()) {
      std::fprintf(stderr, "bench_check: cannot write baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    std::printf("bench_check: baseline %s updated from %s\n",
                baseline_path.c_str(), fresh_path.c_str());
    return 0;
  }

  std::printf("bench_check: %s ok (%zu results%s)\n", fresh_path.c_str(),
              root.find("results")->array.size(),
              baseline_path.empty() ? "" : ", baseline compared");
  return 0;
}
