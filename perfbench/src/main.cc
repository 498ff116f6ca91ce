// consensus40 benchmark binary. Runs ONE workload per process:
//
//   perfbench --workload <kv-batched|txn-contended|sweep|chain>
//             --seed <n> --seconds <s> --trace <0|1>
//
// The workload is run in rounds until `--seconds` of host time have been
// spent (at least three rounds). Every round replays the same inputs, so
// its virtual-time figures and counts must come out identical; host-time
// figures are the median over the rounds. The last line of stdout is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 each
// untraced round is followed by the same round under the step tracer, and
// the metrics are the per-layer ones. Exit code 0 iff every output check
// passed.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return have_workload && (argc % 2) == 1;
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "kv-batched") return MakeKvBatched(seed);
  if (name == "txn-contended") return MakeTxnContended(seed);
  if (name == "sweep") return MakeSweep(seed);
  if (name == "chain") return MakeChain(seed);
  return nullptr;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Print(bool correct, int64_t attempted, int64_t failed,
           const Metrics& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Compares the deterministic figures of two rounds; reports the first
/// difference into `out`.
/// With `shared_only`, names present in just one of the two are skipped
/// (traced rounds add figures only the tracer can see).
bool SameMetrics(const Metrics& a, const Metrics& b, bool shared_only,
                 std::string* out) {
  if (!shared_only && a.size() != b.size()) {
    *out = "metric sets differ";
    return false;
  }
  for (const auto& [name, m] : a) {
    auto it = b.find(name);
    if (it == b.end() && shared_only) continue;
    if (it == b.end() || it->second.value != m.value) {
      *out = name + ": " + Num(m.value) + " vs " +
             (it == b.end() ? std::string("missing") : Num(it->second.value));
      return false;
    }
  }
  return true;
}

bool SameDet(const Round& a, const Round& b, std::string* out) {
  if (a.attempted != b.attempted || a.failed != b.failed) {
    *out = "attempted/failed differ";
    return false;
  }
  return SameMetrics(a.det, b.det, false, out) &&
         SameMetrics(a.det_layers, b.det_layers, true, out);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <kv-batched|txn-contended|sweep|"
                 "chain> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = Make(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  constexpr size_t kMinRounds = 3;
  const double start = WallNow();
  std::vector<Round> plain, traced;
  bool correct = true;
  std::vector<std::string> errors;
  while (true) {
    plain.push_back(workload->Run(false));
    if (args.trace) traced.push_back(workload->Run(true));
    for (const Round* r : {&plain.back(), args.trace ? &traced.back() : nullptr}) {
      if (r == nullptr || r->correct) continue;
      correct = false;
      errors.insert(errors.end(), r->errors.begin(), r->errors.end());
    }
    std::string diff;
    if (correct && !SameDet(plain.front(), plain.back(), &diff)) {
      correct = false;
      errors.push_back("non-deterministic round: " + diff);
    }
    if (correct && args.trace && !SameDet(plain.front(), traced.back(), &diff)) {
      correct = false;
      errors.push_back("traced round differs from untraced: " + diff);
    }
    std::fprintf(stderr,
                 "perfbench %s seed=%llu round %zu: setup %.3fs timed %.3fs "
                 "ops %lld\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), plain.size(),
                 plain.back().setup_s, plain.back().timed_s,
                 static_cast<long long>(plain.back().attempted));
    if (!correct) break;
    if (plain.size() >= kMinRounds && WallNow() - start >= args.seconds) break;
  }

  int64_t attempted = 0, failed = 0;
  for (const auto* rounds : {&plain, &traced}) {
    for (const Round& r : *rounds) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }

  std::vector<double> timed, setup;
  for (const Round& r : plain) {
    timed.push_back(r.timed_s);
    setup.push_back(r.setup_s);
  }
  const double ops = static_cast<double>(plain.front().attempted);

  Metrics metrics;
  if (!args.trace) {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    metrics["wall_us_per_op"] = {Median(timed) / ops * 1e6, "us"};
    metrics["setup_s"] = {Median(setup), "s"};
    metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                              "MB"};
    for (const auto& [name, m] : plain.front().det) metrics[name] = m;
  } else {
    // Counts and virtual times are equal in every round (checked above);
    // host-time figures are the median over the traced rounds.
    for (const auto& [name, unit] : PerLayerCatalog()) {
      std::vector<double> values;
      for (const Round& r : traced) {
        auto it = r.host_layers.find(name);
        if (it != r.host_layers.end()) values.push_back(it->second.value);
      }
      auto det = traced.front().det_layers.find(name);
      if (det != traced.front().det_layers.end()) {
        values = {det->second.value};
      }
      metrics[name] = {values.empty() ? 0.0 : Median(values), unit};
    }
    std::vector<double> traced_timed;
    for (const Round& r : traced) traced_timed.push_back(r.timed_s);
    metrics["trace.overhead"] = {Median(traced_timed) / Median(timed), "x"};
  }
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      correct = false;
      errors.push_back(name + " is not finite");
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  Print(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
