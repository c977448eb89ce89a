// perfbench: the end-to-end benchmark of prefrep.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest [--seed <n>]
//
// Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  A human-readable
// summary goes to standard error.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"

namespace perfbench {

// Per-process scratch space inside the working directory; removed when
// the run ends.
std::string ScratchDir() {
  static const std::string dir = [] {
    const std::string d =
        ".bench_build/perfbench-tmp-" + std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

namespace {

// Set-up is timed kSetupMinRepeats times before the measured rounds and
// again between rounds, whenever set-up time so far falls below
// kSetupShare of the time since the run began; setup_s is the median
// over the whole run.  A set-up of serve_durable takes about 2 ms, and
// the median of a few set-ups at the start of the process moved by a
// third between sets of runs, with the host's speed at that moment.
constexpr size_t kSetupMinRepeats = 7;
constexpr double kSetupShare = 0.1;

const char* const kWorkloads[] = {"tractable_oneshot", "hard_oneshot",
                                  "serve_durable"};

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "tractable_oneshot") {
    return MakeTractableOneshot();
  }
  if (name == "hard_oneshot") {
    return MakeHardOneshot();
  }
  if (name == "serve_durable") {
    return MakeServeDurable();
  }
  return nullptr;
}

// Units of every metric the benchmark reports.
const std::map<std::string, const char*>& Units() {
  static const std::map<std::string, const char*> units = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"ops_per_s", "1/s"},
      {"check_ms", "ms"},
      {"construct_ms", "ms"},
      {"io.parse_ms", "ms"},
      {"io.problem_mb", "MiB"},
      {"io.ops_parse_us", "us"},
      {"conflicts.graph_ms", "ms"},
      {"conflicts.blocks_ms", "ms"},
      {"conflicts.edges", "count"},
      {"conflicts.blocks", "count"},
      {"conflicts.max_block_facts", "count"},
      {"conflicts.graph_exponent", "ratio"},
      {"classify.schema_us", "us"},
      {"classify.categoricity_ms", "ms"},
      {"classify.categorical_blocks", "count"},
      {"repair.check_ms", "ms"},
      {"repair.hard_check_ms", "ms"},
      {"repair.construct_ms", "ms"},
      {"repair.count_ms", "ms"},
      {"repair.nodes", "count"},
      {"repair.blocks_poly", "count"},
      {"repair.blocks_exhaustive", "count"},
      {"repair.parallel_speedup", "ratio"},
      {"repair.poly_parallel_speedup", "ratio"},
      {"repair.check_exponent", "ratio"},
      {"repair.construct_exponent", "ratio"},
      {"cache.lookups", "count"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.redundant_misses", "count"},
      {"query.cqa_ms", "ms"},
      {"query.answers", "count"},
      {"serve.edit_us", "us"},
      {"serve.query_us", "us"},
      {"serve.parallel_speedup", "ratio"},
      {"serve.blocks_retired", "count"},
      {"serve.cache_entries_erased", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.memo_hits", "count"},
      {"serve.memo_misses", "count"},
      {"persist.append_us", "us"},
      {"persist.sync_us", "us"},
      {"persist.replay_us_per_op", "us"},
      {"persist.wal_bytes", "bytes"},
      {"trace.overhead", "ratio"},
      {"trace.self_share", "ratio"},
  };
  return units;
}

// Peak resident memory of this process image.  VmHWM, not getrusage's
// ru_maxrss, which keeps the peak of the image before exec (the Python
// launcher's).
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void PrintResult(bool correct, const Tally& tally, const Metrics& metrics) {
  for (const std::string& e : tally.first_errors) {
    std::fprintf(stderr, "perfbench: failed: %s\n", e.c_str());
  }
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + Units().at(name) + "\"}";
    first = false;
    std::fprintf(stderr, "  %-30s %14.6g %s\n", name.c_str(), value,
                 Units().at(name));
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int RunUntraced(const std::string& name, uint64_t seed, double seconds) {
  std::vector<double> setup_s;
  double setup_total = 0;
  const int64_t run_start = NowNs();
  auto set_up = [&] {
    const int64_t start = NowNs();
    std::unique_ptr<Workload> w = Make(name);
    w->Setup(seed);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_total += setup_s.back();
    return w;
  };
  // The first set-up builds the workload the rounds run on; the others
  // are timed and dropped.
  std::unique_ptr<Workload> w = set_up();
  while (setup_s.size() < kSetupMinRepeats) {
    set_up();
  }
  Tracer off(false);
  Tally tally;
  {
    RoundTimes warm;  // caches fill, lazy set-up finishes
    w->RunRound(off, tally, warm);
  }
  std::vector<double> check, construct, throughput;
  int rounds = 0;
  const int64_t start = NowNs();
  while (rounds < 3 ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    RoundTimes t;
    w->RunRound(off, tally, t);
    check.push_back(Mean(t.check_ms));
    construct.push_back(Mean(t.construct_ms));
    throughput.push_back(static_cast<double>(t.ops) / (t.op_ms / 1000.0));
    ++rounds;
    while (setup_total <
           kSetupShare * static_cast<double>(NowNs() - run_start) / 1e9) {
      set_up();
    }
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %d rounds and %zu set-ups in %.1f s\n",
               name.c_str(), static_cast<unsigned long long>(seed), rounds,
               setup_s.size(), static_cast<double>(NowNs() - start) / 1e9);
  Metrics m;
  m["setup_s"] = Median(setup_s);
  m["peak_rss_mb"] = PeakRssMb();
  m["ops_per_s"] = Median(throughput);
  m["check_ms"] = Median(check);
  m["construct_ms"] = Median(construct);
  PrintResult(tally.wrong == 0, tally, m);
  return 0;
}

int RunTraced(const std::string& name, uint64_t seed, double seconds) {
  std::vector<std::unique_ptr<Workload>> all;
  Workload* target = nullptr;
  for (const char* n : kWorkloads) {
    all.push_back(Make(n));
    all.back()->Setup(seed);
    if (name == n) {
      target = all.back().get();
    }
  }
  Tally tally;
  Tracer off(false);
  Tracer on(true);
  on.set_tag(target->name());
  {
    RoundTimes warm;
    target->RunRound(off, tally, warm);
  }
  // Alternate untraced and traced rounds so both see the same machine.
  std::vector<double> plain_ms, traced_ms;
  const int64_t start = NowNs();
  while (traced_ms.size() < 3 ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    for (int traced = 0; traced < 2; ++traced) {
      RoundTimes t;
      const int64_t round_start = NowNs();
      target->RunRound(traced ? on : off, tally, t);
      (traced ? traced_ms : plain_ms)
          .push_back(static_cast<double>(NowNs() - round_start) / 1e6);
    }
  }
  Metrics m;
  m["trace.overhead"] = Median(traced_ms) / Median(plain_ms);
  double traced_wall = 0;
  for (double ms : traced_ms) {
    traced_wall += ms;
  }
  double layers = 0, all_self = 0;
  std::fprintf(stderr, "perfbench: %s traced self time per round:\n",
               target->name());
  for (const auto& [layer, ms] : on.LayerSelfMs(target->name())) {
    std::fprintf(stderr, "  %-10s %10.3f ms\n", layer.c_str(),
                 ms / static_cast<double>(traced_ms.size()));
    all_self += ms;
    if (layer != "request") {
      layers += ms;
    }
  }
  m["trace.self_share"] = layers / traced_wall;
  const bool self_fits = all_self <= traced_wall * 1.0001;
  if (!self_fits) {
    std::fprintf(stderr, "perfbench: traced self times exceed wall time\n");
  }
  Tracer probes(true);
  for (const auto& w : all) {
    w->Probe(probes, tally, m);
  }
  for (const auto& [metric, unit] : Units()) {
    if (metric.find('.') != std::string::npos && !m.count(metric)) {
      std::fprintf(stderr, "perfbench: metric %s not measured\n",
                   metric.c_str());
      return 1;
    }
  }
  PrintResult(tally.wrong == 0 && self_fits, tally, m);
  return 0;
}

int RunSelfTest(uint64_t seed) {
  int bad = 0;
  std::vector<std::string> report;
  for (const char* n : kWorkloads) {
    std::unique_ptr<Workload> w = Make(n);
    w->Setup(seed);
    bad += w->SelfTest(report);
  }
  for (const std::string& line : report) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("oracle self-test: %d of %zu cases went the wrong way\n", bad,
              report.size());
  return bad == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tractable_oneshot|hard_oneshot|"
               "serve_durable> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --selftest [--seed <n>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else {
      return Usage();
    }
  }
  int rc = 0;
  if (selftest) {
    rc = RunSelfTest(seed);
  } else if (Make(workload) == nullptr || seconds <= 0 ||
             (trace != 0 && trace != 1)) {
    return Usage();
  } else {
    rc = trace ? RunTraced(workload, seed, seconds)
               : RunUntraced(workload, seed, seconds);
  }
  std::error_code ignored;
  std::filesystem::remove_all(ScratchDir(), ignored);
  return rc;
}
