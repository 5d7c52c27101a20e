// seco_perfbench: the wire-level serving benchmark (see perfbench/README.md).
//
//   seco_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--git-rev <rev>] [--out-dir <dir>]
//   seco_perfbench --selftest
//
// --trace 0 measures the end-to-end metrics over the wire with tracing off;
// --trace 1 runs the traced passes and reports the per-layer metrics. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/kernels.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr int kSetupRepetitions = 5;
constexpr int kSerialReps = 5;
constexpr double kAttributionTolerance = 0.05;
/// Closed-loop request lists hold this many requests per measured second
/// (more than any workload answers).
constexpr size_t kRequestsPerSecond = 20000;
/// Answers per block of the tail statistic: 10 lie beyond each block's p99.
constexpr size_t kTailBlock = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string git_rev = "unknown";
  std::string out_dir;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (!args->selftest) {
    if (FindWorkload(args->workload) == nullptr) {
      *error = "unknown workload '" + args->workload + "'";
      return false;
    }
    if (!(args->seconds > 0.0) || (args->trace != 0 && args->trace != 1)) {
      *error = "--seconds must be > 0 and --trace 0 or 1";
      return false;
    }
  }
  return true;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Per-layer metrics: the end-to-end metric and workload it should move.
  std::string moves;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Everything a run reports besides its metrics.
struct RunRecord {
  std::map<std::string, std::string> meta;  ///< values already JSON-encoded
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  int64_t attempted = 0;
  int64_t answered = 0;
  int64_t failed = 0;
  int64_t wrong_answers = 0;
};

void Count(const PassResult& pass, RunRecord* record) {
  record->attempted += pass.tally.attempted();
  record->answered += pass.tally.answered();
  record->failed += pass.tally.failed();
  record->wrong_answers += pass.tally.count(Fate::kWrongAnswer);
}

std::string FateSummary(const Tally& t) {
  static const char* names[] = {"answered", "shed",      "expired",
                                "failed",   "cancelled", "transport_error",
                                "wrong_answer"};
  std::string out;
  for (int f = 0; f < 7; ++f) {
    if (!out.empty()) out += " ";
    out += std::string(names[f]) + "=" + std::to_string(t.by_fate[f]);
  }
  return out;
}

void EndToEnd(Stack* stack, const std::vector<RequestSpec>& requests,
              const Oracle& oracle, double seconds, double setup_s,
              RunRecord* record) {
  const WorkloadSpec& w = stack->workload();
  const int64_t calls0 = stack->fixtures().BackendCalls();
  PassResult pass = RunPass(stack, Path::kWire, requests, 0, seconds, oracle);
  const int64_t backend_calls = stack->fixtures().BackendCalls() - calls0;
  Count(pass, record);

  const Tally& t = pass.tally;
  const double answered = static_cast<double>(t.answered());
  const double wall_s = pass.wall_ms / 1000.0;
  std::vector<double> latencies = pass.AnsweredLatencies();
  int64_t within_slo = 0;
  for (double l : latencies) within_slo += l <= w.slo_ms ? 1 : 0;
  const double tail =
      TailPercentileLevel(static_cast<int64_t>(latencies.size()));
  if (tail < 99.0) {
    std::printf("WARNING: only %zu latency samples, so fewer than 10 lie "
                "beyond p99; the tail rule allows p%g\n",
                latencies.size(), tail);
  }

  // Rates, CPU per query and the median latency are medians over the
  // pass's one-second windows; the tail needs the whole pass's samples.
  std::vector<double> goodput, slo_goodput, cpu_per_query, p50;
  for (const Window& win : pass.Windows(w.slo_ms)) {
    goodput.push_back(1000.0 * static_cast<double>(win.answered) / kWindowMs);
    slo_goodput.push_back(1000.0 * static_cast<double>(win.within_slo) /
                          kWindowMs);
    cpu_per_query.push_back(
        Ratio(win.cpu_ms, static_cast<double>(win.answered)));
    p50.push_back(win.latency_p50_ms);
  }
  record->metrics = {
      {"goodput_qps", Median(goodput), "1/s", ""},
      {"slo_goodput_qps", Median(slo_goodput), "1/s", ""},
      {"latency_p50_ms", Median(p50), "ms", ""},
      // The tail over consecutive blocks of kTailBlock answers: each block
      // has 10 samples beyond its p99, and the median over blocks keeps one
      // stalled stretch of the run from setting the figure.
      {"latency_p99_ms",
       MedianOfBlockPercentiles(latencies, 99.0, kTailBlock), "ms", ""},
      {"answered_fraction", 1.0 - t.error_fraction(), "fraction", ""},
      {"full_quality_fraction", 1.0 - t.degraded_fraction(), "fraction", ""},
      {"cpu_ms_per_query", Median(cpu_per_query), "ms", ""},
      {"peak_rss_mb", PeakRssMb(), "MB", ""},
      {"setup_s", setup_s, "s", ""},
  };
  std::printf("end-to-end (%s, wire, %.1f s, %zu latency samples, tail rule "
              "-> p%g, SLO %.0f ms):\n",
              w.name.c_str(), wall_s, latencies.size(), tail, w.slo_ms);
  for (const Metric& m : record->metrics) {
    std::printf("  %-24s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-24s %14.4f fraction\n", "error_fraction",
              t.error_fraction());
  std::printf("  %-24s %14.4f fraction\n", "degraded_fraction",
              t.degraded_fraction());
  std::printf("  %-24s %14.4f count\n", "backend_calls_per_query",
              Ratio(static_cast<double>(backend_calls), answered));
  std::printf("  %-24s %14zu count\n", "latency_samples", latencies.size());
  std::printf("  whole pass: goodput %.2f/s, within SLO %.2f/s, p50 %.3f ms, "
              "p99 %.3f ms, cpu %.3f ms/query, %zu windows, %zu tail blocks\n",
              Ratio(answered, wall_s),
              Ratio(static_cast<double>(within_slo), wall_s),
              Percentile(latencies, 50.0), Percentile(latencies, 99.0),
              Ratio(pass.cpu_ms, answered), goodput.size(),
              std::max<size_t>(1, latencies.size() / kTailBlock));
  std::printf("  outcomes: %s\n", FateSummary(t).c_str());
  std::string per_window;
  for (size_t i = 0; i < goodput.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %.0f/%.2f", goodput[i], cpu_per_query[i]);
    per_window += buf;
  }
  std::printf("  by window (goodput/cpu ms):%s\n", per_window.c_str());
}

std::vector<Metric> Traced(Stack* stack, const std::vector<RequestSpec>& requests,
                           const std::vector<RequestSpec>& warmup,
                           const Oracle& oracle, double seconds,
                           RunRecord* record, std::string* artifact) {
  const WorkloadSpec& w = stack->workload();
  seco::QueryServer& server = stack->server();
  CallLog* log = stack->call_log();
  const double pass_s = seconds / 2.0;
  const bool cached = server.answer_cache() != nullptr;

  // Pass 1: the schedule over the wire, service decorators recording.
  const int64_t calls0 = stack->fixtures().BackendCalls();
  const seco::CallCacheStats cc0 = server.cache().stats();
  const seco::PlanMemoStats memo0 =
      server.plan_memo() ? server.plan_memo()->stats() : seco::PlanMemoStats{};
  const seco::MemoStats ans0 =
      cached ? server.answer_cache()->stats() : seco::MemoStats{};
  const int64_t led0 = cached ? server.answer_cache()->flights_led() : 0;
  log->Take();
  log->set_enabled(true);
  PassResult traced = RunPass(stack, Path::kWire, requests, 0, pass_s, oracle);
  log->set_enabled(false);
  const std::vector<CallSpan> calls = log->Take();
  const int64_t backend_calls = stack->fixtures().BackendCalls() - calls0;
  const seco::CallCacheStats cc1 = server.cache().stats();
  const seco::PlanMemoStats memo1 =
      server.plan_memo() ? server.plan_memo()->stats() : seco::PlanMemoStats{};
  const seco::MemoStats ans1 =
      cached ? server.answer_cache()->stats() : seco::MemoStats{};
  const int64_t led1 = cached ? server.answer_cache()->flights_led() : 0;
  Count(traced, record);

  // Pass 1b: the same traffic untraced, for the tracing overhead.
  PassResult plain = RunPass(stack, Path::kWire, requests, traced.next_index,
                             pass_s, oracle);
  Count(plain, record);

  // Pass 2: in-process through QueryServer::SubmitWithId.
  const seco::ServerStats st0 = server.stats();
  PassResult inproc = RunPass(stack, Path::kInProcess, requests,
                              plain.next_index, pass_s, oracle);
  const seco::ServerStats st1 = server.stats();
  Count(inproc, record);

  // Pass 3: serial decomposition per template.
  SerialPass serial = RunSerialPass(stack, oracle, kSerialReps);
  if (!serial.ok) record->problems.push_back("serial pass: " + serial.error);

  // --- pass 1 figures
  const double answered1 = static_cast<double>(traced.tally.answered());
  double span_ms = 0.0, sleep_ms = 0.0;
  std::map<int, std::vector<double>> per_interface;
  for (const CallSpan& c : calls) {
    span_ms += c.end_ms - c.start_ms;
    sleep_ms += c.latency_ms * kRealtimeFactor;
    per_interface[c.interface_index].push_back(c.end_ms - c.start_ms);
  }
  std::set<uint64_t> warm_ids;
  for (const RequestSpec& r : warmup) warm_ids.insert(r.identity());
  std::set<uint64_t> cold_ids;
  std::vector<double> charged, bytes;
  int64_t hits = 0;
  for (const Sample& s : traced.samples) {
    const uint64_t id = requests[s.index].identity();
    if (!warm_ids.count(id)) cold_ids.insert(id);
    if (s.fate != Fate::kAnswered) continue;
    bytes.push_back(static_cast<double>(s.body_bytes));
    if (s.answer_cache_hit) ++hits;
    else charged.push_back(s.total_calls);
  }
  const double cc_hits = static_cast<double>(cc1.hits - cc0.hits);
  const double cc_misses = static_cast<double>(cc1.misses - cc0.misses);

  // --- pass 2 figures
  std::vector<double> waits, exec_wall, levels;
  double spec_calls = 0.0, spec_wasted = 0.0;
  for (const Sample& s : inproc.samples) {
    if (s.fate == Fate::kShed || s.fate == Fate::kTransportError) continue;
    waits.push_back(s.queue_wait_ms);
    if (s.fate != Fate::kAnswered) continue;
    levels.push_back(s.level);
    if (s.answer_cache_hit) continue;
    exec_wall.push_back(s.exec_wall_ms);
    if (s.streamed) {
      spec_calls += s.speculative_calls;
      spec_wasted += s.speculative_wasted;
    }
  }
  auto shed_fraction = [&](seco::PriorityClass p) {
    const auto& a = st0.of(p);
    const auto& b = st1.of(p);
    return Ratio(static_cast<double>(b.shed - a.shed),
                 static_cast<double>(b.submitted - a.submitted));
  };

  // --- pass 3 figures
  double parse_bind = 0, optimize = 0, plans = 0, self = 0, codec = 0;
  for (const SerialChain& c : serial.chains) {
    parse_bind += c.weight * c.parse_bind_ms;
    optimize += c.weight * c.optimize_ms;
    plans += c.weight * c.plans_costed;
    self += c.weight * (c.execute_ms - c.blocked_ms);
    codec += c.weight * c.codec_ms;
  }
  const double gap =
      Ratio(std::abs(serial.wall_ms - serial.attributed_ms), serial.wall_ms);
  if (serial.ok && gap > kAttributionTolerance) {
    record->problems.push_back("serial pass: layer self times cover only " +
                               Num(1.0 - gap) + " of its wall time");
  }

  const double cpu_traced = Ratio(traced.cpu_ms, answered1);
  const double cpu_plain =
      Ratio(plain.cpu_ms, static_cast<double>(plain.tally.answered()));
  const std::vector<Metric> metrics = {
      {"query.parse_bind_us", parse_bind * 1000.0, "us",
       "cpu_ms_per_query on warm_mix"},
      {"optimizer.optimize_us", optimize * 1000.0, "us",
       "cpu_ms_per_query on warm_mix"},
      {"optimizer.plans_costed", plans, "count", "cpu_ms_per_query on warm_mix"},
      {"cache.plan_memo_hit_rate",
       Ratio(static_cast<double>(memo1.hits() - memo0.hits()),
             static_cast<double>(memo1.probes() - memo0.probes())),
       "fraction", "cpu_ms_per_query on cold_mix"},
      {"server.queue_wait_p50_ms", Percentile(waits, 50.0), "ms",
       "latency_p50_ms on warm_mix and cold_mix"},
      {"server.queue_wait_p99_ms", Percentile(waits, 99.0), "ms",
       "latency_p99_ms on warm_mix and cold_mix"},
      {"server.shed_fraction.interactive",
       shed_fraction(seco::PriorityClass::kInteractive), "fraction",
       "answered_fraction (0 expected: no workload overloads the server)"},
      {"server.shed_fraction.batch", shed_fraction(seco::PriorityClass::kBatch),
       "fraction",
       "answered_fraction (0 expected: no workload overloads the server)"},
      {"server.mean_degradation_level", Mean(levels), "level",
       "full_quality_fraction (0 expected: the ladder is off)"},
      {"exec.wall_ms_p50", Percentile(exec_wall, 50.0), "ms",
       "latency_p50_ms on cold_mix and warm_mix"},
      {"exec.self_ms_per_query", self, "ms",
       "cpu_ms_per_query and goodput_qps on warm_mix"},
      {"exec.blocked_ms_per_query", Ratio(span_ms, answered1), "ms",
       "latency_p50_ms on cold_mix"},
      {"exec.call_cache_hit_rate", Ratio(cc_hits, cc_hits + cc_misses),
       "fraction", "backend_calls_per_query on cold_mix"},
      {"exec.charged_calls_per_query", Mean(charged), "count",
       "backend_calls_per_query on cold_mix"},
      {"exec.speculative_waste_fraction", Ratio(spec_wasted, spec_calls),
       "fraction", "backend_calls_per_query on cold_mix"},
      {"sim.backend_calls_per_query",
       Ratio(static_cast<double>(backend_calls), answered1), "count",
       "goodput_qps on cold_mix"},
      {"sim.sleep_ms_per_query", Ratio(sleep_ms, answered1), "ms",
       "goodput_qps on cold_mix"},
      {"sim.calls_in_flight_mean", Ratio(span_ms, traced.wall_ms), "count",
       "goodput_qps on cold_mix"},
      {"cache.answer_hit_rate", Ratio(static_cast<double>(hits), answered1),
       "fraction",
       "goodput_qps on cold_mix (0 expected: every identity is new)"},
      {"cache.leaders_per_cold_identity",
       cached ? Ratio(static_cast<double>(led1 - led0),
                      static_cast<double>(cold_ids.size()))
              : 0.0,
       "count",
       "goodput_qps on cold_mix (1.0 expected: no identity repeats)"},
      {"cache.answer_evictions",
       static_cast<double>((ans1.replacements + ans1.rejected) -
                           (ans0.replacements + ans0.rejected)),
       "count", "goodput_qps on cold_mix (the answer cache's write path)"},
      {"net.wire_overhead_p50_ms",
       Percentile(plain.AnsweredLatencies(), 50.0) -
           Percentile(inproc.AnsweredLatencies(), 50.0),
       "ms", "latency_p50_ms on warm_mix"},
      {"net.answer_bytes_per_query", Mean(bytes), "bytes",
       "latency_p50_ms on warm_mix"},
      {"net.codec_us", codec * 1000.0, "us", "latency_p50_ms on warm_mix"},
      {"trace.overhead_fraction", Ratio(cpu_traced, cpu_plain) - 1.0,
       "fraction", "cpu_ms_per_query (traced vs untraced)"},
      {"trace.attribution_gap_fraction", gap, "fraction",
       "serial-pass self times vs wall time"},
  };

  std::printf("traced run (%s): wire traced %.1f s, wire untraced %.1f s, "
              "in-process %.1f s, serial %d x %zu chains in %.1f ms\n",
              w.name.c_str(), traced.wall_ms / 1000.0, plain.wall_ms / 1000.0,
              inproc.wall_ms / 1000.0, kSerialReps, serial.chains.size(),
              serial.wall_ms);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %-8s -> %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.moves.c_str());
  }
  std::printf("  outcomes (traced wire):   %s\n",
              FateSummary(traced.tally).c_str());
  std::printf("  outcomes (untraced wire): %s\n",
              FateSummary(plain.tally).c_str());
  std::printf("  outcomes (in-process):    %s\n",
              FateSummary(inproc.tally).c_str());
  for (const SerialChain& c : serial.chains) {
    std::printf("  serial %-24s parse+bind %.3f  optimize %.3f  exec self "
                "%.3f  blocked %.3f  codec %.3f  total %.3f ms\n",
                c.label.c_str(), c.parse_bind_ms, c.optimize_ms,
                c.execute_ms - c.blocked_ms, c.blocked_ms, c.codec_ms,
                c.total_ms);
  }

  // The trace artifact: serial-pass spans with parent links, and the
  // concurrent pass's service calls per interface (no parent: a
  // ServiceRequest carries no query id).
  std::ostringstream out;
  out << "\"service_calls_by_interface\": {";
  bool first = true;
  for (const auto& [index, durations] : per_interface) {
    if (!first) out << ", ";
    first = false;
    out << Quote(stack->interface_names()[static_cast<size_t>(index)])
        << ": {\"calls\": " << durations.size()
        << ", \"total_ms\": " << Num(Mean(durations) * durations.size())
        << ", \"p50_ms\": " << Num(Percentile(durations, 50.0))
        << ", \"p99_ms\": " << Num(Percentile(durations, 99.0)) << "}";
  }
  out << "}, \"serial_spans\": [";
  for (size_t i = 0; i < serial.spans.size(); ++i) {
    const Span& s = serial.spans[i];
    out << (i ? ", " : "") << "{\"id\": " << s.id << ", \"parent\": "
        << s.parent << ", \"request\": " << s.request
        << ", \"name\": " << Quote(s.name) << ", \"start_ms\": "
        << Num(s.start_ms) << ", \"end_ms\": " << Num(s.end_ms) << "}";
  }
  out << "]";
  *artifact = out.str();
  return metrics;
}

std::string SetupSamples(const std::vector<double>& setup_s) {
  std::string out = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out += (i ? ", " : "") + Num(setup_s[i]);
  }
  return out + "]";
}

bool MakeDirs(const std::string& path) {
  std::string partial;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') partial = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    partial += part + "/";
    if (mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "seco_perfbench: %s\n", error.c_str());
    return 2;
  }
  const std::vector<std::string> selftest_failures = RunSelfTests();
  for (const std::string& f : selftest_failures) {
    std::printf("SELFTEST FAILED: %s\n", f.c_str());
  }
  if (args.selftest) {
    std::printf("self-tests: %s\n",
                selftest_failures.empty() ? "all passed" : "FAILED");
    return selftest_failures.empty() ? 0 : 1;
  }

  const WorkloadSpec& workload = *FindWorkload(args.workload);
  const bool traced = args.trace == 1;
  RunRecord record;
  record.problems = selftest_failures;

  // The oracle is the benchmark's own work: computed before set-up and
  // excluded from setup_s.
  const double oracle_t0 = NowMs();
  std::set<OracleKey> keys;
  for (int t = 0; t < kNumTemplates; ++t) {
    for (int k = kMix.k_min; k <= kMix.k_max; ++k) {
      keys.insert({t, k, false});
      keys.insert({t, k, true});
    }
  }
  seco::Result<Oracle> oracle = Oracle::Compute(keys);
  if (!oracle.ok()) {
    std::fprintf(stderr, "seco_perfbench: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  const double oracle_ms = NowMs() - oracle_t0;

  const size_t count =
      static_cast<size_t>(args.seconds * kRequestsPerSecond) + 64;
  const std::vector<RequestSpec> requests =
      GenerateRequests(workload, args.seed, count);
  const std::vector<RequestSpec> warmup = WarmupRequests(workload);

  // Set-up, several times: scenario build, server + listener start, and
  // warm-up. The last stack serves the measurement.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    stack.reset();
    const double t0 = NowMs();
    seco::Result<std::unique_ptr<Stack>> started =
        Stack::Start(workload, traced);
    if (!started.ok()) {
      std::fprintf(stderr, "seco_perfbench: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    stack = std::move(started).value();
    PassResult warm = RunAll(stack.get(), warmup, *oracle);
    setup_s.push_back((NowMs() - t0) / 1000.0);
    std::printf("setup %d: %.3f s, rss %.1f MB, peak %.1f MB\n", rep,
                setup_s.back(), StatusMb("VmRSS"), StatusMb("VmHWM"));
    record.wrong_answers += warm.tally.count(Fate::kWrongAnswer);
    if (warm.tally.answered() != static_cast<int64_t>(warmup.size())) {
      record.problems.push_back("warm-up: " + FateSummary(warm.tally));
    }
  }

  ResetPeakRss();
  std::string artifact;
  if (traced) {
    record.metrics =
        Traced(stack.get(), requests, warmup, *oracle, args.seconds, &record,
               &artifact);
  } else {
    EndToEnd(stack.get(), requests, *oracle, args.seconds, Median(setup_s),
             &record);
  }
  stack.reset();
  if (record.wrong_answers > 0) {
    record.problems.push_back(std::to_string(record.wrong_answers) +
                              " answers differ from the oracle");
  }

  record.meta = {
      {"workload", Quote(workload.name)},
      {"why", Quote(workload.why)},
      {"seed", std::to_string(args.seed)},
      {"seconds", Num(args.seconds)},
      {"trace", std::to_string(args.trace)},
      {"git_rev", Quote(args.git_rev)},
      {"build_type", Quote(PERFBENCH_BUILD_TYPE)},
      {"compiler", Quote(PERFBENCH_COMPILER)},
      {"cpu_model", Quote(CpuModel())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"simd_kernel",
       Quote(seco::simd::KernelName(seco::simd::ActiveKernel()))},
      {"realtime_factor", Num(kRealtimeFactor)},
      {"slo_ms", Num(workload.slo_ms)},
      {"setup_s_samples", SetupSamples(setup_s)},
      {"oracle_ms", Num(oracle_ms)},
      {"oracle_keys", std::to_string(oracle->size())},
      {"requests_sent", std::to_string(record.attempted)},
      {"requests_answered", std::to_string(record.answered)},
      {"requests_failed", std::to_string(record.failed)},
  };
  std::string meta = "{";
  for (const auto& [key, value] : record.meta) {
    if (meta.size() > 1) meta += ", ";
    meta += Quote(key) + ": " + value;
  }
  meta += "}";
  for (const std::string& p : record.problems) {
    std::printf("PROBLEM: %s\n", p.c_str());
  }
  std::printf("meta %s\n", meta.c_str());

  const bool correct = record.problems.empty() && record.attempted > 0;
  const std::string metrics_json = MetricsJson(record.metrics);
  if (!args.out_dir.empty() && MakeDirs(args.out_dir)) {
    const std::string path = args.out_dir + "/" + workload.name + "-seed" +
                             std::to_string(args.seed) +
                             (traced ? "-trace" : "") + ".json";
    std::ofstream file(path);
    file << "{\"meta\": " << meta << ", \"correct\": "
         << (correct ? "true" : "false") << ", \"metrics\": " << metrics_json;
    if (!artifact.empty()) file << ", " << artifact;
    file << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(record.attempted),
              static_cast<long long>(record.failed), metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
