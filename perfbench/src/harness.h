// The serving benchmark's harness: workload definitions, seeded request
// lists, the serving stack under test (three fixture scenarios behind one
// `QueryServer` + `NetServer`), the load generators, the oracle, and the
// serial decomposition pass.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/plan_memo.h"
#include "common/result.h"
#include "net/net_server.h"
#include "server/server.h"
#include "sim/fixtures.h"
#include "stats.h"
#include "timing.h"

namespace perfbench {

/// Simulated service latency is slept for `latency_ms * kRealtimeFactor`
/// real ms: the fastest fixture service (Insurance, 40 ms) blocks 2 ms, so
/// wake-up delays are a small share of each sleep.
inline constexpr double kRealtimeFactor = 0.05;

/// The three fixture queries (src/sim/fixtures.h).
inline constexpr int kNumTemplates = 3;
inline constexpr const char* kTemplateNames[kNumTemplates] = {
    "movie", "conference", "doctor"};

/// The request mix every workload shares.
struct Mix {
  double template_share[kNumTemplates] = {0.4, 0.3, 0.3};
  int k_min = 5;
  int k_max = 15;
  double streaming_share = 0.25;
  double interactive_share = 0.7;
};
inline constexpr Mix kMix{};

enum class Identity {
  /// Every request gets its own answer-cache identity (a distinct,
  /// non-binding call budget).
  kUnique,
  /// Requests share identities: the same (query, k, streaming) repeats,
  /// and set-up warms the call cache with every such key.
  kShared,
};

/// Every workload is a closed loop over 4 connections: 4 client threads,
/// each with one query outstanding.
inline constexpr int kConnections = 4;

struct WorkloadSpec {
  std::string name;
  std::string why;
  /// Latency limit of `slo_goodput_qps`, ms: at least 1.7 times every
  /// ten-seed median `latency_p99_ms` measured, so only answers far beyond
  /// the tail miss it.
  double slo_ms = 0.0;
  Identity identity = Identity::kShared;
  bool answer_cache = false;
  /// Intra-query service-call fan-out threads and streaming prefetch depth
  /// (`ServerOptions::num_threads` / `prefetch_depth`).
  int fan_out = 1;
  int prefetch_depth = 0;
  /// Byte budget of the server's shared call cache.
  size_t call_cache_bytes = 64u << 20;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Identity of one answer, as far as the oracle is concerned.
struct OracleKey {
  int tmpl = 0;
  int k = 10;
  bool streaming = false;
  auto operator<=>(const OracleKey&) const = default;
};

/// One generated request.
struct RequestSpec {
  int tmpl = 0;
  int k = 10;
  bool streaming = false;
  bool interactive = true;
  int max_calls = 10000;

  OracleKey key() const { return {tmpl, k, streaming}; }
  /// The answer-cache identity: the key plus the call budget.
  uint64_t identity() const;
};

/// The request list of a run: a pure function of (workload, seed).
std::vector<RequestSpec> GenerateRequests(const WorkloadSpec& workload,
                                          uint64_t seed, size_t count);
/// Requests sent during set-up to bring the workload's caches to their
/// steady state.
std::vector<RequestSpec> WarmupRequests(const WorkloadSpec& workload);

/// The three fixture scenarios, built fresh.
struct Fixtures {
  std::vector<seco::Scenario> scenarios;  ///< indexed by template
  seco::Result<std::shared_ptr<seco::ServiceRegistry>> Merge(
      std::shared_ptr<CallLog> log,
      std::vector<std::string>* interface_names) const;
  int64_t BackendCalls() const;
};
seco::Result<Fixtures> BuildFixtures(double realtime_factor);

seco::QueryRequest MakeRequest(const Fixtures& fixtures,
                               const RequestSpec& spec);

/// Expected combinations per oracle key: a serial in-process run with the
/// ladder off and no realtime sleeping.
class Oracle {
 public:
  static seco::Result<Oracle> Compute(const std::set<OracleKey>& keys);
  /// nullptr when the key was not computed.
  const std::vector<seco::Combination>* Find(const OracleKey& key) const;
  size_t size() const { return answers_.size(); }

 private:
  std::map<OracleKey, std::vector<seco::Combination>> answers_;
};

/// Combination-by-combination equality: components, component scores,
/// combined score and missing atoms. Everything else in an answer body
/// (call counts, cache hits, simulated clock) may legitimately differ.
bool SameCombinations(const std::vector<seco::Combination>& a,
                      const std::vector<seco::Combination>& b);

/// Classifies one terminal response against the oracle.
Fate Judge(const seco::QueryResponse& response, const RequestSpec& spec,
           const Oracle& oracle);

/// The serving stack under test.
class Stack {
 public:
  /// Builds scenarios, merges their registries (through timing decorators
  /// when `traced`), starts the `QueryServer` and the TCP front end.
  static seco::Result<std::unique_ptr<Stack>> Start(
      const WorkloadSpec& workload, bool traced);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const WorkloadSpec& workload() const { return workload_; }
  const Fixtures& fixtures() const { return fixtures_; }
  seco::QueryServer& server() { return *server_; }
  seco::NetServer& net() { return *net_; }
  const seco::ServiceRegistry& registry() const { return *registry_; }
  /// Null unless built traced.
  CallLog* call_log() const { return log_.get(); }
  const std::vector<std::string>& interface_names() const {
    return interface_names_;
  }
  seco::ServerOptions server_options() const;

 private:
  explicit Stack(const WorkloadSpec& workload) : workload_(workload) {}

  WorkloadSpec workload_;
  Fixtures fixtures_;
  std::shared_ptr<CallLog> log_;
  std::vector<std::string> interface_names_;
  std::shared_ptr<seco::ServiceRegistry> registry_;
  std::unique_ptr<seco::QueryServer> server_;
  /// Declared after `server_`, so it stops (and drains) first.
  std::unique_ptr<seco::NetServer> net_;
};

/// One answered-or-not request as a pass observed it.
struct Sample {
  size_t index = 0;  ///< position in the request list
  Fate fate = Fate::kTransportError;
  double latency_ms = 0.0;
  /// When the answer (or the error) arrived.
  double done_ms = 0.0;
  bool degraded = false;
  int level = 0;
  bool answer_cache_hit = false;
  bool streamed = false;
  size_t body_bytes = 0;
  int total_calls = 0;
  int speculative_calls = 0;
  int speculative_wasted = 0;
  /// In-process passes only (the wire carries no wall-clock fields).
  double exec_wall_ms = 0.0;
  double queue_wait_ms = 0.0;
};

/// One fixed-length slice of a pass, by answer arrival time.
struct Window {
  int64_t answered = 0;
  int64_t within_slo = 0;
  double cpu_ms = 0.0;
  double latency_p50_ms = 0.0;
};

struct PassResult {
  std::vector<Sample> samples;
  Tally tally;
  double start_ms = 0.0;
  double wall_ms = 0.0;
  /// Whole-process user+sys CPU over the pass.
  double cpu_ms = 0.0;
  /// Whole-process CPU at start_ms + i * kWindowMs, i = 0, 1, ...
  std::vector<double> cpu_ticks;
  /// First request-list index the pass did not use.
  size_t next_index = 0;

  /// Latencies of the answered requests, in arrival order.
  std::vector<double> AnsweredLatencies() const;
  /// The complete windows of the pass (the drain after the last full
  /// window is left out).
  std::vector<Window> Windows(double slo_ms) const;
};

/// Length of a `Window`. End-to-end figures are medians over a run's
/// windows, so a burst of interference on the machine moves a few windows
/// rather than the result.
inline constexpr double kWindowMs = 1000.0;

/// Where a pass sends its requests.
enum class Path { kWire, kInProcess };

/// Replays `requests[begin, ...)` against the stack in a closed loop until
/// `seconds` have passed (or the list ends), and checks every answer
/// against the oracle.
PassResult RunPass(Stack* stack, Path path,
                   const std::vector<RequestSpec>& requests, size_t begin,
                   double seconds, const Oracle& oracle);

/// Drives `requests` over the wire once each, back to back over the
/// workload's connections (set-up warm-up).
PassResult RunAll(Stack* stack, const std::vector<RequestSpec>& requests,
                  const Oracle& oracle);

/// One layer-by-layer decomposition of a request chain run serially:
/// parse -> bind -> optimize -> execute -> encode -> decode.
struct SerialChain {
  std::string label;
  double weight = 0.0;  ///< share of the workload mix
  double parse_bind_ms = 0.0;
  double optimize_ms = 0.0;
  int plans_costed = 0;
  double execute_ms = 0.0;
  /// Union of the service-call spans inside the execute span.
  double blocked_ms = 0.0;
  double codec_ms = 0.0;
  /// The root span (the whole chain).
  double total_ms = 0.0;
};

struct SerialPass {
  std::vector<SerialChain> chains;  ///< per-template medians
  std::vector<Span> spans;          ///< every recorded span
  double wall_ms = 0.0;             ///< the timed loop's wall time
  double attributed_ms = 0.0;       ///< sum of all layer self times
  bool ok = true;
  std::string error;
};

/// Runs each (query, engine) template `reps` times through the public
/// module entry points, against the server's shared call cache, recording
/// spans. Requires a traced stack.
SerialPass RunSerialPass(Stack* stack, const Oracle& oracle, int reps);

/// The benchmark's own self-tests (selftest.cc); returns the failures.
std::vector<std::string> RunSelfTests();

/// Whole-process CPU (user+sys).
double ProcessCpuMs();
/// Returns the memory the benchmark's own throwaway work (oracle, earlier
/// set-ups) left free in the allocator to the system, then restarts the
/// kernel's peak-RSS mark, so `PeakRssMb` covers what follows.
void ResetPeakRss();
/// Peak resident set size since `ResetPeakRss` (process start if never
/// reset), MB.
double PeakRssMb();
/// A size field of /proc/self/status (e.g. "VmRSS"), in MB.
double StatusMb(const char* field);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
