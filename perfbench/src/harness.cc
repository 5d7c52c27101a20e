#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <thread>

#include "exec/engine.h"
#include "exec/streaming.h"
#include "net/client.h"
#include "net/wire.h"
#include "optimizer/optimizer.h"
#include "query/bound_query.h"
#include "query/parser.h"

namespace perfbench {

using seco::QueryRequest;
using seco::QueryResponse;
using seco::ServedOutcome;

namespace {

/// Receive timeout of every benchmark connection: a wedged response fails
/// its request as a transport error instead of hanging the run.
constexpr int kClientTimeoutMs = 20000;

uint64_t NameHash(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : name) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Draws requests in shuffled blocks that hold the mix exactly: each block
/// has every (query, k) pair in proportion to the query's share, a quarter
/// of each pair streaming, and 70% interactive requests. Seeds change the
/// order, never the composition, so runs with different seeds do the same
/// work.
class MixStream {
 public:
  explicit MixStream(Rng* rng) : rng_(rng) {}

  RequestSpec Next() {
    if (pos_ == block_.size()) Refill();
    return block_[pos_++];
  }

 private:
  void Refill() {
    block_.clear();
    for (int t = 0; t < kNumTemplates; ++t) {
      const int per_k = static_cast<int>(
          std::lround(kMix.template_share[t] * 10.0 * kStreamingSlots));
      for (int k = kMix.k_min; k <= kMix.k_max; ++k) {
        for (int i = 0; i < per_k; ++i) {
          RequestSpec r;
          r.tmpl = t;
          r.k = k;
          r.streaming = i % kStreamingSlots == 0;
          block_.push_back(r);
        }
      }
    }
    const size_t interactive = static_cast<size_t>(
        std::lround(kMix.interactive_share * static_cast<double>(block_.size())));
    for (size_t i = 0; i < block_.size(); ++i) {
      block_[i].interactive = i < interactive;
    }
    Shuffle();
    pos_ = 0;
  }

  /// Fisher-Yates over the block, then again over the interactive flags
  /// alone so class and query are drawn independently.
  void Shuffle() {
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_->Next() % i]);
    }
    for (size_t i = block_.size(); i > 1; --i) {
      const size_t j = rng_->Next() % i;
      const bool tmp = block_[i - 1].interactive;
      block_[i - 1].interactive = block_[j].interactive;
      block_[j].interactive = tmp;
    }
  }

  /// Streaming requests are one in this many (kMix.streaming_share).
  static constexpr int kStreamingSlots = 4;
  Rng* rng_;
  std::vector<RequestSpec> block_;
  size_t pos_ = 0;
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> w;

    WorkloadSpec cold;
    cold.name = "cold_mix";
    cold.why =
        "every request is a novel identity and the call cache is smaller "
        "than one query: blocking service calls, fan-out and prefetch "
        "dominate";
    cold.identity = Identity::kUnique;
    cold.answer_cache = true;
    cold.call_cache_bytes = 16u << 10;
    cold.fan_out = 2;
    cold.prefetch_depth = 2;
    cold.slo_ms = 300.0;
    w.push_back(cold);

    WorkloadSpec warm;
    warm.name = "warm_mix";
    warm.why =
        "warm call cache, answer cache off: every request parses, binds, "
        "optimizes and joins over cached chunks, so CPU dominates";
    warm.identity = Identity::kShared;
    warm.slo_ms = 60.0;
    w.push_back(warm);

    return w;
  }();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t RequestSpec::identity() const {
  uint64_t h = static_cast<uint64_t>(tmpl);
  h = h * 131 + static_cast<uint64_t>(k);
  h = h * 2 + (streaming ? 1 : 0);
  h = h * 1000003 + static_cast<uint64_t>(max_calls);
  return h;
}

std::vector<RequestSpec> GenerateRequests(const WorkloadSpec& workload,
                                          uint64_t seed, size_t count) {
  Rng rng(seed ^ NameHash(workload.name));
  MixStream mix(&rng);
  std::vector<RequestSpec> out(count);
  for (size_t i = 0; i < count; ++i) {
    RequestSpec& r = out[i];
    switch (workload.identity) {
      case Identity::kUnique:
        r = mix.Next();
        r.max_calls = 20000 + static_cast<int>(i);
        break;
      case Identity::kShared:
        r = mix.Next();
        r.max_calls = 10000;
        break;
    }
  }
  return out;
}

std::vector<RequestSpec> WarmupRequests(const WorkloadSpec& workload) {
  std::vector<RequestSpec> out;
  switch (workload.identity) {
    case Identity::kUnique:
      for (int t = 0; t < kNumTemplates; ++t) {
        RequestSpec r;
        r.tmpl = t;
        r.max_calls = 15000 + t;
        out.push_back(r);
      }
      break;
    case Identity::kShared:
      for (int t = 0; t < kNumTemplates; ++t) {
        for (int k = kMix.k_min; k <= kMix.k_max; ++k) {
          for (bool streaming : {false, true}) {
            RequestSpec r;
            r.tmpl = t;
            r.k = k;
            r.streaming = streaming;
            out.push_back(r);
          }
        }
      }
      break;
  }
  return out;
}

seco::Result<Fixtures> BuildFixtures(double realtime_factor) {
  Fixtures fixtures;
  SECO_ASSIGN_OR_RETURN(seco::Scenario movie, seco::MakeMovieScenario());
  SECO_ASSIGN_OR_RETURN(seco::Scenario conference,
                        seco::MakeConferenceScenario());
  SECO_ASSIGN_OR_RETURN(seco::Scenario doctor, seco::MakeDoctorScenario());
  fixtures.scenarios = {std::move(movie), std::move(conference),
                        std::move(doctor)};
  for (seco::Scenario& s : fixtures.scenarios) {
    for (auto& [name, backend] : s.backends) {
      backend->set_realtime_factor(realtime_factor);
    }
  }
  return fixtures;
}

seco::Result<std::shared_ptr<seco::ServiceRegistry>> Fixtures::Merge(
    std::shared_ptr<CallLog> log,
    std::vector<std::string>* interface_names) const {
  std::vector<const seco::ServiceRegistry*> sources;
  for (const seco::Scenario& s : scenarios) sources.push_back(s.registry.get());
  return MergeRegistries(sources, std::move(log), interface_names);
}

int64_t Fixtures::BackendCalls() const {
  int64_t total = 0;
  for (const seco::Scenario& s : scenarios) {
    for (const auto& [name, backend] : s.backends) {
      total += backend->call_count();
    }
  }
  return total;
}

QueryRequest MakeRequest(const Fixtures& fixtures, const RequestSpec& spec) {
  const seco::Scenario& scenario =
      fixtures.scenarios[static_cast<size_t>(spec.tmpl)];
  QueryRequest request;
  request.query_text = scenario.query_text;
  request.input_bindings = scenario.inputs;
  request.k = spec.k;
  request.max_calls = spec.max_calls;
  request.streaming = spec.streaming;
  request.priority = spec.interactive ? seco::PriorityClass::kInteractive
                                      : seco::PriorityClass::kBatch;
  return request;
}

namespace {

const std::vector<seco::Combination>& CombinationsOf(
    const QueryResponse& response) {
  return response.streamed ? response.streaming.combinations
                           : response.execution.combinations;
}

}  // namespace

seco::Result<Oracle> Oracle::Compute(const std::set<OracleKey>& keys) {
  SECO_ASSIGN_OR_RETURN(Fixtures fixtures, BuildFixtures(0.0));
  SECO_ASSIGN_OR_RETURN(auto registry, fixtures.Merge(nullptr, nullptr));
  seco::ServerOptions options;
  options.admission.max_in_flight = 1;
  options.runner_threads = 1;
  options.ladder.enabled = false;
  seco::QueryServer server(registry, options);
  Oracle oracle;
  for (const OracleKey& key : keys) {
    RequestSpec spec;
    spec.tmpl = key.tmpl;
    spec.k = key.k;
    spec.streaming = key.streaming;
    QueryResponse response = server.Submit(MakeRequest(fixtures, spec)).get();
    if (response.outcome != ServedOutcome::kCompleted) {
      return seco::Status::Internal(
          std::string("oracle run of ") + kTemplateNames[key.tmpl] +
          " k=" + std::to_string(key.k) + " ended " +
          seco::ServedOutcomeToString(response.outcome) + ": " +
          response.status.ToString());
    }
    oracle.answers_[key] = CombinationsOf(response);
  }
  return oracle;
}

const std::vector<seco::Combination>* Oracle::Find(const OracleKey& key) const {
  auto it = answers_.find(key);
  return it == answers_.end() ? nullptr : &it->second;
}

bool SameCombinations(const std::vector<seco::Combination>& a,
                      const std::vector<seco::Combination>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].components == b[i].components) ||
        a[i].component_scores != b[i].component_scores ||
        a[i].combined_score != b[i].combined_score ||
        a[i].missing_atoms != b[i].missing_atoms) {
      return false;
    }
  }
  return true;
}

Fate Judge(const QueryResponse& response, const RequestSpec& spec,
           const Oracle& oracle) {
  switch (response.outcome) {
    case ServedOutcome::kCompleted:
    case ServedOutcome::kDegraded: {
      if (response.outcome == ServedOutcome::kCompleted &&
          response.degradation_level == 0) {
        const std::vector<seco::Combination>* expected =
            oracle.Find(spec.key());
        if (expected == nullptr ||
            !SameCombinations(*expected, CombinationsOf(response))) {
          return Fate::kWrongAnswer;
        }
      }
      return Fate::kAnswered;
    }
    case ServedOutcome::kShed:
      return Fate::kShed;
    case ServedOutcome::kDeadlineExpired:
      return Fate::kExpired;
    case ServedOutcome::kCancelled:
      return Fate::kCancelled;
    case ServedOutcome::kFailed:
      break;
  }
  return Fate::kFailed;
}

seco::ServerOptions Stack::server_options() const {
  seco::ServerOptions options;
  options.admission.max_in_flight = 4;
  // Deep queues and no ladder: a 4-connection closed loop never sheds, and
  // every answer stays comparable with the oracle.
  options.admission.interactive.queue_capacity = 256;
  options.admission.batch.queue_capacity = 256;
  options.ladder.enabled = false;
  options.num_threads = workload_.fan_out;
  options.prefetch_depth = workload_.prefetch_depth;
  options.cache_byte_budget = workload_.call_cache_bytes;
  options.answer_cache = workload_.answer_cache;
  return options;
}

seco::Result<std::unique_ptr<Stack>> Stack::Start(const WorkloadSpec& workload,
                                                  bool traced) {
  std::unique_ptr<Stack> stack(new Stack(workload));
  SECO_ASSIGN_OR_RETURN(stack->fixtures_, BuildFixtures(kRealtimeFactor));
  if (traced) stack->log_ = std::make_shared<CallLog>();
  SECO_ASSIGN_OR_RETURN(
      stack->registry_,
      stack->fixtures_.Merge(stack->log_, &stack->interface_names_));
  stack->server_ = std::make_unique<seco::QueryServer>(
      stack->registry_, stack->server_options());
  stack->net_ = std::make_unique<seco::NetServer>(stack->server_.get());
  SECO_RETURN_IF_ERROR(stack->net_->Start(0));
  return stack;
}

std::vector<Window> PassResult::Windows(double slo_ms) const {
  const size_t n = cpu_ticks.empty() ? 0 : cpu_ticks.size() - 1;
  std::vector<Window> windows(n);
  std::vector<std::vector<double>> latencies(n);
  for (const Sample& s : samples) {
    if (s.fate != Fate::kAnswered) continue;
    const double offset = (s.done_ms - start_ms) / kWindowMs;
    if (offset < 0.0 || offset >= static_cast<double>(n)) continue;
    const size_t w = static_cast<size_t>(offset);
    ++windows[w].answered;
    if (s.latency_ms <= slo_ms) ++windows[w].within_slo;
    latencies[w].push_back(s.latency_ms);
  }
  for (size_t w = 0; w < n; ++w) {
    windows[w].cpu_ms = cpu_ticks[w + 1] - cpu_ticks[w];
    windows[w].latency_p50_ms = Percentile(latencies[w], 50.0);
  }
  return windows;
}

std::vector<double> PassResult::AnsweredLatencies() const {
  std::vector<std::pair<double, double>> arrivals;
  for (const Sample& s : samples) {
    if (s.fate == Fate::kAnswered) arrivals.emplace_back(s.done_ms, s.latency_ms);
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::vector<double> out;
  for (const auto& [done, latency] : arrivals) out.push_back(latency);
  return out;
}

namespace {

Sample SampleOf(const QueryResponse& response, const RequestSpec& spec,
                const Oracle& oracle) {
  Sample s;
  s.fate = Judge(response, spec, oracle);
  s.degraded = response.outcome == ServedOutcome::kDegraded;
  s.level = response.degradation_level;
  s.answer_cache_hit = response.answer_cache_hit;
  s.streamed = response.streamed;
  s.queue_wait_ms = response.queue_wait_ms;
  if (response.streamed) {
    s.total_calls = response.streaming.total_calls;
    s.speculative_calls = response.streaming.speculative_calls;
    s.speculative_wasted = response.streaming.speculative_wasted;
    s.exec_wall_ms = response.streaming.wall_clock_ms;
  } else {
    s.total_calls = response.execution.total_calls;
    s.exec_wall_ms = response.execution.wall_clock_ms;
  }
  return s;
}

Sample TransportError() {
  Sample s;
  s.fate = Fate::kTransportError;
  return s;
}

Sample SampleOfWire(seco::Result<seco::WireResponse> wire,
                    const RequestSpec& spec, const Oracle& oracle) {
  if (!wire.ok()) return TransportError();
  seco::Result<QueryResponse> decoded =
      seco::DecodeAnswerBody(wire.value().body);
  if (!decoded.ok()) return TransportError();
  Sample s = SampleOf(decoded.value(), spec, oracle);
  s.body_bytes = wire.value().body.size();
  return s;
}

/// Closed loop: `workers` threads, each with its own per-thread `round_trip`
/// closure (its connection), pull the next list index until `end` or the
/// deadline; latency runs from just before the send to the last byte.
using RoundTripFn = std::function<Sample(size_t index)>;

std::vector<Sample> RunClosedLoop(size_t begin, size_t end, double deadline_ms,
                                  int workers,
                                  const std::function<RoundTripFn()>& make_worker,
                                  size_t* next_index) {
  std::atomic<size_t> next{begin};
  std::vector<std::vector<Sample>> per_worker(static_cast<size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      RoundTripFn round_trip = make_worker();
      while (NowMs() < deadline_ms) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) break;
        Sample s = round_trip(i);
        s.index = i;
        per_worker[static_cast<size_t>(w)].push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *next_index = std::min(next.load(), end);
  std::vector<Sample> out;
  for (auto& v : per_worker) out.insert(out.end(), v.begin(), v.end());
  return out;
}

}  // namespace

namespace {

PassResult RunClosed(Stack* stack, Path path,
                     const std::vector<RequestSpec>& requests, size_t begin,
                     double deadline_ms, const Oracle& oracle) {
  PassResult pass;
  const Fixtures& fixtures = stack->fixtures();
  const uint16_t port = stack->net().port();
  seco::QueryServer* server = &stack->server();
  std::function<RoundTripFn()> make_worker;
  if (path == Path::kWire) {
    make_worker = [&, port]() -> RoundTripFn {
      auto client = std::make_shared<seco::Result<seco::NetClient>>(
          seco::NetClient::Connect("127.0.0.1", port, kClientTimeoutMs));
      return [&, port, client](size_t i) -> Sample {
        if (!client->ok()) {
          *client =
              seco::NetClient::Connect("127.0.0.1", port, kClientTimeoutMs);
          if (!client->ok()) return TransportError();
        }
        QueryRequest request = MakeRequest(fixtures, requests[i]);
        const double t0 = NowMs();
        seco::Result<seco::WireResponse> wire =
            client->value().Roundtrip(i + 1, request);
        const double t1 = NowMs();
        // A failed stream may hold half a response: redial next time.
        if (!wire.ok()) *client = wire.status();
        Sample s = SampleOfWire(std::move(wire), requests[i], oracle);
        s.latency_ms = t1 - t0;
        s.done_ms = t1;
        return s;
      };
    };
  } else {
    make_worker = [&, server]() -> RoundTripFn {
      return [&, server](size_t i) -> Sample {
        QueryRequest request = MakeRequest(fixtures, requests[i]);
        const double t0 = NowMs();
        QueryResponse response =
            server->SubmitWithId(std::move(request)).future.get();
        const double t1 = NowMs();
        Sample s = SampleOf(response, requests[i], oracle);
        s.latency_ms = t1 - t0;
        s.done_ms = t1;
        return s;
      };
    };
  }
  pass.samples =
      RunClosedLoop(begin, requests.size(), deadline_ms, kConnections,
                    make_worker, &pass.next_index);
  return pass;
}

void Tabulate(PassResult* pass) {
  for (const Sample& s : pass->samples) pass->tally.Add(s.fate, s.degraded);
}

/// Samples whole-process CPU every `kWindowMs` from `start_ms` until
/// stopped, on its own thread.
class CpuTicker {
 public:
  explicit CpuTicker(double start_ms)
      : thread_([this, start_ms] { Loop(start_ms); }) {}
  ~CpuTicker() { Stop(); }
  CpuTicker(const CpuTicker&) = delete;
  CpuTicker& operator=(const CpuTicker&) = delete;

  std::vector<double> Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return ticks_;
  }

 private:
  void Loop(double start_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    for (int i = 0;; ++i) {
      const double wait = start_ms + i * kWindowMs - NowMs();
      if (wait > 0.0 &&
          cv_.wait_for(lock, std::chrono::duration<double, std::milli>(wait),
                       [this] { return stop_; })) {
        return;
      }
      if (stop_) return;
      ticks_.push_back(ProcessCpuMs());
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> ticks_;
  std::thread thread_;
};

}  // namespace

PassResult RunPass(Stack* stack, Path path,
                   const std::vector<RequestSpec>& requests, size_t begin,
                   double seconds, const Oracle& oracle) {
  const double t0 = NowMs();
  const double cpu0 = ProcessCpuMs();
  CpuTicker ticker(t0);
  PassResult pass = RunClosed(stack, path, requests, begin,
                              t0 + seconds * 1000.0, oracle);
  pass.start_ms = t0;
  pass.wall_ms = NowMs() - t0;
  pass.cpu_ms = ProcessCpuMs() - cpu0;
  pass.cpu_ticks = ticker.Stop();
  Tabulate(&pass);
  return pass;
}

PassResult RunAll(Stack* stack, const std::vector<RequestSpec>& requests,
                  const Oracle& oracle) {
  PassResult pass = RunClosed(stack, Path::kWire, requests, 0,
                              std::numeric_limits<double>::infinity(), oracle);
  Tabulate(&pass);
  return pass;
}

namespace {

/// Serial-pass span recorder: spans share the chain's request id and hang
/// off the chain's root.
struct SpanScope {
  SpanScope(std::vector<Span>* spans, int request, int parent,
            const char* name)
      : spans_(spans) {
    span_.id = static_cast<int>(spans->size());
    span_.parent = parent;
    span_.request = request;
    span_.name = name;
    spans->push_back(span_);
    span_.start_ms = NowMs();
  }
  double End() {
    span_.end_ms = NowMs();
    (*spans_)[static_cast<size_t>(span_.id)] = span_;
    return span_.duration();
  }
  int id() const { return span_.id; }
  double start() const { return span_.start_ms; }

 private:
  std::vector<Span>* spans_;
  Span span_;
};

/// One chain through the public module entry points. Returns false with
/// `*error` set when a stage fails or the answer differs from the oracle.
bool RunChain(Stack* stack, const RequestSpec& spec, seco::PlanMemo* memo,
              const Oracle& oracle, int request_id, SerialPass* pass,
              SerialChain* chain, std::string* error) {
  CallLog* log = stack->call_log();
  const seco::ServerOptions options = stack->server_options();
  std::vector<Span>& spans = pass->spans;
  QueryRequest request = MakeRequest(stack->fixtures(), spec);

  SpanScope root(&spans, request_id, -1, "request");
  SpanScope enc_q(&spans, request_id, root.id(), "net.encode_request");
  std::string frame = seco::EncodeQueryRequest(request);
  double codec = enc_q.End();
  SpanScope dec_q(&spans, request_id, root.id(), "net.decode_request");
  seco::Result<QueryRequest> decoded_request =
      seco::DecodeQueryRequest(frame);
  codec += dec_q.End();
  if (!decoded_request.ok()) {
    *error = "decode request: " + decoded_request.status().ToString();
    return false;
  }

  SpanScope parse(&spans, request_id, root.id(), "query.parse");
  seco::Result<seco::ParsedQuery> parsed =
      seco::ParseQuery(decoded_request.value().query_text);
  chain->parse_bind_ms = parse.End();
  if (!parsed.ok()) {
    *error = "parse: " + parsed.status().ToString();
    return false;
  }
  SpanScope bind(&spans, request_id, root.id(), "query.bind");
  seco::Result<seco::BoundQuery> bound =
      seco::BindQuery(parsed.value(), stack->registry());
  chain->parse_bind_ms += bind.End();
  if (!bound.ok()) {
    *error = "bind: " + bound.status().ToString();
    return false;
  }

  seco::OptimizerOptions optimizer_options;
  optimizer_options.k = spec.k;
  optimizer_options.memo = memo;
  SpanScope opt(&spans, request_id, root.id(), "optimizer.optimize");
  seco::Result<seco::OptimizationResult> optimized =
      seco::Optimizer(optimizer_options).Optimize(bound.value());
  chain->optimize_ms = opt.End();
  if (!optimized.ok()) {
    *error = "optimize: " + optimized.status().ToString();
    return false;
  }
  chain->plans_costed = optimized.value().plans_costed;

  QueryResponse response;
  response.streamed = spec.streaming;
  SpanScope exec(&spans, request_id, root.id(), "exec.execute");
  if (spec.streaming) {
    seco::StreamingOptions stream;
    stream.k = spec.k;
    stream.input_bindings = request.input_bindings;
    stream.max_calls = spec.max_calls;
    stream.num_threads = options.num_threads;
    stream.prefetch_depth = options.prefetch_depth;
    stream.cache = &stack->server().cache();
    stream.shared_breakers = &stack->server().breakers();
    seco::Result<seco::StreamingResult> result =
        seco::StreamingEngine(std::move(stream))
            .Execute(optimized.value().plan);
    if (result.ok()) response.streaming = std::move(result).value();
    else *error = "execute: " + result.status().ToString();
  } else {
    seco::ExecutionOptions run;
    run.k = spec.k;
    run.input_bindings = request.input_bindings;
    run.max_calls = spec.max_calls;
    run.num_threads = options.num_threads;
    run.cache = &stack->server().cache();
    run.shared_breakers = &stack->server().breakers();
    seco::Result<seco::ExecutionResult> result =
        seco::ExecutionEngine(std::move(run)).Execute(optimized.value().plan);
    if (result.ok()) response.execution = std::move(result).value();
    else *error = "execute: " + result.status().ToString();
  }
  const double exec_start = exec.start();
  chain->execute_ms = exec.End();
  const double exec_end = exec_start + chain->execute_ms;
  if (!error->empty()) return false;
  std::vector<std::pair<double, double>> intervals;
  for (const CallSpan& call : log->Take()) {
    intervals.emplace_back(call.start_ms, call.end_ms);
    Span span;
    span.id = static_cast<int>(spans.size());
    span.parent = exec.id();
    span.request = request_id;
    span.name = "sim." + stack->interface_names()[static_cast<size_t>(
                             call.interface_index)];
    span.start_ms = call.start_ms;
    span.end_ms = call.end_ms;
    spans.push_back(span);
  }
  chain->blocked_ms = UnionLength(std::move(intervals), exec_start, exec_end);
  response.outcome = ServedOutcome::kCompleted;

  SpanScope enc_a(&spans, request_id, root.id(), "net.encode_answer");
  std::string body = seco::EncodeAnswerBody(response);
  codec += enc_a.End();
  SpanScope dec_a(&spans, request_id, root.id(), "net.decode_answer");
  seco::Result<QueryResponse> decoded = seco::DecodeAnswerBody(body);
  codec += dec_a.End();
  chain->codec_ms = codec;
  chain->total_ms = root.End();
  if (!decoded.ok()) {
    *error = "decode answer: " + decoded.status().ToString();
    return false;
  }
  if (Judge(decoded.value(), spec, oracle) != Fate::kAnswered) {
    *error = std::string("serial ") + kTemplateNames[spec.tmpl] +
             " answer differs from the oracle";
    return false;
  }
  return true;
}

}  // namespace

SerialPass RunSerialPass(Stack* stack, const Oracle& oracle, int reps) {
  SerialPass pass;
  CallLog* log = stack->call_log();
  std::unique_ptr<seco::PlanMemo> memo;
  if (stack->workload().answer_cache) {
    memo = std::make_unique<seco::PlanMemo>(
        stack->server_options().plan_memo_bytes);
  }
  std::vector<RequestSpec> templates;
  for (int t = 0; t < kNumTemplates; ++t) {
    for (bool streaming : {false, true}) {
      RequestSpec spec;
      spec.tmpl = t;
      spec.streaming = streaming;
      templates.push_back(spec);
    }
  }
  // One untimed chain per template first, so the pass measures the
  // workload's steady state rather than first-touch costs.
  std::string error;
  {
    SerialPass warmup;
    SerialChain ignored;
    log->set_enabled(true);
    for (const RequestSpec& spec : templates) {
      if (!RunChain(stack, spec, memo.get(), oracle, -1, &warmup, &ignored,
                    &error)) {
        break;
      }
    }
    log->set_enabled(false);
    log->Take();
  }
  std::vector<std::vector<SerialChain>> runs(templates.size());
  log->set_enabled(true);
  const double t0 = NowMs();
  int request_id = 0;
  for (int rep = 0; rep < reps && error.empty(); ++rep) {
    for (size_t t = 0; t < templates.size() && error.empty(); ++t) {
      SerialChain chain;
      if (RunChain(stack, templates[t], memo.get(), oracle, request_id++,
                   &pass, &chain, &error)) {
        runs[t].push_back(chain);
        pass.attributed_ms += chain.parse_bind_ms + chain.optimize_ms +
                              chain.execute_ms + chain.codec_ms;
      }
    }
  }
  pass.wall_ms = NowMs() - t0;
  log->set_enabled(false);
  log->Take();
  if (!error.empty()) {
    pass.ok = false;
    pass.error = error;
    return pass;
  }
  for (size_t t = 0; t < templates.size(); ++t) {
    auto median_of = [&](auto field) {
      std::vector<double> v;
      for (const SerialChain& c : runs[t]) v.push_back(field(c));
      return Median(v);
    };
    SerialChain m;
    m.label = std::string(kTemplateNames[templates[t].tmpl]) +
              (templates[t].streaming ? "/streaming" : "/materializing");
    m.weight = kMix.template_share[templates[t].tmpl] *
               (templates[t].streaming ? kMix.streaming_share
                                       : 1.0 - kMix.streaming_share);
    m.parse_bind_ms = median_of([](const SerialChain& c) { return c.parse_bind_ms; });
    m.optimize_ms = median_of([](const SerialChain& c) { return c.optimize_ms; });
    m.plans_costed = static_cast<int>(median_of(
        [](const SerialChain& c) { return static_cast<double>(c.plans_costed); }));
    m.execute_ms = median_of([](const SerialChain& c) { return c.execute_ms; });
    m.blocked_ms = median_of([](const SerialChain& c) { return c.blocked_ms; });
    m.codec_ms = median_of([](const SerialChain& c) { return c.codec_ms; });
    m.total_ms = median_of([](const SerialChain& c) { return c.total_ms; });
    pass.chains.push_back(m);
  }
  return pass;
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double StatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  const double hwm = StatusMb("VmHWM");
  if (hwm > 0.0) return hwm;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
