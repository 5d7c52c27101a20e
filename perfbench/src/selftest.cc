// Self-tests of the benchmark's own logic. They run at the start of every
// benchmark run (and alone with `--selftest`); any failure marks the run
// incorrect.
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  std::vector<std::string> Take() { return std::move(failures_); }

 private:
  std::vector<std::string> failures_;
};

void TestPercentileRule(Checker* c) {
  c->Expect(SamplesBeyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  c->Expect(TailPercentileLevel(1000) == 99.0, "1000 samples -> p99");
  c->Expect(TailPercentileLevel(999) == 95.0, "999 samples -> p95");
  c->Expect(TailPercentileLevel(10000) == 99.9, "10000 samples -> p99.9");
  c->Expect(TailPercentileLevel(200) == 95.0, "200 samples -> p95");
  c->Expect(TailPercentileLevel(199) == 90.0, "199 samples -> p90");
  c->Expect(TailPercentileLevel(20) == 50.0, "20 samples -> p50");
  c->Expect(TailPercentileLevel(19) == 0.0, "19 samples -> none");
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  c->Expect(Percentile(v, 99.0) == 990.0, "nearest-rank p99 of 1..1000");
  c->Expect(Percentile(v, 50.0) == 500.0, "nearest-rank p50 of 1..1000");
  c->Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
  std::vector<double> ramp;
  for (int i = 0; i < 1999; ++i) ramp.push_back(i);
  c->Expect(MedianOfBlockPercentiles(ramp, 99.0, 1000) ==
                Percentile(ramp, 99.0),
            "fewer than two blocks: the plain percentile");
  for (int i = 1999; i < 3000; ++i) ramp.push_back(i);
  // Blocks [0,1000), [1000,2000), [2000,3000): p99s 989, 1989, 2989.
  c->Expect(MedianOfBlockPercentiles(ramp, 99.0, 1000) == 1989.0,
            "median of per-block p99s");
}

void TestErrorFraction(Checker* c) {
  Tally t;
  t.Add(Fate::kAnswered);
  t.Add(Fate::kAnswered, /*degraded_answer=*/true);
  t.Add(Fate::kAnswered);
  t.Add(Fate::kShed);
  t.Add(Fate::kExpired);
  t.Add(Fate::kFailed);
  t.Add(Fate::kCancelled);
  t.Add(Fate::kTransportError);
  t.Add(Fate::kWrongAnswer);
  c->Expect(t.attempted() == 9, "tally: attempted counts every fate");
  c->Expect(t.answered() == 3, "tally: answered");
  c->Expect(std::abs(t.error_fraction() - 6.0 / 9.0) < 1e-12,
            "error_fraction counts shed, expired, failed, cancelled, "
            "transport errors and wrong answers");
  c->Expect(std::abs(t.degraded_fraction() - 1.0 / 9.0) < 1e-12,
            "degraded_fraction over attempted");
  c->Expect(t.failed() == 3, "failed = execution + transport + wrong answer");
  Tally only_transport;
  only_transport.Add(Fate::kTransportError);
  c->Expect(only_transport.error_fraction() == 1.0,
            "a transport error alone is a full error");
}

void TestUnion(Checker* c) {
  std::vector<std::pair<double, double>> spans = {{0, 2}, {1, 3}, {5, 6}};
  c->Expect(UnionLength(spans, 0, 10) == 4.0, "union of overlapping spans");
  c->Expect(UnionLength(spans, 1.5, 5.5) == 2.0, "union clipped to a window");
}

void TestRequestLists(Checker* c) {
  for (const WorkloadSpec& w : Workloads()) {
    const auto a = GenerateRequests(w, 7, 2000);
    const auto b = GenerateRequests(w, 7, 2000);
    const auto d = GenerateRequests(w, 8, 2000);
    bool same = true, differs = false;
    for (size_t i = 0; i < a.size(); ++i) {
      same = same && a[i].identity() == b[i].identity() &&
             a[i].interactive == b[i].interactive;
      differs = differs || a[i].identity() != d[i].identity();
    }
    c->Expect(same, w.name + ": same seed, same request list");
    c->Expect(differs, w.name + ": another seed, another request list");
    if (w.identity == Identity::kUnique) {
      std::set<uint64_t> seen;
      for (const RequestSpec& r : a) seen.insert(r.identity());
      c->Expect(seen.size() == a.size(), "cold_mix: every identity unique");
    }
  }
}

void TestDecoratorTransparent(Checker* c) {
  seco::Result<Fixtures> fixtures = BuildFixtures(0.0);
  c->Expect(fixtures.ok(), "fixtures build");
  if (!fixtures.ok()) return;
  auto log = std::make_shared<CallLog>();
  std::vector<std::string> names;
  auto plain = fixtures.value().Merge(nullptr, nullptr);
  auto wrapped = fixtures.value().Merge(log, &names);
  c->Expect(plain.ok() && wrapped.ok(), "twin registries build");
  if (!plain.ok() || !wrapped.ok()) return;
  seco::ServerOptions options;
  options.ladder.enabled = false;
  options.runner_threads = 1;
  seco::QueryServer plain_server(plain.value(), options);
  seco::QueryServer wrapped_server(wrapped.value(), options);
  log->set_enabled(true);
  for (int t = 0; t < kNumTemplates; ++t) {
    for (bool streaming : {false, true}) {
      RequestSpec spec;
      spec.tmpl = t;
      spec.streaming = streaming;
      seco::QueryResponse a =
          plain_server.Submit(MakeRequest(fixtures.value(), spec)).get();
      seco::QueryResponse b =
          wrapped_server.Submit(MakeRequest(fixtures.value(), spec)).get();
      const auto& ca = a.streamed ? a.streaming.combinations
                                  : a.execution.combinations;
      const auto& cb = b.streamed ? b.streaming.combinations
                                  : b.execution.combinations;
      c->Expect(a.outcome == seco::ServedOutcome::kCompleted &&
                    b.outcome == seco::ServedOutcome::kCompleted &&
                    !ca.empty() && SameCombinations(ca, cb),
                std::string("decorator is transparent on ") +
                    kTemplateNames[t] + (streaming ? " (streaming)" : ""));
    }
  }
  log->set_enabled(false);
  const std::vector<CallSpan> calls = log->Take();
  c->Expect(!calls.empty(), "decorator recorded the wrapped calls");
  bool indices_ok = true;
  for (const CallSpan& call : calls) {
    indices_ok = indices_ok && call.interface_index >= 0 &&
                 call.interface_index < static_cast<int>(names.size()) &&
                 call.end_ms >= call.start_ms;
  }
  c->Expect(indices_ok, "decorator spans name a known interface");
}

}  // namespace

std::vector<std::string> RunSelfTests() {
  Checker c;
  TestPercentileRule(&c);
  TestErrorFraction(&c);
  TestUnion(&c);
  TestRequestLists(&c);
  TestDecoratorTransparent(&c);
  return c.Take();
}

}  // namespace perfbench
