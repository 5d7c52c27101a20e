// Measurement from outside the program: a clock, an in-memory span log,
// and a timing decorator around each registry interface's
// `ServiceCallHandler`, installed in a twin registry built with the public
// `ServiceRegistry` / `ServiceInterface` API.
#ifndef PERFBENCH_TIMING_H_
#define PERFBENCH_TIMING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "service/invocation.h"
#include "service/registry.h"

namespace perfbench {

/// Milliseconds since the first call in this process (steady clock).
double NowMs();

/// One span. `parent` and `request` are -1 when unknown: service calls made
/// under concurrency cannot be tied to a query because `ServiceRequest`
/// carries no query id, so they are reported per interface only.
struct Span {
  int id = -1;
  int parent = -1;
  int request = -1;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double duration() const { return end_ms - start_ms; }
};

/// A service call as the decorator saw it.
struct CallSpan {
  int interface_index = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// Simulated latency the backend charged (before realtime scaling).
  double latency_ms = 0.0;
};

/// Thread-safe, append-only log of service-call spans. Recording is off
/// until `set_enabled(true)`, so the decorator costs one atomic load when
/// tracing is off.
class CallLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void Add(const CallSpan& span);
  /// Moves the recorded spans out and clears the log.
  std::vector<CallSpan> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<CallSpan> spans_;
};

/// Transparent timing decorator: forwards every call to `inner` and, while
/// the log is enabled, records the call's span.
class TimingHandler : public seco::ServiceCallHandler {
 public:
  TimingHandler(std::shared_ptr<seco::ServiceCallHandler> inner,
                int interface_index, std::shared_ptr<CallLog> log)
      : inner_(std::move(inner)),
        interface_index_(interface_index),
        log_(std::move(log)) {}

  seco::Result<seco::ServiceResponse> Call(
      const seco::ServiceRequest& request) override;

 private:
  std::shared_ptr<seco::ServiceCallHandler> inner_;
  int interface_index_;
  std::shared_ptr<CallLog> log_;
};

/// Registers every mart, interface and connection pattern of `sources` in
/// one new registry. When `log` is set, each interface is a twin whose
/// handler is a `TimingHandler` around the original, and
/// `interface_names` receives the names in decorator index order.
seco::Result<std::shared_ptr<seco::ServiceRegistry>> MergeRegistries(
    const std::vector<const seco::ServiceRegistry*>& sources,
    std::shared_ptr<CallLog> log, std::vector<std::string>* interface_names);

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_H_
