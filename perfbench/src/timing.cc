#include "timing.h"

namespace perfbench {

double NowMs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void CallLog::Add(const CallSpan& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<CallSpan> CallLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CallSpan> out;
  out.swap(spans_);
  return out;
}

seco::Result<seco::ServiceResponse> TimingHandler::Call(
    const seco::ServiceRequest& request) {
  if (!log_->enabled()) return inner_->Call(request);
  CallSpan span;
  span.interface_index = interface_index_;
  span.start_ms = NowMs();
  seco::Result<seco::ServiceResponse> response = inner_->Call(request);
  span.end_ms = NowMs();
  if (response.ok()) span.latency_ms = response.value().latency_ms;
  log_->Add(span);
  return response;
}

seco::Result<std::shared_ptr<seco::ServiceRegistry>> MergeRegistries(
    const std::vector<const seco::ServiceRegistry*>& sources,
    std::shared_ptr<CallLog> log, std::vector<std::string>* interface_names) {
  auto merged = std::make_shared<seco::ServiceRegistry>();
  for (const seco::ServiceRegistry* source : sources) {
    for (const std::string& name : source->mart_names()) {
      SECO_ASSIGN_OR_RETURN(auto mart, source->FindMart(name));
      SECO_RETURN_IF_ERROR(merged->RegisterMart(mart));
    }
  }
  for (const seco::ServiceRegistry* source : sources) {
    for (const std::string& name : source->interface_names()) {
      SECO_ASSIGN_OR_RETURN(auto iface, source->FindInterface(name));
      const std::string mart = source->MartOfInterface(name);
      if (log == nullptr) {
        SECO_RETURN_IF_ERROR(merged->RegisterInterface(iface, mart));
        continue;
      }
      const int index = interface_names != nullptr
                            ? static_cast<int>(interface_names->size())
                            : -1;
      if (interface_names != nullptr) interface_names->push_back(name);
      auto handler = std::make_shared<TimingHandler>(iface->handler_ptr(),
                                                     index, log);
      auto twin = std::make_shared<seco::ServiceInterface>(
          iface->name(), iface->schema_ptr(), iface->pattern(), iface->kind(),
          iface->stats(), std::move(handler));
      SECO_RETURN_IF_ERROR(merged->RegisterInterface(twin, mart));
    }
  }
  for (const seco::ServiceRegistry* source : sources) {
    for (const std::string& name : source->pattern_names()) {
      SECO_ASSIGN_OR_RETURN(auto pattern,
                            source->FindConnectionPattern(name));
      SECO_RETURN_IF_ERROR(merged->RegisterConnectionPattern(pattern));
    }
  }
  return merged;
}

}  // namespace perfbench
