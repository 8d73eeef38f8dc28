#include "obs/trace_session.hpp"

#include <iostream>
#include <utility>

namespace dp::obs {

TraceSession::TraceSession(std::string path) : path_(std::move(path)) {
  SpanCollector::install(&spans_);
  profiler_.start();
}

bool TraceSession::finish(const std::string& id_key, const std::string& id,
                          std::size_t jobs, double wall_seconds) {
  if (SpanCollector::current() == &spans_) SpanCollector::install(nullptr);
  profiler_.stop();
  const JsonValue doc = make_trace_document(id_key, id, jobs, spans_,
                                            profiler_.to_json(), wall_seconds);
  std::string error;
  if (!write_json_file_atomic(path_, doc, &error)) {
    std::cerr << "[trace] FAILED to write " << path_ << ": " << error << "\n";
    return false;
  }
  std::cout << "[trace] wrote " << path_ << "\n";
  return true;
}

}  // namespace dp::obs
