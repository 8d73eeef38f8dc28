// One traced run, as `--trace-out PATH` asks for it: construction
// installs a SpanCollector as the process-wide current() and starts the
// sampling profiler; finish() uninstalls the collector (when it is still
// current), stops the profiler and atomically writes the dp.trace.v1
// document to PATH. The benches (bench::Session) and the example CLIs
// (cli::Telemetry) both drive their tracing through this one class.
#pragma once

#include <cstddef>
#include <string>

#include "obs/profiler.hpp"
#include "obs/span.hpp"

namespace dp::obs {

class TraceSession {
 public:
  explicit TraceSession(std::string path);
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  SpanCollector& spans() { return spans_; }

  /// Ends the run and writes the document (`id_key`/`id`/`jobs` as in
  /// make_trace_document), reporting "[trace] wrote PATH" on stdout or
  /// the failure on stderr. Returns false only when the write failed.
  bool finish(const std::string& id_key, const std::string& id,
              std::size_t jobs, double wall_seconds);

 private:
  std::string path_;
  SpanCollector spans_;
  SamplingProfiler profiler_;
};

}  // namespace dp::obs
