// dpserved -- resident fault-analysis service.
//
// Keeps parsed circuits, analysis profiles and (optionally) an artifact
// store hot in one long-lived process, and serves analyze / ndetect /
// grade / hash / evict / metrics requests over a length-prefixed JSON
// protocol
// (see src/serve/protocol.hpp). Companion load generator: dpload.
//
//   dpserved --unix /tmp/dp.sock [flags]     Unix-domain socket
//   dpserved --port 0 [flags]                TCP on 127.0.0.1 (0 = pick)
//
//   --workers N        request-level worker threads (default 1)
//   --jobs N           default per-request engine jobs (default 1,
//                      at most the hardware threads; a request's
//                      options.jobs overrides)
//   --queue-depth N    admission queue capacity (default 64)
//   --deadline-ms N    default per-request deadline (default 0 = none)
//   --cache-entries N  in-memory profile LRU capacity (default 64)
//   --quiet            no startup/shutdown chatter on stdout
//
// Shared telemetry flags: --metrics-json PATH, --trace-out PATH,
// --cache-dir PATH (persistent artifact store). --version prints the
// build id.
//
// SIGTERM/SIGINT (or a "shutdown" request) drain: in-flight and queued
// requests finish, late arrivals get {"error":{"code":"shutting_down"}},
// then the process exits 0. The metrics document is written after the
// drain so it covers the whole run.
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cli_common.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

namespace ops = dp::analysis::ops;

/// The flags, as option rows (analysis/ops.hpp); defaults come from the
/// option structs. --port has no default: absent, no TCP listener.
const dp::serve::ServerOptions kServer;
const dp::serve::ServiceOptions kService;
const ops::Row kRows[] = {
    {.key = "unix", .kind = ops::Kind::Text},
    {.key = "port", .kind = ops::Kind::Count, .unset = true},
    {"workers", ops::Kind::Count, double(kServer.workers)},
    {"jobs", ops::Kind::Count, double(kService.jobs), ops::kAnyModel,
     ops::kHardwareThreads},
    {"queue_depth", ops::Kind::Count, double(kServer.queue_depth)},
    {"deadline_ms", ops::Kind::Count, double(kServer.default_deadline_ms)},
    {"cache_entries", ops::Kind::Count,
     double(kService.profile_cache_entries)},
    {"quiet", ops::Kind::Bool, 0},
};
const ops::Schema kFlags{"dpserved", kRows};

std::string usage() {
  return "usage: dpserved (--unix PATH | --port N) [options]\n" +
         ops::usage(kFlags) +
         "  --metrics-json PATH, --trace-out PATH, --cache-dir PATH, "
         "--version\n";
}

// Self-pipe: the signal handler writes one byte; a watcher thread turns
// that into an orderly drain (signal handlers must not take locks).
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  dp::cli::handle_version_flag(args, "dpserved");
  dp::cli::Telemetry telemetry;
  telemetry.strip_flags(args);

  std::vector<std::string> pos;
  const ops::Options o = dp::cli::parse_options(kFlags, args, &pos, 0, usage());
  dp::serve::ServerOptions server_opts;
  dp::serve::ServiceOptions service_opts;
  server_opts.unix_path = o.text("unix");
  if (o.given("port")) server_opts.tcp_port = static_cast<int>(o.count("port"));
  server_opts.workers = o.count("workers");
  service_opts.jobs = o.count("jobs");
  server_opts.queue_depth = o.count("queue_depth");
  server_opts.default_deadline_ms = o.count("deadline_ms");
  service_opts.profile_cache_entries = o.count("cache_entries");
  const bool quiet = o.flag("quiet");
  if (server_opts.unix_path.empty() && server_opts.tcp_port < 0) {
    std::cerr << usage();
    return 2;
  }

  // --cache-dir means what it means to dpcli: persistent profiles and
  // checkpoint/resume, here shared by every request. The service opens
  // its own store on the directory and shares the telemetry registry,
  // so --metrics-json and the "metrics" request expose one view.
  service_opts.cache_dir = telemetry.cache_dir();
  dp::serve::Service service(service_opts, &telemetry.metrics());
  dp::serve::Server server(server_opts, &service, &telemetry.metrics());
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "dpserved: " << error << "\n";
    return 1;
  }
  if (!quiet) {
    if (!server_opts.unix_path.empty()) {
      std::cout << "dpserved: listening on " << server_opts.unix_path << "\n";
    } else {
      std::cout << "dpserved: listening on 127.0.0.1:" << server.tcp_port()
                << "\n";
    }
    std::cout.flush();
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "dpserved: pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::thread watcher([&server] {
    char byte;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.initiate_drain();
  });

  server.wait();  // returns when drained (signal or "shutdown" request)
  // Unblock the watcher if the drain came from a "shutdown" request.
  on_signal(0);
  watcher.join();
  if (!quiet) std::cout << "dpserved: drained, exiting\n";
  return telemetry.write("dpserved") ? 0 : 1;
}
