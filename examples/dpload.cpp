// dpload -- open-loop load generator for dpserved.
//
// Fires analyze requests at a target QPS from a fixed schedule (open
// loop: a slow server does not slow the arrival process, it just gets
// deeper queues -- which is exactly the admission-control behavior the
// bench measures), records per-request latency split into COLD (the
// server computed the profile) and WARM (served from the resident
// cache, per the response's "cached" flag), and writes a dp.served.v1
// document that bench/validate_metrics accepts.
//
//   dpload --unix PATH | --host IP --port N   attach to a running server
//   dpload --spawn PATH/TO/dpserved           fork+exec a private server
//                                             on a temp socket, SIGTERM
//                                             it at the end, and require
//                                             a clean drain (exit 0)
//
//   --qps Q           target arrival rate (default 20)
//   --requests N      schedule length (default 60)
//   --connections C   sender threads = max in-flight (default 4)
//   --circuits LIST   comma-separated round-robin mix (default
//                     c17,alu181)
//   --model M         sa | bf.and | bf.or | hybrid (default sa)
//   --jobs N          per-request engine jobs (default 1)
//   --deadline-ms N   attach a deadline to every request (default none)
//   --out PATH        output document (default BENCH_served.json)
//   --assert-warm-faster   exit 1 unless warm p50/p99 < cold p50/p99
//   --workers/--queue-depth/--cache-dir  forwarded to --spawn'd server
//   --quiet / --version
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"

using dp::obs::JsonValue;
using Clock = std::chrono::steady_clock;

namespace {

namespace ops = dp::analysis::ops;

/// The flags, as option rows (analysis/ops.hpp). --port has no default:
/// absent, no TCP target. --workers, --queue-depth and --cache-dir are
/// forwarded to a --spawn'd server.
const ops::Row kRows[] = {
    {.key = "unix", .kind = ops::Kind::Text},
    {.key = "host", .kind = ops::Kind::Text, .text = "127.0.0.1"},
    {.key = "port", .kind = ops::Kind::Count, .unset = true},
    {.key = "spawn", .kind = ops::Kind::Text},
    {.key = "qps", .kind = ops::Kind::Number, .fallback = 20,
     .positive = true},
    {"requests", ops::Kind::Count, 60},
    {"connections", ops::Kind::Count, 4},
    {.key = "circuits", .kind = ops::Kind::Text, .text = "c17,alu181"},
    {.key = "model", .kind = ops::Kind::Text, .text = "sa"},
    {"jobs", ops::Kind::Count, 1},
    {"deadline_ms", ops::Kind::Count},
    {.key = "out", .kind = ops::Kind::Text, .text = "BENCH_served.json"},
    {"workers", ops::Kind::Count, 2},
    {"queue_depth", ops::Kind::Count, 64},
    {.key = "cache_dir", .kind = ops::Kind::Text},
    {"assert_warm_faster", ops::Kind::Bool, 0},
    {"quiet", ops::Kind::Bool, 0},
};
const ops::Schema kFlags{"dpload", kRows};

std::string usage() {
  return "usage: dpload (--unix PATH | --host IP --port N | --spawn "
         "DPSERVED) [options]\n" +
         ops::usage(kFlags) + "  --version\n";
}

struct Sample {
  double latency_ms = 0.0;
  bool ok = false;
  bool cached = false;
  std::string error_code;  ///< non-empty for ok=false responses
};

/// Nearest-rank percentile over an unsorted copy.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::min(
      v.size() - 1,
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size())));
  return v[rank];
}

JsonValue latency_block(const std::vector<double>& v) {
  JsonValue j = JsonValue::object();
  j["count"] = v.size();
  j["p50_ms"] = percentile(v, 50.0);
  j["p90_ms"] = percentile(v, 90.0);
  j["p99_ms"] = percentile(v, 99.0);
  j["max_ms"] = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  dp::cli::handle_version_flag(args, "dpload");

  std::vector<std::string> pos;
  const ops::Options o = dp::cli::parse_options(kFlags, args, &pos, 0, usage());
  std::string unix_path = o.text("unix");
  const std::string& host = o.text("host");
  const int port = o.given("port") ? static_cast<int>(o.count("port")) : -1;
  const std::string& spawn = o.text("spawn");
  const double qps = o.number("qps");
  const std::size_t requests = o.count("requests");
  std::size_t connections = o.count("connections");
  const std::string& circuits_arg = o.text("circuits");
  const std::string& model = o.text("model");
  const std::size_t jobs = o.count("jobs");
  const std::uint64_t deadline_ms = o.count("deadline_ms");
  const std::string& out = o.text("out");
  const std::size_t spawn_workers = o.count("workers");
  const std::size_t spawn_queue_depth = o.count("queue_depth");
  const std::string& spawn_cache_dir = o.text("cache_dir");
  const bool assert_warm_faster = o.flag("assert_warm_faster");
  const bool quiet = o.flag("quiet");
  if (connections == 0) connections = 1;

  std::vector<std::string> circuits;
  for (std::size_t start = 0; start <= circuits_arg.size();) {
    const std::size_t comma = circuits_arg.find(',', start);
    const std::string name = circuits_arg.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    if (!name.empty()) circuits.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (circuits.empty()) {
    std::cerr << "error: --circuits needs at least one name\n";
    return 2;
  }

  // --spawn: run a private dpserved on a temp Unix socket. The socket
  // lives in /tmp because sun_path caps at ~107 bytes -- a build-tree
  // path can exceed that.
  pid_t child = -1;
  if (!spawn.empty()) {
    if (!unix_path.empty() || port >= 0) {
      std::cerr << "error: --spawn conflicts with --unix/--port\n";
      return 2;
    }
    unix_path = "/tmp/dpload." + std::to_string(::getpid()) + ".sock";
    child = ::fork();
    if (child < 0) {
      std::cerr << "dpload: fork: " << std::strerror(errno) << "\n";
      return 1;
    }
    if (child == 0) {
      std::vector<std::string> cargs = {
          spawn,          "--unix",        unix_path,
          "--workers",    std::to_string(spawn_workers),
          "--queue-depth", std::to_string(spawn_queue_depth),
          "--jobs",       std::to_string(jobs),
          "--quiet"};
      if (!spawn_cache_dir.empty()) {
        cargs.push_back("--cache-dir");
        cargs.push_back(spawn_cache_dir);
      }
      std::vector<char*> cargv;
      for (std::string& a : cargs) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      ::execv(spawn.c_str(), cargv.data());
      std::cerr << "dpload: exec " << spawn << ": " << std::strerror(errno)
                << "\n";
      ::_exit(127);
    }
    // Readiness: poll-connect until the socket answers a ping.
    bool up = false;
    for (int attempt = 0; attempt < 300; ++attempt) {
      std::string err;
      if (auto probe = dp::serve::Client::connect_unix(unix_path, &err)) {
        JsonValue ping = JsonValue::object();
        ping["type"] = "ping";
        JsonValue resp;
        if (probe->call(ping, &resp, &err)) {
          up = true;
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!up) {
      std::cerr << "dpload: spawned server never became ready\n";
      ::kill(child, SIGKILL);
      return 1;
    }
  }
  if (unix_path.empty() && port < 0) {
    std::cerr << usage();
    return 2;
  }

  auto connect = [&](std::string* err) {
    return unix_path.empty()
               ? dp::serve::Client::connect_tcp(host, port, err)
               : dp::serve::Client::connect_unix(unix_path, err);
  };

  // Open-loop schedule: request i is DUE at start + i/qps; sender
  // threads claim indices atomically and sleep until the due time, so
  // lateness never compresses later arrivals.
  std::vector<Sample> samples(requests);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> transport_failed{false};
  const auto start_time = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> senders;
  senders.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    senders.emplace_back([&] {
      std::string err;
      auto client = connect(&err);
      if (!client) {
        std::cerr << "dpload: " << err << "\n";
        transport_failed.store(true);
        return;
      }
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests) return;
        const auto due =
            start_time + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(i) / qps));
        std::this_thread::sleep_until(due);
        JsonValue req = JsonValue::object();
        req["id"] = static_cast<long long>(i);
        req["type"] = "analyze";
        req["circuit"] = circuits[i % circuits.size()];
        if (deadline_ms > 0) req["deadline_ms"] = deadline_ms;
        JsonValue opts = JsonValue::object();
        opts["model"] = model;
        opts["jobs"] = jobs;
        req["options"] = std::move(opts);
        const auto t0 = Clock::now();
        JsonValue resp;
        if (!client->call(req, &resp, &err)) {
          samples[i].error_code = "transport:" + err;
          transport_failed.store(true);
          return;
        }
        samples[i].latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        samples[i].ok = resp.is_object() && resp.find("ok") &&
                        resp.at("ok").as_bool();
        if (samples[i].ok) {
          samples[i].cached = resp.find("cached") != nullptr &&
                              resp.at("cached").as_bool();
        } else if (const JsonValue* e = resp.find("error")) {
          samples[i].error_code = e->at("code").as_string();
        }
      }
    });
  }
  for (std::thread& t : senders) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start_time).count();

  // Pull the server's own counters (queue high-water, rejections,
  // cache hits) into the document, then shut a spawned server down and
  // require a clean drain.
  JsonValue server_metrics;
  {
    std::string err;
    if (auto client = connect(&err)) {
      JsonValue req = JsonValue::object();
      req["type"] = "metrics";
      JsonValue resp;
      if (client->call(req, &resp, &err) && resp.find("document")) {
        server_metrics = resp.at("document");
      }
    }
  }
  int server_exit = -1;
  if (child > 0) {
    ::kill(child, SIGTERM);
    int status = 0;
    if (::waitpid(child, &status, 0) == child && WIFEXITED(status)) {
      server_exit = WEXITSTATUS(status);
    }
    ::unlink(unix_path.c_str());
  }

  // Aggregate.
  std::vector<double> cold, warm;
  std::size_t ok_count = 0;
  std::map<std::string, std::size_t> errors;
  for (const Sample& s : samples) {
    if (s.ok) {
      ++ok_count;
      (s.cached ? warm : cold).push_back(s.latency_ms);
    } else if (!s.error_code.empty()) {
      ++errors[s.error_code];
    }
  }

  JsonValue doc = JsonValue::object();
  doc["schema"] = "dp.served.v1";
  doc["tool"] = "dpload";
  doc["model"] = model;
  JsonValue mix = JsonValue::array();
  for (const std::string& c : circuits) mix.push_back(c);
  doc["circuits"] = std::move(mix);
  doc["connections"] = connections;
  doc["target_qps"] = qps;
  doc["requests"] = requests;
  doc["ok"] = ok_count;
  doc["achieved_qps"] =
      elapsed_s > 0.0 ? static_cast<double>(ok_count) / elapsed_s : 0.0;
  JsonValue latency = JsonValue::object();
  latency["cold"] = latency_block(cold);
  latency["warm"] = latency_block(warm);
  doc["latency"] = std::move(latency);
  JsonValue errs = JsonValue::object();
  for (const auto& [code, n] : errors) errs[code] = n;
  doc["errors"] = std::move(errs);
  if (!server_metrics.is_null()) doc["server"] = server_metrics;
  if (child > 0) doc["server_exit"] = server_exit;

  std::string werr;
  if (!dp::obs::write_json_file_atomic(out, doc, &werr)) {
    std::cerr << "dpload: FAILED to write " << out << ": " << werr << "\n";
    return 1;
  }
  if (!quiet) {
    std::cout << "dpload: " << ok_count << "/" << requests << " ok, "
              << doc.at("achieved_qps").as_double() << " qps achieved "
              << "(target " << qps << ")\n"
              << "  cold: n=" << cold.size() << " p50="
              << percentile(cold, 50.0) << "ms p99="
              << percentile(cold, 99.0) << "ms\n"
              << "  warm: n=" << warm.size() << " p50="
              << percentile(warm, 50.0) << "ms p99="
              << percentile(warm, 99.0) << "ms\n"
              << "  wrote " << out << "\n";
    for (const auto& [code, n] : errors) {
      std::cout << "  error " << code << ": " << n << "\n";
    }
  }

  int rc = 0;
  if (transport_failed.load()) {
    std::cerr << "dpload: transport failure during the run\n";
    rc = 1;
  }
  if (child > 0 && server_exit != 0) {
    std::cerr << "dpload: spawned server exited " << server_exit
              << " (expected a clean drain)\n";
    rc = 1;
  }
  if (assert_warm_faster) {
    const bool have = !cold.empty() && !warm.empty();
    const bool faster = have &&
                        percentile(warm, 50.0) < percentile(cold, 50.0) &&
                        percentile(warm, 99.0) < percentile(cold, 99.0);
    if (!faster) {
      std::cerr << "dpload: --assert-warm-faster FAILED (cold n="
                << cold.size() << " warm n=" << warm.size() << ")\n";
      rc = 1;
    }
  }
  return rc;
}
