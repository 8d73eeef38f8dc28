// served_mix: dpserved driven open-loop over a Unix socket by this
// process, at a ladder of arrival rates. The mix:
//   analyze  resident profile-cache hits after warm-up (framing, JSON, LRU)
//   grade    wide random-pattern simulation, a fresh seed per request
//   ndetect  exact n-detection on a fresh vector set per request: DP on
//            the resident frozen forest, then satcount queries
// Each request is timed from its due time, so a stall shows in the
// latency of every request queued behind it.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

#include "analysis/ndetect.hpp"
#include "analysis/profile_io.hpp"
#include "common.hpp"
#include "dp_pass.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "serve/client.hpp"
#include "sim/wide_sim.hpp"

namespace pb {

namespace {

using obs::JsonValue;

constexpr std::size_t kConnections = 4;
constexpr int kSpawns = 3;  ///< set-ups (spawn until first ping) at the start
/// Latency limit on each rung's p90, ms.
constexpr double kSloMs = 150.0;
/// A request this late to be sent ends its rung (the limit is missed).
constexpr double kAbandonMs = 4 * kSloMs;
/// A run's phases, as shares of --seconds: kPassShare of latency passes
/// at kBaseRate interleaved with capacity passes (closed loop), then the
/// ladder's open-loop rungs at kLoadShares of the capacity.
constexpr double kBaseRate = 50.0;
constexpr double kLatencyPassS = 2.0;  ///< one latency pass's schedule
constexpr std::size_t kCapacityBatch = 400;  ///< requests per capacity pass
constexpr double kPassShare = 0.8;
constexpr double kLoadShares[] = {0.5, 0.75};
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kGradePatterns = 2048;
constexpr std::size_t kNDetectVectors = 32;
constexpr std::size_t kNDetectN = 4;

const char* const kAnalyzeCircuits[] = {"c95", "alu181", "c432"};
const char* const kGradeCircuits[] = {"c432", "c499", "c1355"};
const char* const kNDetectCircuits[] = {"c95", "alu181"};
const char* const kTypes[] = {"analyze", "grade", "ndetect"};

struct Request {
  double due = 0.0;  ///< seconds after the rung start
  int type = 0;      ///< index into kTypes
  JsonValue body;
};

struct Outcome {
  double send = 0.0;  ///< seconds after the rung start
  double done = 0.0;
  bool sent = false;
  bool ok = false;
  JsonValue response;  ///< kept only for the sampled checks
};

std::string circuit_of(const Request& q) {
  return q.body.at("circuit").as_string();
}

// ---- the daemon -------------------------------------------------------------

class Daemon {
 public:
  Daemon(const Options& o, const std::string& socket) : socket_(socket) {
    std::vector<std::string> args = {o.dpserved_path,
                                     "--unix",
                                     socket,
                                     "--workers",
                                     std::to_string(workers()),
                                     "--jobs",
                                     "1",
                                     "--queue-depth",
                                     "1024",
                                     "--quiet"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const auto t0 = Clock::now();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::execv(argv[0], argv.data());
      std::perror("perfbench: exec dpserved");
      ::_exit(127);
    }
    if (pid_ < 0) return;
    // Ready when a ping on the socket answers.
    while (seconds_since(t0) < 30.0) {
      std::string err;
      if (auto c = dp::serve::Client::connect_unix(socket_, &err)) {
        JsonValue ping = JsonValue::object();
        ping["type"] = "ping";
        JsonValue resp;
        if (c->call(ping, &resp, &err) && resp.find("ok") &&
            resp.at("ok").as_bool()) {
          ready_s_ = seconds_since(t0);
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Server workers: one core is left to the load generator, which runs
  /// in this process (workers x jobs 1 stays within nproc).
  static std::size_t workers() {
    const std::size_t n = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(n > 1 ? n - 1 : 1, 1, 3);
  }
  bool ready() const { return ready_s_ >= 0; }
  double ready_s() const { return ready_s_; }

  /// Peak resident set of the daemon so far (VmHWM), MB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

  /// SIGTERM, then wait for the drain; true on a clean exit 0.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const bool clean = ::waitpid(pid_, &status, 0) == pid_ &&
                       WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
    ::unlink(socket_.c_str());
    return clean;
  }

  JsonValue call(const JsonValue& request) const {
    std::string err;
    JsonValue resp;
    auto c = dp::serve::Client::connect_unix(socket_, &err);
    if (!c || !c->call(request, &resp, &err)) return JsonValue();
    return resp;
  }

  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double ready_s_ = -1.0;
};

bool ok_response(const JsonValue& r) {
  const JsonValue* ok = r.is_object() ? r.find("ok") : nullptr;
  return ok && ok->as_bool();
}

// ---- requests ---------------------------------------------------------------

JsonValue analyze_request(const std::string& circuit, std::size_t jobs) {
  JsonValue q = JsonValue::object();
  q["type"] = "analyze";
  q["circuit"] = circuit;
  JsonValue opts = JsonValue::object();
  opts["model"] = "sa";
  opts["jobs"] = static_cast<long long>(jobs);
  q["options"] = std::move(opts);
  return q;
}

JsonValue grade_request(const std::string& circuit, std::uint64_t seed) {
  JsonValue q = JsonValue::object();
  q["type"] = "grade";
  q["circuit"] = circuit;
  JsonValue opts = JsonValue::object();
  opts["patterns"] = static_cast<long long>(kGradePatterns);
  // The protocol reads integers as signed 64-bit; keep seeds in range.
  opts["seed"] = static_cast<long long>(seed >> 1);
  q["options"] = std::move(opts);
  return q;
}

JsonValue ndetect_request(const std::string& circuit, std::size_t inputs,
                          std::mt19937_64& rng) {
  JsonValue q = JsonValue::object();
  q["type"] = "ndetect";
  q["circuit"] = circuit;
  JsonValue opts = JsonValue::object();
  opts["n"] = static_cast<long long>(kNDetectN);
  opts["topup"] = false;
  q["options"] = std::move(opts);
  JsonValue vectors = JsonValue::array();
  for (std::size_t v = 0; v < kNDetectVectors; ++v) {
    std::string bits(inputs, '0');
    for (char& b : bits) b = (rng() & 1) ? '1' : '0';
    vectors.push_back(bits);
  }
  q["vectors"] = std::move(vectors);
  return q;
}

/// The open-loop schedule of one rung: rate x seconds requests at
/// uniformly random sorted times (Poisson arrivals conditioned on their
/// count), in a shuffled mix of exactly 1/5 analyze, 1/5 grade and 3/5
/// ndetect, circuits taken in turn within each type. With these shares the
/// median request falls inside the body of c95 ndetect (~10 ms, requests
/// 40-70% by latency) and the p90 request inside the body of alu181
/// ndetect (~25 ms, the slowest 30%), not on an edge between two modes,
/// and both are mostly computation: the ~2 ms of hand-offs between threads
/// and processes that make up an analyze request vary several-fold with
/// the host's load.
std::vector<Request> make_schedule(std::mt19937_64& rng, double rate,
                                   double seconds,
                                   const std::map<std::string, std::size_t>& inputs) {
  const auto n = static_cast<std::size_t>(std::max(1.0, rate * seconds));
  std::uniform_real_distribution<double> u(0.0, seconds);
  std::vector<double> due(n);
  for (double& t : due) t = u(rng);
  std::sort(due.begin(), due.end());
  std::vector<int> types(n);
  for (std::size_t i = 0; i < n; ++i) {
    types[i] = i % 5 == 0 ? 0 : i % 5 == 1 ? 1 : 2;
  }
  std::shuffle(types.begin(), types.end(), rng);
  std::size_t turn[3] = {0, 0, 0};
  std::vector<Request> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request& q = out[i];
    q.due = due[i];
    q.type = types[i];
    const std::size_t k = turn[q.type]++;
    if (q.type == 0) {
      q.body = analyze_request(kAnalyzeCircuits[k % 3], 1);
    } else if (q.type == 1) {
      q.body = grade_request(kGradeCircuits[k % 3], rng());
    } else {
      const char* c = kNDetectCircuits[k % 2];
      q.body = ndetect_request(c, inputs.at(c), rng);
    }
  }
  return out;
}

// ---- the generator ----------------------------------------------------------

/// Sends `reqs` on their schedule over kConnections connections (each
/// strictly request/response). Outcomes of indices in `keep` retain
/// their response for the sampled correctness checks. Once a request
/// would go out more than kAbandonMs late the rung has missed its limit
/// for good, and the rest of it is not sent. With `closed` the schedule
/// is ignored instead: each connection sends its next request as soon as
/// the last one is answered, until every request is sent.
std::vector<Outcome> run_rung(const Daemon& d, std::vector<Request>& reqs,
                              const std::vector<bool>& keep,
                              bool closed = false) {
  std::vector<Outcome> out(reqs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abandoned{false};
  const auto start = Clock::now();
  auto sender = [&] {
    std::string err;
    auto client = dp::serve::Client::connect_unix(d.socket(), &err);
    obs::SpanCollector* const spans = obs::SpanCollector::current();
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= reqs.size() || abandoned.load()) break;
      Request& q = reqs[i];
      q.body["id"] = static_cast<long long>(i + 1);
      Outcome& o = out[i];
      if (closed) {
        o.send = seconds_since(start);
        q.due = o.send;
      } else {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(q.due)));
        o.send = seconds_since(start);
        if (1e3 * (o.send - q.due) > kAbandonMs) {
          abandoned.store(true);
          break;
        }
      }
      o.sent = true;
      JsonValue resp;
      {
        obs::ScopedSpan span(spans, std::string("serve.client.") +
                                        kTypes[q.type]);
        o.ok = client && client->call(q.body, &resp, &err) &&
               ok_response(resp);
      }
      o.done = seconds_since(start);
      if (keep[i] || !o.ok) o.response = std::move(resp);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kConnections; ++t) threads.emplace_back(sender);
  for (std::thread& t : threads) t.join();
  return out;
}

struct RungStats {
  double rate = 0.0;
  std::size_t requests = 0;  ///< scheduled
  std::size_t sent = 0;
  std::size_t failed = 0;
  double p50_ms = 0.0, p90_ms = 0.0;
  double lag_p90_ms = 0.0, lag_max_ms = 0.0;
  double achieved_rps = 0.0;
  double client_busy_s = 0.0;  ///< sum of send-to-done times
  bool within_slo = false;
  std::vector<double> lat_ms[3];  ///< by request type
};

RungStats summarize(double rate, double seconds,
                    const std::vector<Request>& reqs,
                    const std::vector<Outcome>& out) {
  RungStats s;
  s.rate = rate;
  s.requests = reqs.size();
  std::vector<double> lat, lag;
  double last_done = 0.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!out[i].sent) continue;
    ++s.sent;
    const double l = 1e3 * (out[i].done - reqs[i].due);
    lat.push_back(l);
    lag.push_back(1e3 * (out[i].send - reqs[i].due));
    s.lat_ms[reqs[i].type].push_back(l);
    s.client_busy_s += out[i].done - out[i].send;
    s.failed += !out[i].ok;
    last_done = std::max(last_done, out[i].done);
  }
  s.p50_ms = quantile(lat, 0.5);
  s.p90_ms = quantile(lat, 0.9);
  s.lag_p90_ms = quantile(lag, 0.9);
  s.lag_max_ms = lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end());
  s.achieved_rps = static_cast<double>(s.sent - s.failed) /
                   std::max(seconds, last_done);
  // Within the limit: everything sent and answered, p90 meets the limit,
  // and the generator kept up (p90 send lag within the limit: no growing
  // backlog).
  s.within_slo = s.sent == s.requests && s.failed == 0 &&
                 s.p90_ms <= kSloMs && s.lag_p90_ms <= kSloMs;
  return s;
}

JsonValue rung_json(const RungStats& s) {
  JsonValue j = JsonValue::object();
  j["rate"] = s.rate;
  j["requests"] = static_cast<long long>(s.requests);
  j["sent"] = static_cast<long long>(s.sent);
  j["failed"] = static_cast<long long>(s.failed);
  j["p50_ms"] = s.p50_ms;
  j["p90_ms"] = s.p90_ms;
  j["lag_p90_ms"] = s.lag_p90_ms;
  j["lag_max_ms"] = s.lag_max_ms;
  j["achieved_rps"] = s.achieved_rps;
  j["within_slo"] = s.within_slo;
  return j;
}

// ---- server metrics -----------------------------------------------------------

struct ServerCounters {
  double request_s = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0;
  double queue_high_water = 0.0;
  double rejected = 0.0;
};

ServerCounters fetch_counters(const Daemon& d) {
  JsonValue q = JsonValue::object();
  q["type"] = "metrics";
  const JsonValue resp = d.call(q);
  ServerCounters c;
  if (!ok_response(resp)) return c;
  const JsonValue& m = resp.at("document").at("metrics");
  const auto num = [&](const char* section, const std::string& name) {
    const JsonValue* s = m.find(section);
    const JsonValue* v = s ? s->find(name) : nullptr;
    return v && v->is_number() ? v->as_double() : 0.0;
  };
  if (const JsonValue* t = m.at("timers").find("serve.request")) {
    c.request_s = t->at("total_s").as_double();
  }
  c.cache_hits = num("counters", "serve.profile_cache.hits");
  c.cache_misses = num("counters", "serve.profile_cache.misses");
  c.queue_high_water = num("gauges", "serve.queue_high_water");
  for (const char* r : {"serve.rejected.queue_full", "serve.rejected.deadline",
                        "serve.rejected.shutting_down"}) {
    c.rejected += num("counters", r);
  }
  return c;
}

// ---- correctness --------------------------------------------------------------

struct InProcess {
  std::map<std::string, std::unique_ptr<netlist::Circuit>> circuits;
  std::map<std::string, std::size_t> inputs;

  const netlist::Circuit& at(const std::string& name) {
    auto& c = circuits[name];
    if (!c) c = std::make_unique<netlist::Circuit>(netlist::make_benchmark(name));
    return *c;
  }
};

/// Served analyze payloads must be byte-identical to the in-process
/// result, whose records must match the pins.
void check_analyze(Result& r, InProcess& ip, const Pins& pins,
                   const std::map<std::string, JsonValue>& served) {
  for (const auto& [name, resp] : served) {
    const netlist::Circuit& c = ip.at(name);
    analysis::AnalysisOptions a;
    a.jobs = Daemon::workers();
    const std::string key = analysis::profile_cache_key(c, "sa", a);
    const analysis::CircuitProfile profile = analysis::analyze_stuck_at(c, a);
    const std::string local = analysis::profile_to_json(profile, key).dump(0);
    if (!ok_response(resp) || resp.at("profile").dump(0) != local) {
      r.fail("served analyze payload for " + name +
             " is not byte-identical to the in-process result");
    }
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < profile.faults.size(); ++i) idx.push_back(i);
    check_against_pins(r, pins, name + ".sa", idx, profile.faults);
  }
}

void check_sampled(Result& r, InProcess& ip, const std::vector<Request>& reqs,
                   const std::vector<Outcome>& out,
                   const std::map<std::string, JsonValue>& analyze_ref) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const JsonValue& resp = out[i].response;
    if (resp.is_null() || !out[i].ok || !out[i].sent) continue;
    const std::string circuit = circuit_of(reqs[i]);
    const netlist::Circuit& c = ip.at(circuit);
    if (reqs[i].type == 0) {
      const auto it = analyze_ref.find(circuit);
      if (it == analyze_ref.end() || !ok_response(it->second) ||
          resp.at("profile").dump(0) != it->second.at("profile").dump(0)) {
        r.fail("served analyze payload for " + circuit + " changed under load");
      }
    } else if (reqs[i].type == 1) {
      const JsonValue& o = reqs[i].body.at("options");
      const auto faults = fault::collapse_checkpoint_faults(c);
      const dp::sim::WideFaultSimulator sim(c);
      const auto g = sim.grade_random(
          faults, static_cast<std::size_t>(o.at("patterns").as_int()),
          static_cast<std::uint64_t>(o.at("seed").as_int()));
      if (resp.at("detected").as_int() != static_cast<long long>(g.detected()) ||
          resp.at("events").as_int() != static_cast<long long>(g.events())) {
        r.fail("served grade of " + circuit + " differs from in-process");
      }
    } else {
      std::vector<std::vector<bool>> vectors;
      for (std::size_t v = 0; v < reqs[i].body.at("vectors").size(); ++v) {
        const std::string& s = reqs[i].body.at("vectors").at(v).as_string();
        std::vector<bool> bits(s.size());
        for (std::size_t b = 0; b < s.size(); ++b) bits[b] = s[b] == '1';
        vectors.push_back(std::move(bits));
      }
      const auto report = analysis::analyze_ndetect(
          c, fault::collapse_checkpoint_faults(c), vectors, kNDetectN);
      const std::string local =
          analysis::ndetect_report_to_json(report, resp.at("key").as_string())
              .dump(0);
      if (resp.at("report").dump(0) != local) {
        r.fail("served ndetect of " + circuit + " differs from in-process");
      }
    }
  }
}

// ---- phases -----------------------------------------------------------------

/// Warm-up: fills the profile cache (analyze at full width) and builds
/// the resident forests. Returns the warm analyze responses by circuit.
std::map<std::string, JsonValue> warm_up(const Daemon& d, Result& r,
                                         std::mt19937_64& rng,
                                         const InProcess& ip) {
  std::map<std::string, JsonValue> analyze;
  for (const char* c : kAnalyzeCircuits) {
    analyze[c] = d.call(analyze_request(c, Daemon::workers()));
    if (!ok_response(analyze[c])) r.fail(std::string("warm-up analyze of ") + c);
  }
  for (const char* c : kNDetectCircuits) {
    if (!ok_response(d.call(ndetect_request(c, ip.inputs.at(c), rng)))) {
      r.fail(std::string("warm-up ndetect of ") + c);
    }
  }
  for (const char* c : kGradeCircuits) {
    if (!ok_response(d.call(grade_request(c, rng())))) {
      r.fail(std::string("warm-up grade of ") + c);
    }
  }
  return analyze;
}

/// Every n-th request of each type keeps its response for checking.
std::vector<bool> sample_mask(const std::vector<Request>& reqs) {
  constexpr std::size_t kEvery[] = {25, 40, 40};
  std::vector<bool> keep(reqs.size(), false);
  std::size_t seen[3] = {0, 0, 0};
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    keep[i] = seen[reqs[i].type]++ % kEvery[reqs[i].type] == 0;
  }
  return keep;
}

void count_outcomes(Result& r, const std::vector<Outcome>& out) {
  for (const Outcome& o : out) {
    if (!o.sent) continue;
    ++r.attempted;
    if (!o.ok) {
      ++r.failed;
      if (r.failed == 1) r.fail("served request failed: " + o.response.dump(0));
    }
  }
}

void timed(const Options& o, Result& r, InProcess& ip, const Pins& pins) {
  std::mt19937_64 rng(derive_seed(o.seed, "served"));
  // Set-up: daemons spawned a few times at the start, then a spare one
  // (on its own socket) after every pass pair, so the median covers the
  // whole run rather than its first moments.
  std::vector<double> spawn_s;
  std::unique_ptr<Daemon> d;
  const std::string socket = o.work_dir + "/served.sock";
  for (int i = 0; i < kSpawns; ++i) {
    d.reset();  // the previous daemon drains and exits first
    d = std::make_unique<Daemon>(o, socket);
    if (!d->ready()) {
      r.fail("dpserved did not answer a ping");
      return;
    }
    spawn_s.push_back(d->ready_s());
  }
  auto spare_spawn = [&] {
    const Daemon spare(o, o.work_dir + "/spare.sock");
    if (spare.ready()) {
      spawn_s.push_back(spare.ready_s());
    } else {
      r.fail("a spare dpserved did not answer a ping");
    }
  };

  const auto analyze_ref = warm_up(*d, r, rng, ip);
  const ServerCounters before = fetch_counters(*d);
  const auto t0 = Clock::now();


  // Latency and capacity passes, interleaved so both cover the same
  // stretch of the run. A latency pass replays one open-loop schedule at
  // kBaseRate; a capacity pass sends one batch closed loop on every
  // connection. Served timings are not scaled to a reference speed: no
  // calibration loop tracked the daemon's speed from one run to the next
  // (see perfbench/README.md).
  std::vector<Request> base =
      make_schedule(rng, kBaseRate, kLatencyPassS, ip.inputs);
  std::vector<Request> batch =
      make_schedule(rng, static_cast<double>(kCapacityBatch), 1.0, ip.inputs);
  const std::vector<bool> no_keep(batch.size(), false);
  std::vector<double> lat_ms, batch_s;
  while (seconds_since(t0) < kPassShare * o.seconds ||
         batch_s.size() < kMinPasses) {
    // The first latency pass keeps responses for the sampled checks.
    const bool first = lat_ms.empty();
    const std::vector<bool> keep =
        first ? sample_mask(base) : std::vector<bool>(base.size(), false);
    std::vector<Outcome> out = run_rung(*d, base, keep);
    count_outcomes(r, out);
    if (first) check_sampled(r, ip, base, out, analyze_ref);
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (out[i].sent) lat_ms.push_back(1e3 * (out[i].done - base[i].due));
    }

    out = run_rung(*d, batch, no_keep, true);
    count_outcomes(r, out);
    double last = 0.0;
    for (const Outcome& x : out) last = std::max(last, x.done);
    batch_s.push_back(last);
    spare_spawn();
  }
  // Memory at saturation: every capacity pass keeps all workers busy, so
  // at some point each runs an alu181 ndetect at once. (At the base rate
  // how many ndetect engines overlap varies from run to run.)
  r.put("peak_rss_mb", d->peak_rss_mb(), "MB");
  r.put("setup_s", median(spawn_s), "s");
  r.info["setup_repeats"] = static_cast<long long>(spawn_s.size());
  r.put("latency_p50_ms", quantile(lat_ms, 0.5), "ms");
  r.put("latency_p90_ms", quantile(lat_ms, 0.9), "ms");
  r.info["latency_samples"] = static_cast<long long>(lat_ms.size());
  r.info["latency_unit"] = "one request at the base rate, due time to response";
  const double capacity = static_cast<double>(batch.size()) / median(batch_s);
  r.put("throughput_per_s", capacity, "1/s");
  r.info["saturation_rps"] = capacity;
  r.info["passes"] = static_cast<long long>(batch_s.size());
  r.info["pass_s"] = json_array(batch_s);

  // The ladder: open-loop rungs at shares of the capacity. The highest
  // one within the latency limit is max_rps_within_slo.
  const double rung_s = (1.0 - kPassShare) * o.seconds /
                        static_cast<double>(std::size(kLoadShares));
  JsonValue ladder = JsonValue::array();
  double best = 0.0;
  for (const double share : kLoadShares) {
    std::vector<Request> reqs =
        make_schedule(rng, share * capacity, rung_s, ip.inputs);
    const std::vector<Outcome> out =
        run_rung(*d, reqs, std::vector<bool>(reqs.size(), false));
    const RungStats s = summarize(share * capacity, rung_s, reqs, out);
    count_outcomes(r, out);
    if (s.within_slo) best = s.achieved_rps;
    ladder.push_back(rung_json(s));
  }

  const ServerCounters after = fetch_counters(*d);
  if (!d->stop()) r.fail("dpserved did not drain and exit cleanly");
  check_analyze(r, ip, pins, analyze_ref);

  r.info["max_rps_within_slo"] = best;
  r.info["slo_p90_ms"] = kSloMs;
  r.info["ladder"] = std::move(ladder);
  r.info["server_rejected"] = after.rejected - before.rejected;
  if (best <= 0.0) r.fail("no ladder rate met the latency limit");
}

void traced(const Options& o, Result& r, InProcess& ip, const Pins& pins) {
  const std::string socket = o.work_dir + "/served.sock";
  obs::SpanCollector spans(kSpanCapacity);
  const double phase_s = o.seconds / 2.0;  // untraced, then traced
  double client_s[2] = {0.0, 0.0};
  for (int traced_phase = 0; traced_phase < 2; ++traced_phase) {
    // Same seed in both phases, so both see the same requests.
    std::mt19937_64 rng(derive_seed(o.seed, "served"));
    Daemon d(o, socket);
    if (!d.ready()) {
      r.fail("dpserved did not answer a ping");
      return;
    }
    const auto analyze_ref = warm_up(d, r, rng, ip);
    const ServerCounters before = fetch_counters(d);
    std::vector<Request> reqs = make_schedule(rng, kBaseRate, phase_s, ip.inputs);
    const std::vector<bool> keep = sample_mask(reqs);
    std::vector<Outcome> out;
    if (traced_phase) {
      const TraceOn on(spans);
      out = run_rung(d, reqs, keep);
    } else {
      out = run_rung(d, reqs, keep);
    }
    const ServerCounters after = fetch_counters(d);
    const RungStats s = summarize(kBaseRate, phase_s, reqs, out);
    count_outcomes(r, out);
    client_s[traced_phase] = s.client_busy_s;
    if (!d.stop()) r.fail("dpserved did not drain and exit cleanly");
    if (!traced_phase) {
      check_sampled(r, ip, reqs, out, analyze_ref);
      check_analyze(r, ip, pins, analyze_ref);
      for (int t = 0; t < 3; ++t) {
        r.put(std::string("serve.latency_p50_ms.") + kTypes[t],
              quantile(s.lat_ms[t], 0.5), "ms");
        r.put(std::string("serve.latency_p90_ms.") + kTypes[t],
              quantile(s.lat_ms[t], 0.9), "ms");
      }
      double lat_sum = 0.0;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (out[i].sent) lat_sum += out[i].done - reqs[i].due;
      }
      const double served = after.request_s - before.request_s;
      r.put("serve.wait_frac", lat_sum > 0 ? 1.0 - served / lat_sum : 0.0,
            "frac");
      const double lookups = (after.cache_hits - before.cache_hits) +
                             (after.cache_misses - before.cache_misses);
      r.put("serve.profile_cache_hit_rate",
            lookups > 0 ? (after.cache_hits - before.cache_hits) / lookups : 0.0,
            "frac");
      r.put("serve.queue_high_water", after.queue_high_water, "count");
      r.put("serve.rejected", after.rejected, "count");
      r.put("serve.generator_lag_ms", s.lag_p90_ms, "ms");
      r.info["requests_per_phase"] = static_cast<long long>(s.requests);
    } else {
      // The phases run on separate daemons, so the gate compares the spans
      // with the same requests timed outside them.
      reconcile(r, client_s[0], client_s[1], client_s[1], self_times(spans));
    }
  }

  // The kernel side of ndetect, from outside: DP on the frozen forest at
  // jobs 1, then one satcount per fault (deterministic counters).
  const netlist::Circuit& c = ip.at("alu181");
  const netlist::Structure s(c);
  const DpPass p = dp_pass(c, s, fault::collapse_checkpoint_faults(c), true);
  put_bdd_stats(r, "alu181", p.stats);
}

}  // namespace

Result run_served_mix(const Options& o) {
  Result r;
  InProcess ip;
  for (const char* c : kNDetectCircuits) ip.inputs[c] = ip.at(c).num_inputs();
  const Pins pins(o.pins_path, o.inject_mismatch);
  if (o.trace) {
    traced(o, r, ip, pins);
  } else {
    timed(o, r, ip, pins);
  }
  r.settle();
  return r;
}

}  // namespace pb
