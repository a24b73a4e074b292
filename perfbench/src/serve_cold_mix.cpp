// serve_cold_mix — an in-process serve::Server (default 2 solver workers)
// driven over loopback by ONE open-loop generator thread on 3 connections,
// with a cold mixed stream: seeded draws from 12 request shapes, every
// (solver, params, seed, trials) tuple distinct, so SolveService's cache
// never hits and the whole request path (parse -> admit -> queue -> pool ->
// solve -> render -> write) runs for every request. Generator, event loop
// and the two workers are 4 threads: within the 4 cores the benchmark was
// sized on.
//
// The run is a sequence of segments, each against a freshly started server
// (every start is a set-up sample) and each holding only its own requests
// in memory. None sleeps on a fixed interval: the generator blocks in ppoll
// until the next response or until kSpinS before the next due time, then
// polls without blocking, so sends leave on time.
//   cycles  a base window (open loop, kBaseRps for one second; latency
//           timed from each request's due time -> p50_ms, p99_ms, cpu_s as
//           medians over windows) followed by a burst (closed loop, kWindow
//           requests in flight per connection -> wall_s, the median time to
//           answer kBurst requests). Alternating the two spreads both over
//           the whole run, so drift in the machine's speed reaches them alike.
//   ladder  open loop at each rate of kLadder until a step fails -> max_rps
// A seeded sample of base and burst requests is re-answered in process
// through SolveService::solve; the wire answer must match it except for
// solve_ns.
//
// A ladder step is scored against the limit kP99LimitMs the way a user
// sees it: a refused (`overloaded`) request counts as missing the limit, so
// the step's p99 is infinite once more than 1% are refused; a backlog left
// when the last request is due counts against rate x limit. The step
// passes with score < 1:
//   score = max(p99 of answered / limit, refused share / 1%,
//               backlog / (rate x limit))
// max_rps interpolates (log-log) the rate where the score crosses 1
// between the last passing and the first failing step, so it moves
// smoothly instead of jumping a whole ladder step when one more request
// is refused.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "engine/reference_cache.hpp"
#include "engine/solve_service.hpp"
#include "engine/sweep_runner.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trial_log.hpp"

namespace perfbench {
namespace {

namespace eng = ps::engine;

constexpr std::size_t kConnections = 3;
constexpr double kBaseRps = 1000.0;
constexpr std::size_t kBurst = 1000;
constexpr std::size_t kWindow = 8;
constexpr double kLadder[] = {2000, 2400, 2800, 3200, 3600, 4000,
                              4500, 5000, 5600, 6300, 7100, 8000};
constexpr double kP99LimitMs = 50.0;
// The generator stops blocking this long before a request is due.
constexpr double kSpinS = 100e-6;
// Shares of --seconds: the base windows (one second each), and each ladder
// step.
constexpr double kBaseShare = 0.4;
constexpr double kStepShare = 1.0 / 16.0;
// Start + connect is well under a millisecond and drifts with the
// machine's state, so the server is restarted before every segment and the
// median of all starts is reported; kExtraStarts more are taken up front.
constexpr int kExtraStarts = 2;
// One request in kCheckEvery (seeded) is re-answered in process.
constexpr std::uint64_t kCheckEvery = 8;

struct Shape {
  const char* solver;
  eng::ParamMap params;
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> table = {
      {"power.greedy", {}},
      {"power.always_on", {}},
      {"power.per_job", {}},
      // Priced against the brute-force optimum: the class that sets p99.
      // Three windows of 3 on 2 x 6 slots almost always cover most slots,
      // so the enumeration's cost is narrow (about 3.4 ms, p90/p50 1.2);
      // sparser windows made it heavy-tailed (p90/p50 above 2), and p99
      // then moved with the few instances a seed drew.
      {"power.greedy",
       {{"jobs", 6.0}, {"vs_opt", 1.0}, {"processors", 2.0}, {"horizon", 6.0},
        {"windows", 3.0}, {"window_length", 3.0}, {"alpha", 0.0}}},
      {"budget.value", {}},
      {"submodular.greedy", {{"n", 30.0}}},
      {"submodular.lazy", {{"n", 30.0}}},
      {"core.setcover", {}},
      {"powerdown.break_even", {}},
      {"powerdown.randomized", {}},
      {"secretary.classic", {}},
      {"secretary.submodular", {}},
  };
  return table;
}

struct Request {
  eng::SolveRequest request;
  std::string line;  // rendered wire line, '\n' included
  bool checked = false;
};

struct Record {
  double due = 0.0;   // scheduled send time (s)
  double sent = 0.0;  // actual send time (s)
  double done = 0.0;  // response received (s); 0 = unanswered
  std::string response;
};

// The seeded cold stream, one segment at a time. Shapes are drawn in blocks
// holding each shape once, in seeded order, so every segment carries the
// same mix whatever the seed. next_segment() fails if a (solver, params,
// seed, trials) tuple repeats anywhere in the run: such a segment is
// rejected before its requests are sent.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(seed) {}

  std::vector<Request> requests;
  std::vector<Record> records;

  bool next_segment(std::size_t count) {
    requests.clear();
    records.clear();
    for (std::size_t n = 0; n < count; ++n) {
      if (block_.empty()) block_ = shuffled_order(shapes().size(), rng_);
      const Shape& shape = shapes()[block_.back()];
      block_.pop_back();
      Request item;
      item.request.id = std::to_string(n);
      item.request.id.insert(0, 1, 'r');
      item.request.solver = shape.solver;
      item.request.params = shape.params;
      item.request.trials = 1;
      item.request.seed = rng_.next() >> 11;  // within the protocol's 2^53
      item.checked = rng_.below(kCheckEvery) == 0;
      item.line = ps::serve::render_request_line(item.request) + "\n";
      const std::string key = item.request.solver + "|" +
                              item.request.params.signature() + "|" +
                              std::to_string(item.request.seed) + "|1";
      if (!seen_.insert(key).second) return false;
      requests.push_back(std::move(item));
    }
    records.resize(requests.size());
    return true;
  }

 private:
  SeedRng rng_;
  std::vector<std::size_t> block_;
  std::set<std::string> seen_;
};

std::size_t id_index(const std::string& line) {
  const std::size_t at = line.find("\"id\":\"r");
  return at == std::string::npos ? SIZE_MAX
                                 : std::strtoull(line.c_str() + at + 7, nullptr, 10);
}

// The generator: one thread, kConnections sockets, responses matched by id.
class Generator {
 public:
  /// Every phase gives up (reports failure) once `deadline` (now_s()
  /// clock) has passed, so a stalled server cannot hang the run.
  Generator(Stream& stream, double deadline)
      : stream_(stream), deadline_(deadline) {}

  ~Generator() {
    for (int fd : fds_) ::close(fd);
  }

  bool connect(int port) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      const int fd = ps::serve::connect_to("127.0.0.1", port);
      if (fd < 0) return false;
      fds_.push_back(fd);
      buffers_.emplace_back();
    }
    return true;
  }

  /// While set, every answer records a due-to-answer span.
  void set_spans(Spans* spans) { spans_ = spans; }

  void close_all() {
    for (int fd : fds_) ::close(fd);
    fds_.clear();
    buffers_.clear();
    outstanding_ = 0;  // a failed phase's unanswered requests stay unanswered
  }

  /// Open loop over the segment: request i is due at start + i / rps.
  /// Returns the backlog (sent, unanswered) when the last request was
  /// sent, then drains every answer.
  std::size_t open_loop(double rps) {
    const std::size_t count = stream_.records.size();
    const double start = now_s() + 0.002;
    for (std::size_t i = 0; i < count; ++i) {
      stream_.records[i].due = start + static_cast<double>(i) / rps;
    }
    std::size_t next = 0;
    std::size_t backlog = 0;
    while (next < count) {
      const double now = now_s();
      if (now >= stream_.records[next].due) {
        send(next++);
        if (next == count) backlog = outstanding_;
        continue;
      }
      // Sleeping in ppoll wakes up to the timer slack late; the last
      // kSpinS before a due time is spent polling without blocking.
      const double wait = stream_.records[next].due - now;
      if (!pump(wait > kSpinS ? wait - kSpinS : 0.0)) return SIZE_MAX;
    }
    return drain() ? backlog : SIZE_MAX;
  }

  /// Closed loop over the segment with `window` requests in flight per
  /// connection; returns the wall time from the first send to the last
  /// answer.
  double closed_loop(std::size_t window) {
    const std::size_t count = stream_.records.size();
    const double start = now_s();
    std::size_t next = 0;
    while (next < count || outstanding_ > 0) {
      while (next < count && outstanding_ < window * fds_.size()) {
        stream_.records[next].due = now_s();
        send(next++);
      }
      if (!pump(1.0)) return -1.0;
    }
    return now_s() - start;
  }

 private:
  void send(std::size_t index) {
    Record& record = stream_.records[index];
    record.sent = now_s();
    ++outstanding_;
    if (!ps::serve::send_all(fds_[index % fds_.size()], stream_.requests[index].line)) {
      failed_ = true;
    }
  }

  bool drain() {
    while (outstanding_ > 0) {
      if (!pump(1.0)) return false;
    }
    return true;
  }

  // Waits up to `wait_s` for responses and consumes what arrived.
  bool pump(double wait_s) {
    if (failed_ || now_s() > deadline_) return false;
    std::vector<pollfd> polls;
    for (int fd : fds_) polls.push_back({fd, POLLIN, 0});
    const double clamped = std::max(0.0, wait_s);
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(clamped);
    timeout.tv_nsec = static_cast<long>((clamped - static_cast<double>(timeout.tv_sec)) * 1e9);
    const int ready = ::ppoll(polls.data(), polls.size(), &timeout, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    for (std::size_t c = 0; c < polls.size(); ++c) {
      if (polls[c].revents == 0) continue;
      char chunk[65536];
      for (;;) {
        const ssize_t n = ::recv(fds_[c], chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n > 0) {
          buffers_[c].append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;  // the server hung up mid-run
      }
      const double now = now_s();
      std::size_t pos;
      while ((pos = buffers_[c].find('\n')) != std::string::npos) {
        std::string line = buffers_[c].substr(0, pos);
        buffers_[c].erase(0, pos + 1);
        const std::size_t index = id_index(line);
        if (index >= stream_.records.size() || stream_.records[index].done != 0.0) return false;
        Record& record = stream_.records[index];
        record.done = now;
        record.response = std::move(line);
        if (spans_ != nullptr) {
          spans_->add(stream_.requests[index].request.solver, "serve",
                      static_cast<std::uint64_t>(record.due * 1e9),
                      static_cast<std::uint64_t>(now * 1e9));
        }
        --outstanding_;
      }
    }
    return true;
  }

  Stream& stream_;
  Spans* spans_ = nullptr;
  std::vector<int> fds_;
  std::vector<std::string> buffers_;
  double deadline_;
  std::size_t outstanding_ = 0;
  bool failed_ = false;
};

// The wire line without its solve_ns member — what render_ok_response
// produces with include_timing off.
std::string without_solve_ns(const std::string& line) {
  const std::size_t at = line.find(",\"solve_ns\":");
  if (at == std::string::npos) return line;
  const std::size_t end = line.find_first_of(",}", at + 12);
  return line.substr(0, at) + line.substr(end);
}

struct Latencies {
  std::vector<double> e2e_ms, solve_ms, wait_ms, late_ms;
  std::size_t overloaded = 0, other_errors = 0;

  void add(const Latencies& other) {
    for (auto [to, from] : {std::pair{&e2e_ms, &other.e2e_ms},
                            std::pair{&solve_ms, &other.solve_ms},
                            std::pair{&wait_ms, &other.wait_ms},
                            std::pair{&late_ms, &other.late_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    overloaded += other.overloaded;
    other_errors += other.other_errors;
  }
};

Latencies summarize(const Stream& stream) {
  Latencies out;
  for (const Record& record : stream.records) {
    ps::serve::WireResponse wire;
    if (record.done == 0.0 ||
        !ps::serve::parse_response_line(record.response, wire)) {
      ++out.other_errors;
      continue;
    }
    if (!wire.ok) {
      ++(wire.error == ps::serve::kErrorOverloaded ? out.overloaded
                                                   : out.other_errors);
      continue;
    }
    const double e2e = (record.done - record.due) * 1e3;
    const double solve = static_cast<double>(wire.solve_ns) * 1e-6;
    out.e2e_ms.push_back(e2e);
    out.solve_ms.push_back(solve);
    out.wait_ms.push_back(e2e - solve);
    out.late_ms.push_back((record.sent - record.due) * 1e3);
  }
  return out;
}

// Re-answers the segment's sampled requests in process; every request of
// the segment counts as one checked operation.
void check_segment(const Stream& stream, const eng::SolveService& service,
                   Outcome& out, std::vector<double>* render_us) {
  for (std::size_t i = 0; i < stream.records.size(); ++i) {
    const std::string& line = stream.records[i].response;
    bool ok = line.find("\"ok\":true") != std::string::npos;
    if (ok && stream.requests[i].checked) {
      eng::SolveResponse response;
      ok = service.solve(stream.requests[i].request, response).ok() &&
           ps::serve::render_ok_response(response, false) ==
               without_solve_ns(line);
      if (render_us != nullptr) {
        const std::uint64_t start = ps::obs::now_ns();
        const std::string rendered = ps::serve::render_ok_response(response, true);
        render_us->push_back(static_cast<double>(ps::obs::now_ns() - start) * 1e-3);
        ok = ok && !rendered.empty();
      }
    }
    out.check(ok);
  }
}

// Traced run: the protocol parser and the solver layer timed on their own
// over a base window's requests. The solvers run through the timed registry
// from a cold reference cache (the service's own registry cannot be
// decorated). False if a request line does not parse back.
bool probe_layers(const Stream& stream, const eng::SolverRegistry& timed,
                  TrialStats& trials, std::vector<double>& parse_us) {
  bool ok = true;
  for (const Request& item : stream.requests) {
    eng::SolveRequest parsed;
    const std::string line = item.line.substr(0, item.line.size() - 1);
    const std::uint64_t start = ps::obs::now_ns();
    ok = ps::serve::parse_request_line(line, parsed).ok() && ok;
    parse_us.push_back(static_cast<double>(ps::obs::now_ns() - start) * 1e-3);
  }
  eng::clear_reference_cache();
  for (const Request& item : stream.requests) {
    eng::ScenarioSpec spec;
    spec.solver = item.request.solver;
    spec.params = item.request.params;
    spec.trials = item.request.trials;
    spec.seed = item.request.seed;
    eng::run_scenario_inline(timed, spec);
  }
  trials.add_trials(TrialLog::global().drain());
  return ok;
}

}  // namespace

Outcome run_serve_cold_mix(const Options& options) {
  Outcome out;
  Spans spans(options.trace);
  Stream stream(options.seed);
  // Draws the next segment's requests; a repeated tuple fails the run
  // before anything of it is sent.
  const auto draw = [&](std::size_t count) {
    if (stream.next_segment(count)) return true;
    std::fprintf(stderr, "serve_cold_mix: repeated request tuple in the stream\n");
    return false;
  };
  const std::size_t window_n = static_cast<std::size_t>(kBaseRps);
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(options.seconds * kBaseShare));
  const double step_s = options.seconds * kStepShare;

  // Set-up sample: Server construction + start on an ephemeral loopback
  // port + connecting the generator, up to the first timed send.
  std::vector<double> setup_s;
  std::unique_ptr<ps::serve::Server> server;
  Generator generator(stream, now_s() + 2.0 * options.seconds + 30.0);
  // The generator (this thread) wakes from ppoll within 1 ns of its
  // timeout instead of the default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto stop = [&] {
    generator.close_all();
    if (server != nullptr) {
      server->request_stop();
      server->wait();
      server.reset();  // joins the worker pool outside the timed start
    }
  };
  const auto restart = [&] {
    stop();
    const double start = now_s();
    server = std::make_unique<ps::serve::Server>(ps::serve::ServeOptions{});
    const bool up = server->start().ok() && generator.connect(server->port());
    setup_s.push_back(now_s() - start);
    if (!up) std::fprintf(stderr, "serve_cold_mix: server start/connect failed\n");
    return up;
  };
  // A failed segment ends the run: it is counted, and the missing metrics
  // fail it too.
  const auto abandon = [&] {
    out.check(false);
    stop();
    return out;
  };
  for (int rep = 0; rep < kExtraStarts; ++rep) {
    if (!restart()) return abandon();
  }

  const eng::SolveService checker;
  const eng::SolverRegistry builtins = eng::SolverRegistry::with_builtins();
  const eng::SolverRegistry timed = timed_registry(builtins);
  TrialStats trials;

  // Cycles of one base window and one burst. Each base metric is the
  // median over windows, so a transient stall of the shared machine moves
  // one window, not the run's figure. The traced run records a span per
  // request as its answer arrives in every other window; the p50 of those
  // windows against the rest is the tracing overhead.
  std::vector<double> window_p50, window_p99, window_cpu, traced_p50,
      untraced_p50, burst_s, render_us, parse_us;
  Latencies base;
  std::uint64_t ref_misses = 0, ref_hits = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    if (!draw(window_n) || !restart()) return abandon();
    const bool traced = options.trace && w % 2 == 1;
    generator.set_spans(traced ? &spans : nullptr);
    const eng::ReferenceCacheStats ref_before = eng::reference_cache_stats();
    const double cpu_start = process_cpu_s();
    const bool sent = generator.open_loop(kBaseRps) != SIZE_MAX;
    window_cpu.push_back(process_cpu_s() - cpu_start);
    const eng::ReferenceCacheStats ref_after = eng::reference_cache_stats();
    generator.set_spans(nullptr);
    if (!sent) return abandon();
    ref_misses += ref_after.misses - ref_before.misses;
    ref_hits += ref_after.hits - ref_before.hits;
    const Latencies window = summarize(stream);
    window_p50.push_back(percentile(window.e2e_ms, 0.50));
    window_p99.push_back(percentile(window.e2e_ms, 0.99));
    (traced ? traced_p50 : untraced_p50).push_back(window_p50.back());
    base.add(window);
    check_segment(stream, checker, out, options.trace ? &render_us : nullptr);
    if (options.trace && !probe_layers(stream, timed, trials, parse_us)) {
      out.check(false);
    }

    if (!draw(kBurst) || !restart()) return abandon();
    const double wall = generator.closed_loop(kWindow);
    if (wall < 0.0) return abandon();
    burst_s.push_back(wall);
    check_segment(stream, checker, out, nullptr);
  }
  // Memory as the steady cycles leave it; the ladder's overload segments
  // grow with however far it climbs.
  const double rss_mb = peak_rss_mb();

  double max_rps = 0.0, last_rate = 0.0, last_score = 0.0;
  std::size_t overloaded = base.overloaded;
  for (double rate : kLadder) {
    const std::size_t count = static_cast<std::size_t>(rate * step_s);
    if (!draw(count) || !restart()) return abandon();
    const std::size_t backlog = generator.open_loop(rate);
    const Latencies step = summarize(stream);
    overloaded += step.overloaded;
    if (backlog == SIZE_MAX || step.other_errors > 0) return abandon();
    const double refused = static_cast<double>(step.overloaded) /
                           static_cast<double>(count);
    const double score = std::max(
        {percentile(step.e2e_ms, 0.99) / kP99LimitMs, refused / 0.01,
         static_cast<double>(backlog) / (rate * kP99LimitMs * 1e-3)});
    std::fprintf(stderr,
                 "serve_cold_mix: ladder %5.0f req/s  p99 %7.3f ms  refused "
                 "%zu/%zu  backlog %zu  score %.3f\n",
                 rate, percentile(step.e2e_ms, 0.99), step.overloaded, count,
                 backlog, score);
    if (score >= 1.0) {
      if (last_rate > 0.0) {
        const double t = -std::log(last_score) /
                         (std::log(score) - std::log(last_score));
        max_rps = last_rate * std::pow(rate / last_rate, t);
      }
      break;
    }
    last_rate = max_rps = rate;
    last_score = score;
  }
  stop();

  if (!options.trace) {
    out.add("wall_s", median(burst_s), "s");
    out.add("cpu_s", median(window_cpu), "s");
    out.add("peak_rss_mb", rss_mb, "MB");
    out.add("setup_s", median(setup_s), "s");
    out.add("ok_frac",
            static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
            "ratio");
    out.add("p50_ms", median(window_p50), "ms");
    out.add("p99_ms", median(window_p99), "ms");
    out.add("max_rps", max_rps, "1/s");
    return out;
  }

  trials.report_trials(out, 1);
  out.add("reference.misses", static_cast<double>(ref_misses), "count");
  out.add("reference.hits", static_cast<double>(ref_hits), "count");
  out.add("serve.parse_us.p50", percentile(parse_us, 0.50), "us");
  out.add("serve.render_us.p50", percentile(render_us, 0.50), "us");
  out.add("serve.solve_ms.p50", percentile(base.solve_ms, 0.50), "ms");
  out.add("serve.solve_ms.p99", percentile(base.solve_ms, 0.99), "ms");
  out.add("serve.wait_ms.p50", percentile(base.wait_ms, 0.50), "ms");
  out.add("serve.wait_ms.p99", percentile(base.wait_ms, 0.99), "ms");
  out.add("serve.overloaded", static_cast<double>(overloaded), "count");
  out.add("serve.gen_late_ms.p99", percentile(base.late_ms, 0.99), "ms");
  out.add("trace.overhead_pct",
          (median(traced_p50) / median(untraced_p50) - 1.0) * 100.0, "%");
  const std::string trace_path = options.work_dir + "/trace_serve_cold_mix.json";
  if (!spans.write(trace_path)) out.check(false);
  std::fprintf(stderr, "serve_cold_mix: trace in %s\n", trace_path.c_str());
  return out;
}

}  // namespace perfbench
