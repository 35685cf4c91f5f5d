// serve_mixed: a `diogenes serve` child on loopback ports it picks
// itself, fed by one pushing client while one reader queries the
// explorer side — at most two client connections at a time.
//
// The pushed files are the runs the tool itself emits: set-up analyses
// seeded variants of the paper's cuIBM, AMG and Rodinia apps at their
// default scale with Diogenes::analyze and a trace directory, exactly as
// `diogenes --trace-dir DIR <app>` does, and reads back the saved files
// (1 000 - 6 000 events each). A round pushes every distinct run once,
// then a few repeats the hub deduplicates. Each round re-saves the
// distinct runs with a round-specific footer stamp, so their bytes (and
// archive ids) are new every round, as from a CI fleet re-running the
// same apps.
//
// Both clients are open loops at fixed rates, so a slower server shows
// as latency rather than as less work: pushes at kPushesPerSecond and
// reads at kReadsPerSecond (one connection at a time), each timed from
// when it was due. The reader cycles through /api/runs, /api/timeline,
// /api/flame, /api/findings, /api/history, /api/regressions and
// /metrics. The run is a fixed
// number of rounds (seconds x push rate), so the archive ends the same
// size and every round holds the same work whatever the speed.
// round_cpu_s is harness plus server CPU per round, op_cpu_ms that CPU
// per operation (push or request); the traced table keeps the latencies.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "checks.h"
#include "common.h"
#include "core/diogenes.h"
#include "eventstore/run_io.h"
#include "hub/client.h"
#include "hub/protocol.h"
#include "json/json.h"
#include "obs/telemetry.h"
#include "spans.h"
#include "support/error.h"
#include "workloads.h"

namespace pb {

namespace {

namespace ev = diog::evstore;
namespace fs = std::filesystem;

// A round's distinct runs: a fixed mix of app families, so every seed
// pushes about the same bytes; repeats re-push one run of each family.
enum Family { kCuibm, kAmg, kRodinia };
constexpr Family kDistinct[] = {kCuibm, kCuibm, kCuibm, kAmg,
                                kAmg,   kAmg,   kRodinia, kRodinia};
constexpr Family kRepeated[] = {kCuibm, kAmg, kRodinia, kCuibm};
// A chosen load (README): a push takes 5-20 ms, so at 8/s the hub
// ingests about a tenth of the time, loaded but not queueing; 100 reads/s
// keep the explorer about as busy and give p99 over 20 samples beyond it
// in a 25 s run.
constexpr double kPushesPerSecond = 8;
constexpr double kReadsPerSecond = 100;
constexpr std::int64_t kFooterWallMs = 1700000000000;

// The `diogenes serve` child. Started with PR_SET_PDEATHSIG so it cannot
// outlive the harness; the destructor stops it (SIGTERM, then SIGKILL
// after 3 s) and reaps it on every path, failures included.
class ServeChild {
 public:
  ServeChild(const std::string& diogenes, std::size_t threads,
             const std::string& archive) {
    int out[2];
    DIOG_CHECK(::pipe(out) == 0, "pipe() failed");
    const std::string th = std::to_string(threads);
    pid_ = ::fork();
    DIOG_CHECK(pid_ >= 0, "fork() failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      const char* argv[] = {diogenes.c_str(), "--threads", th.c_str(),
                            "serve", archive.c_str(), "--port", "0",
                            "--http-port", "0", nullptr};
      ::execv(argv[0], const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(out[1]);
    out_ = out[0];
    // The child announces both ports on its first two stdout lines.
    std::string text;
    const double deadline = now_s() + 20;
    while ((hub_port_ == 0 || http_port_ == 0) && now_s() < deadline) {
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, 200) <= 0) continue;
      char buf[512];
      const ssize_t n = ::read(out_, buf, sizeof buf);
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
      hub_port_ = port_after(text, "tcp://127.0.0.1:");
      http_port_ = port_after(text, "http://127.0.0.1:");
    }
    if (hub_port_ == 0 || http_port_ == 0) {
      stop();
      throw diog::Error("serve child did not announce its ports");
    }
  }
  ~ServeChild() { stop(); }
  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;

  [[nodiscard]] std::uint16_t hub_port() const { return hub_port_; }
  [[nodiscard]] std::uint16_t http_port() const { return http_port_; }

  // CPU seconds (user + system) the child has used so far.
  [[nodiscard]] double cpu_s() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14 || i == 15) ticks += std::stod(field);  // utime, stime
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const double deadline = now_s() + 3;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(10000);
    }
    pid_ = -1;
    if (out_ >= 0) ::close(out_);
    out_ = -1;
  }

 private:
  static std::uint16_t port_after(const std::string& text,
                                  const std::string& prefix) {
    const std::size_t at = text.find(prefix);
    if (at == std::string::npos) return 0;
    const std::size_t nl = text.find('\n', at);
    if (nl == std::string::npos) return 0;  // line not complete yet
    return static_cast<std::uint16_t>(
        std::strtoul(text.c_str() + at + prefix.size(), nullptr, 10));
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t hub_port_ = 0;
  std::uint16_t http_port_ = 0;
};

struct HttpReply {
  int status = 0;
  std::string body;
};

// One GET on a fresh connection (the explorer answers one request per
// connection). Throws on connect or I/O failure, with a 10 s deadline.
HttpReply http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DIOG_CHECK(fd >= 0, "socket() failed");
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  DIOG_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
                 0,
             "connect to explorer failed: " + std::string(std::strerror(errno)));
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  DIOG_CHECK(::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
                 static_cast<ssize_t>(req.size()),
             "send to explorer failed");
  std::string raw;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) break;
    DIOG_CHECK(n > 0, "recv from explorer failed: " +
                          std::string(std::strerror(errno)));
    raw.append(buf, static_cast<std::size_t>(n));
  }
  HttpReply r;
  if (raw.compare(0, 9, "HTTP/1.1 ") == 0 || raw.compare(0, 9, "HTTP/1.0 ") == 0) {
    r.status = std::atoi(raw.c_str() + 9);
  }
  const std::size_t body = raw.find("\r\n\r\n");
  if (body != std::string::npos) r.body = raw.substr(body + 4);
  return r;
}


check::Blob blob_of(const std::string& bytes) {
  return {fnv1a(bytes.data(), bytes.size()), bytes.size()};
}

// One distinct run of the push sequence.
struct PushRun {
  std::string workload;
  ev::TraceRun run;
};

// A seeded variant of one family's default (paper-scale) config: step
// counts within 2 % of the defaults (so every seed pushes and reads about
// the same bytes) and virtual durations within 25 %, which move what the
// analyses find but not what they cost.
diog::ffm::Workload app_variant(Family f, SeedRng& rng) {
  const auto jitter = [&](diog::Duration d) {
    return diog::Duration(d.count() * rng.in(75, 125) / 100);
  };
  switch (f) {
    case kCuibm: {
      diog::apps::CuibmConfig c;
      c.timesteps = static_cast<std::size_t>(rng.in(392, 408));
      c.reduce_kernel_gpu = jitter(c.reduce_kernel_gpu);
      c.minmax_kernel_gpu = jitter(c.minmax_kernel_gpu);
      c.velocity_kernel_gpu = jitter(c.velocity_kernel_gpu);
      c.pressure_kernel_gpu = jitter(c.pressure_kernel_gpu);
      c.step_cpu = jitter(c.step_cpu);
      return diog::apps::make_cuibm(c, false);
    }
    case kAmg: {
      diog::apps::AmgConfig c;
      c.solve_iterations = static_cast<std::size_t>(rng.in(118, 122));
      c.relax_kernel_gpu = jitter(c.relax_kernel_gpu);
      c.boundary_kernel_gpu = jitter(c.boundary_kernel_gpu);
      c.cycle_cpu = jitter(c.cycle_cpu);
      return diog::apps::make_amg(c, false);
    }
    case kRodinia:
    default: {
      diog::apps::RodiniaGaussianConfig c;
      c.matrix_dim = static_cast<std::size_t>(rng.in(251, 261));
      c.fan1_gpu = jitter(c.fan1_gpu);
      c.fan2_gpu = jitter(c.fan2_gpu);
      c.row_cpu = jitter(c.row_cpu);
      return diog::apps::make_rodinia_gaussian(c, false);
    }
  }
}

// The run file the tool saves for `w`, read back: an analysis with a
// trace directory, as `diogenes --trace-dir DIR <app>` makes it. The
// tool's own spans are reset first, so the file holds those of this
// analysis only, as from a one-shot CLI process.
ev::TraceRun emitted_run(const diog::ffm::Workload& w, const std::string& dir) {
  diog::obs::Telemetry::global().spans().reset();
  diog::ffm::ToolConfig cfg;
  cfg.trace_dir = dir;
  (void)diog::ffm::Diogenes(w, cfg).analyze();
  return ev::open_run(ev::run_file_path(dir, w.name));
}

struct Endpoint {
  const char* layer;  // per-layer metric prefix
  std::string (*target)(const std::string& run, const std::string& workload);
};

const Endpoint kEndpoints[] = {
    {"explore.runs", [](const std::string&, const std::string&) {
       return std::string("/api/runs");
     }},
    {"explore.timeline", [](const std::string& run, const std::string&) {
       return "/api/timeline?run=" + run + "&px=512";
     }},
    {"explore.flame", [](const std::string& run, const std::string&) {
       return "/api/flame?run=" + run;
     }},
    {"explore.findings", [](const std::string& run, const std::string&) {
       return "/api/findings?run=" + run;
     }},
    {"archive.history", [](const std::string&, const std::string& w) {
       return "/api/history?workload=" + w;
     }},
    {"archive.regressions", [](const std::string&, const std::string&) {
       return std::string("/api/regressions");
     }},
    {"obs.metrics", [](const std::string&, const std::string&) {
       return std::string("/metrics");
     }},
};

}  // namespace

void run_serve_mixed(const RunOptions& o, Outcome& out) {
  Result& res = out.result;
  SeedRng rng(o.seed);

  // Inputs: the distinct runs, emitted by the tool for seeded app
  // variants, and the push order of a round — each distinct run, then
  // one repeat per kRepeated family, of a run the seed picks.
  std::vector<PushRun> runs;
  for (const Family f : kDistinct) {
    const diog::ffm::Workload w = app_variant(f, rng);
    runs.push_back({w.name, emitted_run(w, o.tmp + "/emitted")});
  }
  std::vector<int> order;
  for (int i = 0; i < static_cast<int>(std::size(kDistinct)); ++i) {
    order.push_back(i);
  }
  for (const Family f : kRepeated) {
    std::vector<int> same;
    for (int i = 0; i < static_cast<int>(std::size(kDistinct)); ++i) {
      if (kDistinct[i] == f) same.push_back(i);
    }
    order.push_back(same[static_cast<std::size_t>(
        rng.in(0, static_cast<std::int64_t>(same.size()) - 1))]);
  }

  const std::string archive = o.tmp + "/archive";
  ServeChild child(o.diogenes, o.threads, archive);
  diog::hub::ClientOptions copts;
  copts.port = child.hub_port();

  // Client-side ledger, checked against the server at the end.
  std::map<std::string, check::Blob> pushed;         // run id -> bytes pushed
  std::map<std::string, std::uint64_t> distinct_per_workload;
  std::uint64_t pushes = 0;
  std::uint64_t dedups = 0;
  std::uint64_t wire_bytes = 0;
  std::mutex ids_mu;
  std::vector<std::pair<std::string, std::string>> acked;  // (id, workload)

  // Pushes one file; false (and a recorded failure) when the hub refuses.
  const auto push = [&](const std::string& bytes, const std::string& w,
                        double* ms) {
    copts.workload = w;
    const double t0 = now_s();
    diog::hub::HubResponse r;
    {
      Span s("hub.push");
      r = diog::hub::push_bytes(
          reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(),
          copts);
    }
    *ms = (now_s() - t0) * 1e3;
    ++pushes;
    ++res.attempted;
    wire_bytes += diog::hub::encode_hello(w).size() + bytes.size();
    if (!r.ok) {
      ++res.failed;
      std::fprintf(stderr, "perfbench: push refused: %s\n", r.error.c_str());
      return false;
    }
    const check::Blob b = blob_of(bytes);
    const bool seen = pushed.count(r.run_id) != 0;
    if (r.deduplicated != seen) {
      res.fail("hub verdict for " + r.run_id + ": deduplicated=" +
               (r.deduplicated ? "true" : "false") + ", client expected " +
               (seen ? "true" : "false"));
    }
    if (seen) {
      ++dedups;
    } else {
      pushed[r.run_id] = b;
      ++distinct_per_workload[w];
      std::lock_guard<std::mutex> lock(ids_mu);
      acked.emplace_back(r.run_id, w);
    }
    return true;
  };

  // Every round's files, serialised up front; the footer stamp makes
  // each round's bytes new. Round 0 is set-up's warm-up.
  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(o.seconds * kPushesPerSecond /
                                  static_cast<double>(order.size())));
  std::vector<std::vector<std::string>> files(rounds + 1);
  {
    const std::string path = o.tmp + "/push.dgtrace";
    for (std::size_t r = 0; r <= rounds; ++r) {
      for (const PushRun& run : runs) {
        ev::save_run(path, run.run,
                     ev::SaveOptions{
                         .chunk_rows = ev::kSegmentRows,
                         .footer_wall_ms = kFooterWallMs +
                                           static_cast<std::int64_t>(r)});
        files[r].push_back(read_file(path));
      }
    }
  }

  // Set-up ends with one discarded warm-up: a push (the hub's ingest
  // analysis) and one pass over the endpoints.
  {
    double ms = 0;
    if (!push(files[0][0], runs[0].workload, &ms)) {
      throw diog::Error("warm-up push refused");
    }
    for (const Endpoint& ep : kEndpoints) {
      (void)http_get(child.http_port(),
                     ep.target(acked[0].first, acked[0].second));
    }
  }
  out.e2e.setup_wall_s = since_process_start_s();
  out.e2e.setup_cpu_s = usage_self().cpu_s + child.cpu_s();
  // Calibration brackets the rounds (child idle), so that it neither
  // disturbs the open-loop clients nor is disturbed by them.
  constexpr int kCalibrations = 8;
  for (int i = 0; i < kCalibrations; ++i) out.e2e.calibrate(o.threads);

  // Traced runs pause the tracer in half the push rounds, in the order
  // traced, paused, paused, traced, so that the archive's growth over the
  // run cancels out; requests started in paused rounds are the untraced
  // baseline of trace.overhead_pct.
  const double push_interval = 1.0 / kPushesPerSecond;
  const double span_s =
      static_cast<double>(rounds * order.size()) * push_interval;
  const std::size_t total_reads =
      static_cast<std::size_t>(span_s * kReadsPerSecond);
  const auto wait_until = [](double due) {
    for (double left = due - now_s(); left > 0; left = due - now_s()) {
      ::usleep(static_cast<useconds_t>(left * 1e6) + 1);
    }
  };

  std::vector<std::vector<double>> ep_ms(std::size(kEndpoints));
  std::vector<double> all_ms;
  std::vector<double> read_late_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::string reader_error;  // written by the reader, read after join
  std::atomic<bool> stop{false};
  const double cpu0 = usage_self().cpu_s + child.cpu_s();
  const double start = now_s() + 0.05;
  std::thread reader([&] {
    SeedRng pick(o.seed ^ 0x5eedull);
    try {
      for (std::size_t k = 0; k < total_reads && !stop.load(); ++k) {
        const double due = start + static_cast<double>(k) / kReadsPerSecond;
        wait_until(due);
        const double t0 = now_s();
        read_late_ms.push_back((t0 - due) * 1e3);
        const std::size_t e = k % std::size(kEndpoints);
        std::pair<std::string, std::string> target;
        {
          std::lock_guard<std::mutex> lock(ids_mu);
          target = acked[static_cast<std::size_t>(
              pick.in(0, static_cast<std::int64_t>(acked.size()) - 1))];
        }
        const bool traced = Tracer::active() != nullptr;
        HttpReply r;
        {
          Span s(kEndpoints[e].layer);
          r = http_get(child.http_port(),
                       kEndpoints[e].target(target.first, target.second));
        }
        // Endpoint figures time the request itself; the request
        // percentiles time it from when it was due, so they count the
        // wait a slow request imposes on the ones behind it.
        const double t1 = now_s();
        ep_ms[e].push_back((t1 - t0) * 1e3);
        all_ms.push_back((t1 - due) * 1e3);
        (traced ? traced_ms : untraced_ms).push_back((t1 - t0) * 1e3);
        const bool text = e + 1 == std::size(kEndpoints);  // /metrics
        if (r.status != 200 || (!text && !check::json_valid(r.body))) {
          reader_error = check::json_response_ok(kEndpoints[e].layer,
                                                 r.status, r.body);
          if (reader_error.empty()) reader_error = "/metrics: bad status";
          return;
        }
      }
    } catch (const std::exception& ex) {
      reader_error = ex.what();
    }
  });
  // Stops and joins the reader on every path out of this function.
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& t;
    ~Joiner() {
      stop = true;
      if (t.joinable()) t.join();
    }
  } joiner{stop, reader};

  std::vector<double> push_ms;
  std::vector<double> late_ms;
  double push_service_s = 0;
  std::uint64_t push_ok = 0;
  std::size_t k = 0;
  double round_cpu0 = cpu0;
  for (std::size_t round = 1; round <= rounds; ++round) {
    if (o.trace) Tracer::set_paused(round % 4 == 2 || round % 4 == 3);
    Span s("serve.round");
    double round_latency = 0;
    for (const int i : order) {
      const double due = start + static_cast<double>(k++) * push_interval;
      if (now_s() < due) {
        Span wait("serve.wait");
        wait_until(due);
      }
      const double t0 = now_s();
      late_ms.push_back((t0 - due) * 1e3);
      double ms = 0;
      if (push(files[round][static_cast<std::size_t>(i)],
               runs[static_cast<std::size_t>(i)].workload, &ms)) {
        ++push_ok;
      }
      const double latency = now_s() - t0;
      round_latency += latency;
      push_ms.push_back(latency * 1e3);
      push_service_s += ms * 1e-3;
    }
    out.e2e.round_s.push_back(round_latency);
    const double cpu = usage_self().cpu_s + child.cpu_s();
    out.e2e.round_cpu_s.push_back(cpu - round_cpu0);
    const double round_ops =
        static_cast<double>(order.size()) *
        (1.0 + kReadsPerSecond * push_interval);  // pushes + reads
    out.e2e.op_cpu_ms["push or request"].push_back((cpu - round_cpu0) * 1e3 /
                                                   round_ops);
    round_cpu0 = cpu;
  }
  reader.join();
  Tracer::set_paused(false);
  const double server_cpu = child.cpu_s();
  for (int i = 0; i < kCalibrations; ++i) out.e2e.calibrate(o.threads);
  out.e2e.op_ms = all_ms;
  if (o.trace && !untraced_ms.empty()) {
    out.trace_cost.push_back(median(traced_ms) / median(untraced_ms));
  }
  res.attempted += all_ms.size();
  res.check(reader_error);
  res.check(check::counts_equal("reader requests", total_reads,
                                all_ms.size()));

  // --- end-of-run checks against the client's own ledger -------------------
  const HttpReply metrics = http_get(child.http_port(), "/metrics");
  res.check(metrics.status == 200 ? "" : "/metrics: HTTP status " +
                                           std::to_string(metrics.status));
  const auto scraped = [&](const char* name) {
    return check::prometheus_value(metrics.body, name);
  };
  res.check(check::counts_equal("hub.bytes vs client wire bytes", wire_bytes,
                              static_cast<std::uint64_t>(
                                  scraped("diogenes_hub_bytes"))));
  res.check(check::counts_equal("hub.sessions vs client pushes", pushes,
                              static_cast<std::uint64_t>(
                                  scraped("diogenes_hub_sessions"))));
  res.check(check::counts_equal("hub.dedup vs client repeats", dedups,
                              static_cast<std::uint64_t>(
                                  scraped("diogenes_hub_dedup"))));
  for (const auto& [w, n] : distinct_per_workload) {
    const HttpReply h = http_get(child.http_port(), "/api/history?workload=" + w);
    res.check(check::json_response_ok("/api/history " + w, h.status, h.body));
    if (h.status == 200 && check::json_valid(h.body)) {
      const diog::json::Value v = diog::json::parse(h.body);
      res.check(check::counts_equal("/api/history runs of " + w, n,
                                  static_cast<std::uint64_t>(
                                      v.at("runs").as_int())));
    }
  }
  std::map<std::string, check::Blob> archived;
  for (const auto& entry : fs::directory_iterator(archive + "/objects")) {
    if (entry.path().extension() != ".dgtrace") continue;
    archived[entry.path().stem().string()] =
        blob_of(read_file(entry.path().string()));
  }
  res.check(check::archive_matches(pushed, archived));
  child.stop();

  // Per-layer figures (reported by traced runs).
  Layers& L = out.layers;
  L.set("hub.push_ms", median(push_ms));
  L.set("hub.push_late_ms", median(late_ms));
  L.set("hub.push_runs_per_s",
        push_service_s > 0 ? static_cast<double>(push_ok) / push_service_s
                           : 0);
  for (std::size_t e = 0; e < std::size(kEndpoints); ++e) {
    L.set(std::string(kEndpoints[e].layer) + "_ms", median(ep_ms[e]));
  }
  L.set("explore.read_late_ms", median(read_late_ms));
  L.set("explore.request_p50_ms", percentile(all_ms, 50));
  L.set("explore.request_p99_ms", percentile(all_ms, 99));
  L.set("hub.bytes", scraped("diogenes_hub_bytes"));
  L.set("hub.events", scraped("diogenes_hub_events"));
  L.set("hub.dedup", scraped("diogenes_hub_dedup"));
  L.set("hub.server_cpu_s", server_cpu);
  std::fprintf(stderr,
               "perfbench: serve_mixed: %zu rounds, %llu pushes (%llu dedup), "
               "%zu reads, request p50 %.2f ms p99 %.2f ms\n",
               out.e2e.round_s.size(), static_cast<unsigned long long>(pushes),
               static_cast<unsigned long long>(dedups), all_ms.size(),
               percentile(all_ms, 50), percentile(all_ms, 99));
}

}  // namespace pb
