// HTTP edge reactor benchmark (EXPERIMENTS.md "edge"):
//
//   1. connection scaling  — open 10k concurrent keep-alive connections
//      against the epoll reactor, recording connect() latency (the accept
//      bar: p99 < 1ms) and first-request round-trip latency, then prove
//      every held connection still answers a second request. The seed's
//      thread-per-connection server would need 10k resident threads here;
//      the reactor holds them on one epoll set.
//   2. keep-alive /invoke RPS — a warm workflow driven closed-loop over one
//      keep-alive watchdog connection vs direct AsVisor::Invoke dispatch.
//      The acceptance bar is HTTP within 5% of direct dispatch.
//   3. pipelining          — one connection, bursts of pipelined requests
//      vs the same count of sequential round trips.
//
// `--quick` shrinks the connection count and loop lengths to a smoke test
// (compile-and-run checked by ctest, label `http`). Emits BENCH_edge.json.

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace asbench {
namespace {

using alloy::AsVisor;
using alloy::FunctionContext;
using alloy::FunctionRegistry;
using alloy::FunctionSpec;
using alloy::StageSpec;
using alloy::WorkflowSpec;

// A keep-alive client socket with a carry-over read buffer, so pipelined
// responses that share a TCP segment are split correctly.
class EdgeClient {
 public:
  explicit EdgeClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connect_nanos_ = asbase::MonoNanos();
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    connect_nanos_ = asbase::MonoNanos() - connect_nanos_;
    int enable = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  }
  ~EdgeClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  EdgeClient(const EdgeClient&) = delete;
  EdgeClient& operator=(const EdgeClient&) = delete;

  bool connected() const { return connected_; }
  int64_t connect_nanos() const { return connect_nanos_; }

  bool Send(const std::string& wire) {
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one full response; returns its status code, or -1 on error.
  int ReadOne() {
    while (true) {
      const size_t end = inbuf_.find("\r\n\r\n");
      if (end != std::string::npos) {
        size_t body_len = 0;
        // All reactor responses carry an exact content-length.
        const size_t cl = inbuf_.find("content-length:");
        if (cl != std::string::npos && cl < end) {
          body_len = std::strtoul(inbuf_.c_str() + cl + 15, nullptr, 10);
        }
        if (inbuf_.size() >= end + 4 + body_len) {
          const int status = std::atoi(inbuf_.c_str() + inbuf_.find(' ') + 1);
          inbuf_.erase(0, end + 4 + body_len);
          return status;
        }
      }
      char buffer[65536];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        return -1;
      }
      inbuf_.append(buffer, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  int64_t connect_nanos_ = 0;
  std::string inbuf_;
};

// 10k held connections plus the server's side of each needs ~2x the default
// descriptor budget; the bench runs as a normal process, so raise it.
void RaiseFdLimit(rlim_t want) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0 || limit.rlim_cur >= want) {
    return;
  }
  if (limit.rlim_max != RLIM_INFINITY && limit.rlim_max < want) {
    // Raising the hard limit needs CAP_SYS_RESOURCE; harmless to try.
    rlimit raised = limit;
    raised.rlim_max = want;
    raised.rlim_cur = want;
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) {
      return;
    }
  }
  limit.rlim_cur = std::min<rlim_t>(
      want, limit.rlim_max == RLIM_INFINITY ? want : limit.rlim_max);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) {
    rlimit now{};
    ::getrlimit(RLIMIT_NOFILE, &now);
    std::fprintf(stderr,
                 "warning: could not raise RLIMIT_NOFILE to %llu "
                 "(cur %llu) — scaling the connection count down\n",
                 static_cast<unsigned long long>(want),
                 static_cast<unsigned long long>(now.rlim_cur));
  }
}

size_t FdBudgetConnections(size_t requested) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) {
    return requested;
  }
  // One descriptor per held connection (the client ends live in the helper
  // process), plus slack for the build's own files, epoll/eventfds, and the
  // listener.
  const size_t budget = static_cast<size_t>(limit.rlim_cur);
  const size_t usable = budget > 512 ? budget - 512 : 64;
  return std::min(requested, usable);
}

std::string SmallRequestWire(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nhost: bench\r\n\r\n";
}

// The client side of the connection-scaling section. Containers commonly
// cap RLIMIT_NOFILE at ~20k that even root cannot raise, and 10k held
// connections cost 10k descriptors on EACH side — so the clients run in
// their own re-exec'd process with its own descriptor budget, streaming
// latency samples back over a pipe:
//   lines "c <nanos>" (connect), "f <nanos>" (first round trip),
//   "s <nanos>" (round trip at full load), then
//   "done <held> <failures> <second_failures>". After "done" the helper
//   keeps every connection open until the parent writes a release byte.
int ClientHelperMain(uint16_t port, size_t count, int result_fd,
                     int release_fd) {
  RaiseFdLimit(count + 512);
  count = FdBudgetConnections(count);
  FILE* out = ::fdopen(result_fd, "w");
  if (out == nullptr) {
    return 1;
  }
  std::vector<std::unique_ptr<EdgeClient>> held;
  held.reserve(count);
  size_t failures = 0;
  for (size_t i = 0; i < count; ++i) {
    auto client = std::make_unique<EdgeClient>(port);
    if (!client->connected()) {
      ++failures;
      continue;
    }
    std::fprintf(out, "c %lld\n",
                 static_cast<long long>(client->connect_nanos()));
    const int64_t t0 = asbase::MonoNanos();
    if (!client->Send(SmallRequestWire("/c/" + std::to_string(i))) ||
        client->ReadOne() != 200) {
      ++failures;
      continue;
    }
    std::fprintf(out, "f %lld\n",
                 static_cast<long long>(asbase::MonoNanos() - t0));
    held.push_back(std::move(client));
  }
  size_t second_failures = 0;
  for (size_t i = 0; i < held.size(); ++i) {
    const int64_t t0 = asbase::MonoNanos();
    if (!held[i]->Send(SmallRequestWire("/again/" + std::to_string(i))) ||
        held[i]->ReadOne() != 200) {
      ++second_failures;
      continue;
    }
    std::fprintf(out, "s %lld\n",
                 static_cast<long long>(asbase::MonoNanos() - t0));
  }
  std::fprintf(out, "done %zu %zu %zu\n", held.size(), failures,
               second_failures);
  std::fflush(out);
  char byte = 0;
  while (::read(release_fd, &byte, 1) < 0 && errno == EINTR) {
  }
  return 0;
}

alloy::WfdOptions BenchWfd() {
  alloy::WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

void RegisterEdgeFunction() {
  // ~2ms of handler wall time: enough that dispatch overhead is a small
  // fraction, short enough that closed-loop runs finish on one core.
  FunctionRegistry::Global().Register(
      "bench.edge-cpu", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
}

WorkflowSpec OneStage(const std::string& name, const std::string& fn) {
  WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(StageSpec{{FunctionSpec{fn, 1}}});
  return spec;
}

}  // namespace

int Main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--client-helper") == 0 &&
               i + 4 < argc) {
      return ClientHelperMain(
          static_cast<uint16_t>(std::atoi(argv[i + 1])),
          static_cast<size_t>(std::atoll(argv[i + 2])),
          std::atoi(argv[i + 3]), std::atoi(argv[i + 4]));
    }
  }
  const size_t target_connections = quick ? 200 : 10000;
  const int rps_seconds_worth = quick ? 50 : 500;  // requests per mode
  const int pipeline_burst = quick ? 32 : 256;

  PrintHeader("edge", "epoll keep-alive reactor: scaling + dispatch overhead");

  asbase::Json doc;
  doc.Set("bench", "edge");
  doc.Set("scale", asbase::SimCostModel::Global().scale);
  doc.Set("quick", quick);
  asbase::Json series{asbase::JsonObject{}};

  // ------------------------------------------- 1. 10k held keep-alive conns
  {
    RaiseFdLimit(target_connections + 4096);
    const size_t n_connections = FdBudgetConnections(target_connections);

    ashttp::HttpServerOptions options;
    options.max_connections = n_connections + 64;
    options.idle_timeout_ms = 120000;  // never reap under the bench
    ashttp::HttpServer server(
        [](ashttp::HttpRequest request, ashttp::HttpResponder respond) {
          ashttp::HttpResponse response;
          response.body = "ok:" + request.target;
          respond(std::move(response));
        },
        options);
    if (!server.Start(0).ok()) {
      std::fprintf(stderr, "edge server start failed\n");
      return 1;
    }

    // Clients run in a re-exec'd helper (see ClientHelperMain): this process
    // budgets its descriptors for the server side only.
    int result_pipe[2];
    int release_pipe[2];
    if (::pipe(result_pipe) != 0 || ::pipe(release_pipe) != 0) {
      std::fprintf(stderr, "pipe failed\n");
      return 1;
    }
    const pid_t child = ::fork();
    if (child == 0) {
      ::close(result_pipe[0]);
      ::close(release_pipe[1]);
      char self[256];
      const ssize_t len =
          ::readlink("/proc/self/exe", self, sizeof(self) - 1);
      if (len > 0) {
        self[len] = '\0';
        std::string port_arg = std::to_string(server.port());
        std::string count_arg = std::to_string(n_connections);
        std::string result_arg = std::to_string(result_pipe[1]);
        std::string release_arg = std::to_string(release_pipe[0]);
        ::execl(self, self, "--client-helper", port_arg.c_str(),
                count_arg.c_str(), result_arg.c_str(), release_arg.c_str(),
                static_cast<char*>(nullptr));
      }
      ::_exit(127);
    }
    ::close(result_pipe[1]);
    ::close(release_pipe[0]);

    asbase::Histogram connect_hist;
    asbase::Histogram first_rt_hist;
    asbase::Histogram second_rt_hist;
    size_t held_count = 0;
    size_t failures = 0;
    size_t second_failures = 0;
    FILE* in = ::fdopen(result_pipe[0], "r");
    {
      char tag[8];
      long long a = 0;
      long long b = 0;
      long long c = 0;
      while (in != nullptr &&
             std::fscanf(in, "%7s %lld", tag, &a) == 2) {
        if (std::strcmp(tag, "c") == 0) {
          connect_hist.Record(a);
        } else if (std::strcmp(tag, "f") == 0) {
          first_rt_hist.Record(a);
        } else if (std::strcmp(tag, "s") == 0) {
          second_rt_hist.Record(a);
        } else if (std::strcmp(tag, "done") == 0 &&
                   std::fscanf(in, "%lld %lld", &b, &c) == 2) {
          held_count = static_cast<size_t>(a);
          failures = static_cast<size_t>(b);
          second_failures = static_cast<size_t>(c);
          break;
        }
      }
    }
    // The helper holds every connection until it gets the release byte, so
    // the peak gauge is read with all of them still open.
    const size_t active = server.active_connections();
    const char release = 'x';
    (void)!::write(release_pipe[1], &release, 1);
    if (in != nullptr) {
      std::fclose(in);
    }
    ::close(release_pipe[1]);
    int wait_status = 0;
    ::waitpid(child, &wait_status, 0);

    std::printf("\nheld keep-alive connections: %zu of %zu requested "
                "(%zu connect/req failures, %zu second-sweep failures)\n",
                held_count, target_connections, failures, second_failures);
    std::printf("  server active_connections at peak: %zu\n", active);
    std::printf("  %-24s %10s %10s %10s\n", "", "p50", "p99", "max");
    std::printf("  %-24s %10s %10s %10s\n", "connect()",
                Ms(connect_hist.Percentile(0.5)).c_str(),
                Ms(connect_hist.Percentile(0.99)).c_str(),
                Ms(connect_hist.Percentile(1.0)).c_str());
    std::printf("  %-24s %10s %10s %10s\n", "first round trip",
                Ms(first_rt_hist.Percentile(0.5)).c_str(),
                Ms(first_rt_hist.Percentile(0.99)).c_str(),
                Ms(first_rt_hist.Percentile(1.0)).c_str());
    std::printf("  %-24s %10s %10s %10s\n", "round trip at full load",
                Ms(second_rt_hist.Percentile(0.5)).c_str(),
                Ms(second_rt_hist.Percentile(0.99)).c_str(),
                Ms(second_rt_hist.Percentile(1.0)).c_str());
    const bool accept_bar =
        connect_hist.Percentile(0.99) < 1'000'000 && failures == 0;
    std::printf("  accept bar (p99 connect < 1ms, zero failures): %s\n",
                accept_bar ? "PASS" : "FAIL");

    series.Set("connect", connect_hist.ToJson());
    series.Set("first_round_trip", first_rt_hist.ToJson());
    series.Set("round_trip_at_full_load", second_rt_hist.ToJson());
    doc.Set("connections_requested",
            static_cast<int64_t>(target_connections));
    doc.Set("connections_held", static_cast<int64_t>(held_count));
    doc.Set("connect_failures", static_cast<int64_t>(failures));
    doc.Set("second_sweep_failures", static_cast<int64_t>(second_failures));
    doc.Set("connect_p99_nanos", connect_hist.Percentile(0.99));
    doc.Set("accept_bar_pass", accept_bar);

    server.Stop();
  }

  // ------------------------------ 2. warm /invoke: keep-alive HTTP vs direct
  {
    RegisterEdgeFunction();
    AsVisor visor;
    AsVisor::WorkflowOptions options;
    options.wfd = BenchWfd();
    options.pool_size = 2;
    options.max_concurrency = 2;
    visor.RegisterWorkflow(OneStage("edge-cpu", "bench.edge-cpu"), options);

    // Warm the pool outside the measured window.
    for (int i = 0; i < 4; ++i) {
      (void)visor.Invoke("edge-cpu", asbase::Json());
    }

    // Direct dispatch: the in-process ceiling — no sockets, no HTTP.
    asbase::Histogram direct_hist;
    const int64_t direct_start = asbase::MonoNanos();
    for (int i = 0; i < rps_seconds_worth; ++i) {
      const int64_t t0 = asbase::MonoNanos();
      auto result = visor.Invoke("edge-cpu", asbase::Json());
      if (result.ok()) {
        direct_hist.Record(asbase::MonoNanos() - t0);
      }
    }
    const double direct_seconds =
        static_cast<double>(asbase::MonoNanos() - direct_start) / 1e9;
    const double direct_rps =
        static_cast<double>(direct_hist.count()) / direct_seconds;

    // The same closed loop over one keep-alive watchdog connection.
    asbase::Histogram http_hist;
    double http_rps = 0.0;
    if (visor.StartWatchdog(0).ok()) {
      EdgeClient client(visor.watchdog_port());
      const std::string wire =
          "POST /invoke/edge-cpu HTTP/1.1\r\nhost: bench\r\n\r\n";
      // Unmeasured warmup: the first round trips pay the watchdog's own
      // start transient, not steady-state edge overhead.
      for (int i = 0; i < 8; ++i) {
        if (!client.Send(wire) || client.ReadOne() != 200) {
          break;
        }
      }
      const int64_t http_start = asbase::MonoNanos();
      for (int i = 0; i < rps_seconds_worth; ++i) {
        const int64_t t0 = asbase::MonoNanos();
        if (client.Send(wire) && client.ReadOne() == 200) {
          http_hist.Record(asbase::MonoNanos() - t0);
        }
      }
      const double http_seconds =
          static_cast<double>(asbase::MonoNanos() - http_start) / 1e9;
      http_rps = static_cast<double>(http_hist.count()) / http_seconds;
      visor.StopWatchdog();
    } else {
      std::fprintf(stderr, "watchdog start failed\n");
    }

    const double overhead_pct =
        direct_rps > 0.0 ? 100.0 * (direct_rps - http_rps) / direct_rps : 0.0;
    std::printf("\nwarm closed loop, %d invocations (~2ms CPU workflow)\n",
                rps_seconds_worth);
    std::printf("  %-26s %10s %10s %8s\n", "", "RPS", "p50", "p99");
    std::printf("  %-26s %10.0f %10s %8s\n", "direct dispatch", direct_rps,
                Ms(direct_hist.Percentile(0.5)).c_str(),
                Ms(direct_hist.Percentile(0.99)).c_str());
    std::printf("  %-26s %10.0f %10s %8s\n", "keep-alive /invoke", http_rps,
                Ms(http_hist.Percentile(0.5)).c_str(),
                Ms(http_hist.Percentile(0.99)).c_str());
    std::printf("  HTTP edge overhead: %.2f%% (bar: within 5%%)\n",
                overhead_pct);

    series.Set("direct_dispatch", direct_hist.ToJson());
    series.Set("keepalive_invoke", http_hist.ToJson());
    doc.Set("direct_rps", std::round(direct_rps * 10.0) / 10.0);
    doc.Set("http_rps", std::round(http_rps * 10.0) / 10.0);
    doc.Set("http_overhead_pct", std::round(overhead_pct * 100.0) / 100.0);
    doc.Set("http_within_5pct", overhead_pct <= 5.0);
  }

  // --------------------------------- 3. pipelined burst vs sequential calls
  {
    ashttp::HttpServer server(
        [](ashttp::HttpRequest, ashttp::HttpResponder respond) {
          ashttp::HttpResponse response;
          response.body = "pong";
          respond(std::move(response));
        },
        ashttp::HttpServerOptions{});
    if (server.Start(0).ok()) {
      EdgeClient sequential(server.port());
      const std::string wire = SmallRequestWire("/p");
      int64_t sequential_nanos = asbase::MonoNanos();
      for (int i = 0; i < pipeline_burst; ++i) {
        if (!sequential.Send(wire) || sequential.ReadOne() != 200) {
          std::fprintf(stderr, "sequential round trip failed\n");
          break;
        }
      }
      sequential_nanos = asbase::MonoNanos() - sequential_nanos;

      EdgeClient pipelined(server.port());
      std::string burst;
      for (int i = 0; i < pipeline_burst; ++i) {
        burst += wire;
      }
      int64_t pipelined_nanos = asbase::MonoNanos();
      int answered = 0;
      if (pipelined.Send(burst)) {
        while (answered < pipeline_burst && pipelined.ReadOne() == 200) {
          ++answered;
        }
      }
      pipelined_nanos = asbase::MonoNanos() - pipelined_nanos;

      std::printf("\n%d requests on one connection\n", pipeline_burst);
      std::printf("  sequential round trips: %s   pipelined burst: %s "
                  "(%d answered, %.1fx)\n",
                  Ms(sequential_nanos).c_str(), Ms(pipelined_nanos).c_str(),
                  answered,
                  static_cast<double>(sequential_nanos) /
                      static_cast<double>(std::max<int64_t>(pipelined_nanos,
                                                            1)));
      doc.Set("pipeline_burst", static_cast<int64_t>(pipeline_burst));
      doc.Set("pipeline_answered", static_cast<int64_t>(answered));
      doc.Set("sequential_nanos", sequential_nanos);
      doc.Set("pipelined_nanos", pipelined_nanos);
      server.Stop();
    }
  }

  doc.Set("series", std::move(series));
  const std::string text = doc.Dump(2);
  if (FILE* f = std::fopen("BENCH_edge.json", "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nresults written to BENCH_edge.json\n");
  }
  return 0;
}

}  // namespace asbench

int main(int argc, char** argv) { return asbench::Main(argc, argv); }
