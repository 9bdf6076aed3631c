// bench_serve's HTTP load generator.
//
// One thread drives a few keep-alive loopback connections through epoll and
// pins itself, for each phase, to a CPU the caller keeps free of server
// threads (README.md, "Protocol"). Requests are pre-serialized; every
// reply's `result` is checked against the oracle of the variant that was
// sent.

#ifndef BENCH_SERVE_LOADGEN_H_
#define BENCH_SERVE_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace serve {

// One request shape a workload sends.
struct RequestVariant {
  std::string workflow;  // POST /invoke/<workflow>
  std::string body;      // JSON params
  std::string wire;      // the whole HTTP/1.1 request
  std::string expected;  // the `result` a correct reply carries
};

// An open-loop arrival: when it is due, from the start of its phase, and
// which variant it sends.
struct Arrival {
  int64_t offset_nanos = 0;
  uint32_t variant = 0;
};

struct Completion {
  // Reply complete minus due time (open loop) or send time (closed loop,
  // serial).
  int64_t latency_nanos = 0;
  // Send time minus due time; 0 outside the open loop.
  int64_t lag_nanos = 0;
  // The reply's end_to_end_nanos: the visor's own Invoke time.
  int64_t invoke_nanos = 0;
  // Status 200 and the result matches the oracle.
  bool ok = false;
};

struct PhaseResult {
  std::vector<Completion> completions;
  size_t scheduled = 0;
  size_t sent = 0;
  size_t wrong = 0;   // 200 replies whose result disagrees with the oracle
  size_t errors = 0;  // non-200 replies and requests lost to the transport
  int64_t elapsed_nanos = 0;
  // CPU time of every thread of the process but the generator's over the
  // phase (open loop only).
  int64_t server_cpu_nanos = 0;
};

class LoadGen {
 public:
  // Connects `connections` keep-alive sockets to 127.0.0.1:`port`. Phases
  // run on a thread pinned to `cpu`. `variants` must outlive the generator.
  LoadGen(uint16_t port, size_t connections, int cpu,
          const std::vector<RequestVariant>* variants);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool connected() const { return connected_; }

  // Sends each arrival at its due time on the connection with the fewest
  // requests outstanding, however many that is (open loop).
  PhaseResult OpenLoop(const std::vector<Arrival>& schedule);
  // Keeps exactly one request outstanding per connection for `duration`,
  // taking variants from `sequence` in order (closed loop). Completions
  // after `duration` are drained but not returned.
  PhaseResult ClosedLoop(int64_t duration_nanos,
                         const std::vector<uint32_t>& sequence);
  // One request at a time on one connection until `budget` is spent or
  // `max_requests` replied (the ladder's edge rung).
  PhaseResult Serial(uint32_t variant, int64_t budget_nanos,
                     size_t max_requests);

 private:
  struct Inflight {
    int64_t due = 0;
    int64_t sent = 0;
    uint32_t variant = 0;
  };
  struct Conn {
    int fd = -1;
    std::string in;
    size_t in_pos = 0;
    std::string out;
    size_t out_pos = 0;
    bool want_out = false;
    std::deque<Inflight> inflight;
  };

  // Queues one request on `conn` and writes what the socket takes.
  void Send(size_t conn, uint32_t variant, int64_t due, int64_t now,
            PhaseResult* result);
  // Waits for socket events until `deadline` (MonoNanos; <= now polls once),
  // parsing every complete reply into `result`. Returns the connections that
  // completed a reply, one entry per reply.
  std::vector<size_t> Pump(int64_t deadline, PhaseResult* result);
  void Flush(size_t conn, PhaseResult* result);
  void ParseReplies(size_t conn, int64_t now, PhaseResult* result,
                    std::vector<size_t>* done);
  // Closes a connection that failed and counts what it had in flight.
  void Fail(size_t conn, PhaseResult* result);
  size_t Outstanding() const;
  // Drains every outstanding reply (or gives up after a stall).
  void Drain(PhaseResult* result);

  const std::vector<RequestVariant>* variants_;
  const int cpu_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  bool connected_ = false;
  std::vector<Conn> conns_;
};

}  // namespace serve

#endif  // BENCH_SERVE_LOADGEN_H_
