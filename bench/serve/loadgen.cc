#include "bench/serve/loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <strings.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cstdlib>
#include <string_view>
#include <thread>

#include "src/common/clock.h"
#include "src/common/json.h"

namespace serve {
namespace {

using asbase::MonoNanos;

// The generator sleeps until this long before a deadline and spins on a
// zero-timeout epoll_wait for the rest: waking a halted vCPU from a timer
// took 50 to over 100 us here, which would all be generator lag. With a
// 50 us margin, `sort_fanout` (50 req/s, so the CPU halts between sends)
// had a lag p90 of ~20 us and sometimes over 100 us.
constexpr int64_t kSpinNanos = 200'000;
// Replies that stop arriving for this long are counted as transport errors.
constexpr int64_t kStallNanos = 10'000'000'000;
constexpr uint64_t kTimerTag = ~uint64_t{0};

int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

// Runs `fn` on a new thread pinned to `cpu` and joins it. Only that thread
// is pinned, so no server thread inherits the pin. Returns the CPU time the
// rest of the process, which is the server, used while `fn` ran.
template <typename Fn>
int64_t RunPinned(int cpu, Fn&& fn) {
  int64_t server_cpu_nanos = 0;
  std::thread worker([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    // Timer slack would otherwise round epoll timeouts up by ~50 us.
    prctl(PR_SET_TIMERSLACK, 1UL);
    const int64_t process = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
    const int64_t own = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
    fn();
    server_cpu_nanos = (CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - process) -
                       (CpuNanos(CLOCK_THREAD_CPUTIME_ID) - own);
  });
  worker.join();
  return server_cpu_nanos;
}

// Parses the reply starting at in[pos]: its length, or 0 while incomplete.
size_t ParseReply(const std::string& in, size_t pos, int* status,
                  std::string_view* body) {
  const size_t head_end = in.find("\r\n\r\n", pos);
  if (head_end == std::string::npos) {
    return 0;
  }
  const size_t space = in.find(' ', pos);
  *status = space < head_end ? std::atoi(in.c_str() + space + 1) : 0;
  size_t length = 0;
  constexpr std::string_view kLength = "content-length:";
  for (size_t line = in.find("\r\n", pos) + 2; line < head_end;) {
    const size_t eol = in.find("\r\n", line);
    if (eol - line > kLength.size() &&
        strncasecmp(in.data() + line, kLength.data(), kLength.size()) == 0) {
      length = std::strtoul(in.c_str() + line + kLength.size(), nullptr, 10);
    }
    line = eol + 2;
  }
  const size_t total = head_end + 4 + length - pos;
  if (in.size() - pos < total) {
    return 0;
  }
  *body = std::string_view(in).substr(head_end + 4, length);
  return total;
}

}  // namespace

LoadGen::LoadGen(uint16_t port, size_t connections, int cpu,
                 const std::vector<RequestVariant>* variants)
    : variants_(variants), cpu_(cpu) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    return;
  }
  epoll_event timer_event{};
  timer_event.events = EPOLLIN;
  timer_event.data.u64 = kTimerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &timer_event);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  connected_ = true;
  conns_.resize(connections);
  for (size_t i = 0; i < connections; ++i) {
    Conn& conn = conns_[i];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0 ||
        ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      connected_ = false;
      continue;
    }
    int enable = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    ::fcntl(conn.fd, F_SETFL, O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = i;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &event);
  }
}

LoadGen::~LoadGen() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) {
      ::close(conn.fd);
    }
  }
  if (timer_fd_ >= 0) {
    ::close(timer_fd_);
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
}

size_t LoadGen::Outstanding() const {
  size_t total = 0;
  for (const Conn& conn : conns_) {
    total += conn.inflight.size();
  }
  return total;
}

void LoadGen::Fail(size_t c, PhaseResult* result) {
  Conn& conn = conns_[c];
  result->errors += conn.inflight.size();
  conn.inflight.clear();
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
}

void LoadGen::Flush(size_t c, PhaseResult* result) {
  Conn& conn = conns_[c];
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_out) {
        epoll_event event{};
        event.events = EPOLLIN | EPOLLOUT;
        event.data.u64 = c;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
        conn.want_out = true;
      }
      return;
    }
    Fail(c, result);
    return;
  }
  conn.out.clear();
  conn.out_pos = 0;
  if (conn.want_out) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
    conn.want_out = false;
  }
}

void LoadGen::Send(size_t c, uint32_t variant, int64_t due, int64_t now,
                   PhaseResult* result) {
  Conn& conn = conns_[c];
  ++result->sent;
  if (conn.fd < 0) {
    ++result->errors;
    return;
  }
  conn.inflight.push_back(Inflight{due, now, variant});
  conn.out.append((*variants_)[variant].wire);
  Flush(c, result);
}

void LoadGen::ParseReplies(size_t c, int64_t now, PhaseResult* result,
                           std::vector<size_t>* done) {
  Conn& conn = conns_[c];
  int status = 0;
  std::string_view body;
  while (size_t length = ParseReply(conn.in, conn.in_pos, &status, &body)) {
    conn.in_pos += length;
    if (conn.inflight.empty()) {
      ++result->errors;  // a reply nobody asked for
      continue;
    }
    const Inflight request = conn.inflight.front();
    conn.inflight.pop_front();
    Completion completion;
    completion.latency_nanos = now - request.due;
    completion.lag_nanos = request.sent - request.due;
    if (status != 200) {
      ++result->errors;
    } else {
      auto reply = asbase::Json::Parse(body);
      const std::string& expected = (*variants_)[request.variant].expected;
      if (reply.ok() && (*reply)["result"].is_string() &&
          (*reply)["result"].as_string() == expected) {
        completion.ok = true;
        completion.invoke_nanos = (*reply)["end_to_end_nanos"].as_int();
      } else {
        ++result->wrong;
      }
    }
    result->completions.push_back(completion);
    done->push_back(c);
  }
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  } else if (conn.in_pos > (1u << 20)) {
    conn.in.erase(0, conn.in_pos);
    conn.in_pos = 0;
  }
}

std::vector<size_t> LoadGen::Pump(int64_t deadline, PhaseResult* result) {
  std::vector<size_t> done;
  int timeout_ms = 0;
  if (deadline - MonoNanos() > kSpinNanos) {
    const int64_t wake = deadline - kSpinNanos;
    itimerspec spec{};
    spec.it_value.tv_sec = wake / 1'000'000'000;
    spec.it_value.tv_nsec = wake % 1'000'000'000;
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
    timeout_ms = -1;
  }
  epoll_event events[16];
  const int n = ::epoll_wait(epoll_fd_, events, 16, timeout_ms);
  for (int i = 0; i < n; ++i) {
    if (events[i].data.u64 == kTimerTag) {
      uint64_t expirations = 0;
      (void)!::read(timer_fd_, &expirations, sizeof(expirations));
      continue;
    }
    const size_t c = static_cast<size_t>(events[i].data.u64);
    Conn& conn = conns_[c];
    if (conn.fd < 0) {
      continue;
    }
    if (events[i].events & EPOLLOUT) {
      Flush(c, result);
    }
    if (conn.fd < 0 || !(events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP))) {
      continue;
    }
    bool closed = false;
    char buffer[65536];
    while (true) {
      const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (got > 0) {
        conn.in.append(buffer, static_cast<size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) {
        continue;
      }
      closed = got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
      break;
    }
    ParseReplies(c, MonoNanos(), result, &done);
    if (closed) {
      Fail(c, result);
    }
  }
  return done;
}

void LoadGen::Drain(PhaseResult* result) {
  int64_t last_progress = MonoNanos();
  while (Outstanding() > 0) {
    const bool progressed =
        !Pump(MonoNanos() + 100'000'000, result).empty();
    const int64_t now = MonoNanos();
    if (progressed) {
      last_progress = now;
    } else if (now - last_progress > kStallNanos) {
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (!conns_[c].inflight.empty()) {
          Fail(c, result);
        }
      }
    }
  }
}

PhaseResult LoadGen::OpenLoop(const std::vector<Arrival>& schedule) {
  PhaseResult result;
  result.scheduled = schedule.size();
  result.server_cpu_nanos = RunPinned(cpu_, [&] {
    size_t rotate = 0;
    const int64_t start = MonoNanos();
    size_t next = 0;
    while (next < schedule.size()) {
      int64_t now = MonoNanos();
      while (next < schedule.size() &&
             start + schedule[next].offset_nanos <= now) {
        // Least-loaded live connection; ties rotate.
        size_t best = conns_.size();
        for (size_t k = 0; k < conns_.size(); ++k) {
          const size_t c = (rotate + k) % conns_.size();
          if (conns_[c].fd >= 0 &&
              (best == conns_.size() ||
               conns_[c].inflight.size() < conns_[best].inflight.size())) {
            best = c;
          }
        }
        rotate = (rotate + 1) % conns_.size();
        if (best == conns_.size()) {
          ++result.sent;
          ++result.errors;  // every connection is gone
        } else {
          Send(best, schedule[next].variant,
               start + schedule[next].offset_nanos, now, &result);
        }
        ++next;
        now = MonoNanos();
      }
      if (next < schedule.size()) {
        Pump(start + schedule[next].offset_nanos, &result);
      }
    }
    Drain(&result);
    result.elapsed_nanos = MonoNanos() - start;
  });
  return result;
}

PhaseResult LoadGen::ClosedLoop(int64_t duration_nanos,
                                const std::vector<uint32_t>& sequence) {
  PhaseResult result;
  RunPinned(cpu_, [&] {
    size_t next = 0;
    auto send_next = [&](size_t c) {
      const int64_t now = MonoNanos();
      Send(c, sequence[next++ % sequence.size()], now, now, &result);
    };
    const int64_t start = MonoNanos();
    const int64_t end = start + duration_nanos;
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].fd >= 0) {
        send_next(c);
      }
    }
    while (MonoNanos() < end && Outstanding() > 0) {
      for (size_t c : Pump(end, &result)) {
        if (MonoNanos() < end && conns_[c].fd >= 0) {
          send_next(c);
        }
      }
    }
    // Replies to requests still out at the end are checked, not counted.
    const size_t in_window = result.completions.size();
    Drain(&result);
    result.completions.resize(in_window);
    result.scheduled = result.sent;
    result.elapsed_nanos = duration_nanos;
  });
  return result;
}

PhaseResult LoadGen::Serial(uint32_t variant, int64_t budget_nanos,
                            size_t max_requests) {
  PhaseResult result;
  RunPinned(cpu_, [&] {
    const int64_t start = MonoNanos();
    while (result.completions.size() < max_requests &&
           MonoNanos() - start < budget_nanos && conns_[0].fd >= 0) {
      const int64_t now = MonoNanos();
      Send(0, variant, now, now, &result);
      Drain(&result);
    }
    result.scheduled = result.sent;
    result.elapsed_nanos = MonoNanos() - start;
  });
  return result;
}

}  // namespace serve
