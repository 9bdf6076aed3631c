#include "src/http/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string_view>

#include "src/common/logging.h"
#include "src/http/parser.h"

namespace ashttp {
namespace {

// Bodies on the blocking helper path (clients, netstack serving). The
// reactor path uses HttpServerOptions::max_body_bytes instead.
constexpr size_t kBlockingMaxBody = 64u << 20;

std::string ToLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// Reads until "\r\n\r\n"; returns {head, leftover-body-bytes-already-read}.
asbase::Result<std::pair<std::string, std::string>> ReadHead(
    ByteStream& stream) {
  std::string data;
  uint8_t buffer[2048];
  while (true) {
    size_t scan_from = data.size() >= 3 ? data.size() - 3 : 0;
    AS_ASSIGN_OR_RETURN(size_t n, stream.Read(buffer));
    if (n == 0) {
      return asbase::Unavailable("connection closed before headers complete");
    }
    data.append(reinterpret_cast<char*>(buffer), n);
    size_t end = data.find("\r\n\r\n", scan_from);
    if (end != std::string::npos) {
      return std::make_pair(data.substr(0, end),
                            data.substr(end + 4));
    }
    if (data.size() > 1 << 20) {
      return asbase::InvalidArgument("headers too large");
    }
  }
}

asbase::Status ParseHeaders(const std::string& head, size_t first_line_end,
                            std::map<std::string, std::string>* headers) {
  size_t pos = first_line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) {
      eol = head.size();
    }
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return asbase::InvalidArgument("malformed header line: " + line);
    }
    std::string key = ToLower(line.substr(0, colon));
    size_t value_start = colon + 1;
    while (value_start < line.size() && line[value_start] == ' ') {
      ++value_start;
    }
    (*headers)[key] = line.substr(value_start);
  }
  return asbase::OkStatus();
}

asbase::Status ReadBody(ByteStream& stream,
                        const std::map<std::string, std::string>& headers,
                        std::string leftover, std::string* body) {
  size_t content_length = 0;
  auto it = headers.find("content-length");
  if (it != headers.end()) {
    // The seed fed the raw header to std::stoull — a non-numeric or
    // overflowing value threw out of a server thread and took the whole
    // process down. Validate instead and bound what we will buffer.
    AS_ASSIGN_OR_RETURN(content_length,
                        ParseContentLength(it->second, kBlockingMaxBody));
  }
  *body = std::move(leftover);
  if (body->size() > content_length) {
    body->resize(content_length);  // next message's bytes are not our problem
  }
  uint8_t buffer[8192];
  while (body->size() < content_length) {
    AS_ASSIGN_OR_RETURN(size_t n, stream.Read(buffer));
    if (n == 0) {
      return asbase::Unavailable("connection closed mid-body");
    }
    body->append(reinterpret_cast<char*>(buffer),
                 std::min(n, content_length - body->size()));
  }
  return asbase::OkStatus();
}

}  // namespace

// --------------------------------------------------------------- streams

HostStream::~HostStream() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

asbase::Result<size_t> HostStream::Read(std::span<uint8_t> out) {
  ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
  if (n < 0) {
    return asbase::Unavailable("recv failed");
  }
  return static_cast<size_t>(n);
}

asbase::Status HostStream::Write(std::span<const uint8_t> data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      return asbase::Unavailable("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  return asbase::OkStatus();
}

asbase::Result<size_t> AsnetStream::Read(std::span<uint8_t> out) {
  return connection_->Recv(out);
}

asbase::Status AsnetStream::Write(std::span<const uint8_t> data) {
  return asnet::SendAll(*connection_, data);
}

// --------------------------------------------------------------- messages

std::string Serialize(const HttpRequest& request) {
  const std::string version =
      request.version.empty() ? "HTTP/1.1" : request.version;
  std::string out =
      request.method + " " + request.target + " " + version + "\r\n";
  bool has_length = false;
  for (const auto& [key, value] : request.headers) {
    out += key + ": " + value + "\r\n";
    if (ToLower(key) == "content-length") {
      has_length = true;
    }
  }
  if (!has_length && !request.body.empty()) {
    out += "content-length: " + std::to_string(request.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

std::string Serialize(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    response.reason + "\r\n";
  for (const auto& [key, value] : response.headers) {
    out += key + ": " + value + "\r\n";
  }
  out += "content-length: " + std::to_string(response.body.size()) + "\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

std::string QueryParam(const std::string& target, const std::string& key) {
  const size_t question = target.find('?');
  if (question == std::string::npos) {
    return "";
  }
  std::string_view rest = std::string_view(target).substr(question + 1);
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    if (amp == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(amp + 1);
  }
  return "";
}

// ------------------------------------------------------------- responder

struct HttpResponder::Channel {
  explicit Channel(Sink sink_in) : sink(std::move(sink_in)) {}
  ~Channel() {
    if (!answered.load(std::memory_order_acquire)) {
      HttpResponse response;
      response.status = 500;
      response.reason = "Internal Server Error";
      response.body = "request dropped unanswered";
      sink(std::move(response));
    }
  }

  Sink sink;
  std::atomic<bool> answered{false};
};

HttpResponder::HttpResponder(Sink sink)
    : channel_(std::make_shared<Channel>(std::move(sink))) {}

void HttpResponder::operator()(HttpResponse response) const {
  if (channel_ != nullptr &&
      !channel_->answered.exchange(true, std::memory_order_acq_rel)) {
    channel_->sink(std::move(response));
  }
}

asbase::Result<HttpRequest> ReadRequest(ByteStream& stream) {
  // Blocking shim over the reactor's incremental parser: feed until the
  // first complete request. Bytes past it (a pipelined next request) are
  // discarded with the parser — the blocking path is one-message-at-a-time,
  // exactly like the seed's ReadHead/ReadBody pair.
  RequestParser::Limits limits;
  limits.max_body_bytes = kBlockingMaxBody;
  limits.max_header_bytes = 1u << 20;
  RequestParser parser(limits);
  std::vector<HttpRequest> completed;
  uint8_t buffer[8192];
  while (true) {
    AS_ASSIGN_OR_RETURN(size_t n, stream.Read(buffer));
    if (n == 0) {
      return parser.idle()
                 ? asbase::Unavailable(
                       "connection closed before headers complete")
                 : asbase::Unavailable("connection closed mid-request");
    }
    AS_RETURN_IF_ERROR(parser.Feed(
        std::string_view(reinterpret_cast<char*>(buffer), n), &completed));
    if (!completed.empty()) {
      return std::move(completed.front());
    }
  }
}

asbase::Result<HttpResponse> ReadResponse(ByteStream& stream) {
  AS_ASSIGN_OR_RETURN(auto head_pair, ReadHead(stream));
  auto& [head, leftover] = head_pair;
  const size_t line_end = head.find("\r\n");
  const std::string status_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);

  HttpResponse response;
  // "HTTP/1.1 200 OK"
  const size_t sp1 = status_line.find(' ');
  if (sp1 == std::string::npos) {
    return asbase::InvalidArgument("malformed status line");
  }
  response.status = std::atoi(status_line.c_str() + sp1 + 1);
  const size_t sp2 = status_line.find(' ', sp1 + 1);
  response.reason =
      sp2 == std::string::npos ? "" : status_line.substr(sp2 + 1);
  if (line_end != std::string::npos) {
    AS_RETURN_IF_ERROR(ParseHeaders(head, line_end, &response.headers));
  }
  AS_RETURN_IF_ERROR(
      ReadBody(stream, response.headers, std::move(leftover), &response.body));
  return response;
}

// --------------------------------------------------------------- client

asbase::Result<HttpResponse> HttpCall(const std::string& host, uint16_t port,
                                      const HttpRequest& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return asbase::Internal("socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return asbase::InvalidArgument("bad host address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return asbase::Unavailable("connect to " + host + ":" +
                               std::to_string(port) + " failed");
  }
  int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  HostStream stream(fd);
  HttpRequest to_send = request;
  to_send.headers["connection"] = "close";
  std::string wire = Serialize(to_send);
  AS_RETURN_IF_ERROR(stream.Write(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(wire.data()), wire.size())));
  return ReadResponse(stream);
}

asbase::Result<HttpResponse> HttpCallOver(asnet::TcpConnection& connection,
                                          const HttpRequest& request) {
  AsnetStream stream(&connection);
  std::string wire = Serialize(request);
  AS_RETURN_IF_ERROR(stream.Write(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(wire.data()), wire.size())));
  return ReadResponse(stream);
}

}  // namespace ashttp
