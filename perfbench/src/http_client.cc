#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace perfbench {

using hyper::Status;

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

Status HttpClient::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal("socket: " + std::string(strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = strerror(errno);
    Close();
    return Status::Internal("connect: " + err);
  }
  return Status::OK();
}

Status HttpClient::Post(const std::string& path, const std::string& body,
                        const std::string& extra_headers, int* status,
                        std::string* response_body) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::string request = "POST " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/json\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n" + extra_headers +
                        "\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::Internal("send: " + std::string(strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }

  size_t head_end = std::string::npos;
  size_t content_length = 0;
  char chunk[16384];
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string head = buffer_.substr(0, head_end);
        // "HTTP/1.1 200 OK"
        if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) {
          return Status::Internal("malformed status line");
        }
        *status = std::atoi(head.c_str() + 9);
        size_t line = head.find("\r\n");
        bool have_length = false;
        while (line != std::string::npos) {
          const size_t next = head.find("\r\n", line + 2);
          const std::string header =
              head.substr(line + 2, next == std::string::npos
                                        ? std::string::npos
                                        : next - line - 2);
          if (strncasecmp(header.c_str(), "Content-Length:", 15) == 0) {
            content_length = std::strtoull(header.c_str() + 15, nullptr, 10);
            have_length = true;
          }
          line = next;
        }
        if (!have_length) return Status::Internal("response without length");
        head_end += 4;
      }
    }
    if (head_end != std::string::npos &&
        buffer_.size() >= head_end + content_length) {
      response_body->assign(buffer_, head_end, content_length);
      buffer_.erase(0, head_end + content_length);
      return Status::OK();
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Internal("connection closed mid-response");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
