#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

// Minimal blocking HTTP/1.1 keep-alive client for loopback load: POST a
// body, read one Content-Length-framed response. No dependencies beyond
// POSIX sockets.

#include <cstdint>
#include <string>

#include "common/status.h"

namespace perfbench {

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  hyper::Status Connect(uint16_t port);
  void Close();

  /// Sends one request and waits for the whole response. `extra_headers`
  /// is zero or more complete "Name: value\r\n" lines.
  hyper::Status Post(const std::string& path, const std::string& body,
                     const std::string& extra_headers, int* status,
                     std::string* response_body);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received past the last response
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
