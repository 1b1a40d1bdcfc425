#include "mcs/svc/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace mcs::svc {

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("mcs_serve client: socket path too long: " +
                             socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("mcs_serve client: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("mcs_serve client: cannot connect to " +
                             socket_path + ": " + why);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

util::Json Client::analyze(const AnalysisRequest& request) {
  std::ostringstream out;
  write_analyze_request(out, next_id_++, request);
  return roundtrip(out.str());
}

util::Json Client::ping() {
  std::ostringstream out;
  write_command(out, next_id_++, Request::Kind::kPing);
  return roundtrip(out.str());
}

util::Json Client::stats() {
  std::ostringstream out;
  write_command(out, next_id_++, Request::Kind::kStats);
  return roundtrip(out.str());
}

util::Json Client::shutdown() {
  std::ostringstream out;
  write_command(out, next_id_++, Request::Kind::kShutdown);
  return roundtrip(out.str());
}

util::Json Client::roundtrip(const std::string& text) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    // MSG_NOSIGNAL: a server that hung up surfaces as the error below, not
    // as a SIGPIPE that kills the caller.
    const ssize_t n =
        ::send(fd_, p, static_cast<std::size_t>(end - p), MSG_NOSIGNAL);
    if (n <= 0) {
      throw std::runtime_error("mcs_serve client: connection lost on send");
    }
    p += n;
  }

  for (;;) {
    if (const std::size_t eol = rx_buffer_.find('\n');
        eol != std::string::npos) {
      const std::string line = rx_buffer_.substr(0, eol);
      rx_buffer_.erase(0, eol + 1);
      return util::Json::parse(line);
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      throw std::runtime_error("mcs_serve client: connection closed mid-"
                               "response");
    }
    rx_buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace mcs::svc
