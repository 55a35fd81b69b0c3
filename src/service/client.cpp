#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "service/net.h"

namespace twm::service {

LineClient::~LineClient() { close(); }

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

bool LineClient::connect(const std::string& host, std::uint16_t port, std::string* error) {
  close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "'" + host + "' is not an IPv4 address";
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (error) *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // EINTR during connect does NOT abort the handshake — the kernel keeps
    // going; re-calling connect() would race it.  Wait for completion and
    // read the verdict from SO_ERROR.
    bool ok = false;
    if (errno == EINTR) {
      pollfd p{};
      p.fd = fd_;
      p.events = POLLOUT;
      if (net_poll(&p, 1, /*timeout_ms=*/-1) > 0) {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        ok = ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) == 0 && so_error == 0;
        if (!ok) errno = so_error;
      }
    }
    if (!ok) {
      if (error)
        *error = "connect(" + host + ":" + std::to_string(port) +
                 "): " + std::strerror(errno);
      close();
      return false;
    }
  }
  return true;
}

bool LineClient::send_line(const std::string& frame) {
  if (fd_ < 0) return false;
  const std::string line = frame + "\n";
  return net_send_all(fd_, line.data(), line.size());
}

std::optional<std::string> LineClient::recv_line() {
  if (fd_ < 0) return std::nullopt;
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = net_recv(fd_, chunk, sizeof(chunk));
    if (n <= 0) return std::nullopt;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

}  // namespace twm::service
