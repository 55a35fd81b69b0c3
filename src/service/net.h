// Shared socket primitives for the service layer: every raw send/recv/
// accept/poll goes through here so EINTR retry, MSG_NOSIGNAL, and the
// socket.* failpoints are applied uniformly on both the server and the
// client side.
//
// Failpoints (see util/failpoint.h):
//   socket.send    err -> the send reports failure (peer looks dead)
//                  drop -> the bytes vanish (reported as sent)
//                  eintr -> one synthetic EINTR, then the real send
//   socket.recv    err -> recv fails with ECONNRESET
//                  drop -> recv reports EOF (peer looks closed)
//                  eintr -> one synthetic EINTR, then the real recv
//   socket.accept  evaluated when a connection arrives, so one set while
//                  the loop waits in accept hits the next connection:
//                  err -> that connection is closed immediately (client
//                  sees an instant disconnect), eintr -> no effect (the
//                  EINTR retry absorbs it)
#ifndef TWM_SERVICE_NET_H
#define TWM_SERVICE_NET_H

#include <cstddef>
#include <sys/types.h>

struct pollfd;

namespace twm::service {

// Sends all of data[0..size); EINTR-retried, MSG_NOSIGNAL.  False when the
// peer is gone or a socket.send failpoint fires `err`.
bool net_send_all(int fd, const char* data, std::size_t size);

// recv() with EINTR retry.  Returns >0 bytes, 0 on EOF, <0 on error
// (errno set) — the raw recv contract, minus the EINTR case.
ssize_t net_recv(int fd, char* buf, std::size_t size);

// accept4(SOCK_CLOEXEC) with EINTR retry.  Returns the fd or <0.
int net_accept(int listen_fd);

// poll() with EINTR retry.  Retries restart the full timeout, which is
// acceptable for our two call sites (0-timeout disconnect probe, idle
// timeout where an occasionally-stretched deadline is harmless).
int net_poll(pollfd* fds, unsigned long nfds, int timeout_ms);

// Ignores SIGPIPE process-wide (idempotent).  MSG_NOSIGNAL covers send();
// this covers any write-shaped path that is not a send, so a dying client
// can never signal-kill the daemon.
void ignore_sigpipe();

}  // namespace twm::service

#endif  // TWM_SERVICE_NET_H
