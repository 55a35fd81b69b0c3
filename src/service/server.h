// The campaign daemon behind `twm_cli serve`.
//
// One TCP listener (127.0.0.1 by default), one thread per connected
// client, ONE campaign executing at a time: submissions from concurrent
// clients queue on the shared engine lock, and the running campaign fans
// out over its own spec.threads through the engine's run_pool — the
// "shared pool" every front-end submission multiplexes onto.  Results
// stream back per client as the api::JsonLinesSink record stream while the
// campaign runs, so a client tails its own campaign only.
//
// In front of the engine sits the content-addressed ResultCache
// (service/cache.h): every (scheme, fault-class, seed-set) cell is served
// by replaying stored records when its cell_key hits, byte-identically to
// the original live run, and each submit's closing campaign_stats frame
// reports exactly how many cells replayed vs. simulated.
//
// Cancellation: a client that disconnects (or half-closes) mid-campaign is
// detected between units — the sink polls the socket for POLLRDHUP/HUP and
// write failures — and its campaign stops claiming work cooperatively.
// Completed cells — and, at run.regions > 1, every settled region of the
// interrupted cell — stay cached, so the resubmitted campaign resumes from
// where the disconnect (or run.deadline_ms) left it.
//
// The daemon binds loopback by default and is engineered for hostile
// input (frame caps, parser nesting caps, structural spec validation), but
// it carries no authentication — bind non-loopback addresses only on
// networks where every peer may submit work.
#ifndef TWM_SERVICE_SERVER_H
#define TWM_SERVICE_SERVER_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.h"

namespace twm::service {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; start() returns the bound port
  std::string cache_dir;   // empty = memory-only result cache
  std::size_t cache_entries = 256;
  unsigned max_clients = 32;  // concurrent connections; excess refused
  // Per-client idle timeout between frames (ms; 0 = never).  An idle
  // client gets one retryable "timeout" error frame, then the connection
  // closes — a stuck peer cannot pin a client slot forever.  Campaigns in
  // flight are unaffected: the clock only runs while waiting for the next
  // request frame.
  unsigned idle_timeout_ms = 0;
};

class ServiceServer {
 public:
  struct Counters {
    std::uint64_t clients_served = 0;
    std::uint64_t clients_refused = 0;
    std::uint64_t campaigns = 0;            // completed submit frames
    std::uint64_t campaigns_cancelled = 0;  // stopped by client disconnect
    std::uint64_t frames_rejected = 0;      // malformed frames (conn closed)
    std::uint64_t specs_rejected = 0;       // well-formed but invalid specs
    std::uint64_t campaigns_failed = 0;     // engine errors (typed frame sent)
    std::uint64_t clients_timed_out = 0;    // idle-timeout disconnects
  };

  explicit ServiceServer(ServerConfig config);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  // Binds and listens; returns the actually-bound port (resolves port 0).
  // Throws std::runtime_error on bind/listen failure.
  std::uint16_t start();

  // Accept loop on the calling thread; returns after stop() (which a
  // shutdown frame triggers) once every client thread is joined.
  void serve_forever();

  // Idempotent, callable from any thread and from signal-adjacent paths:
  // wakes the accept loop and shuts down every live client socket, which
  // cancels in-flight campaigns cooperatively.
  void stop();

  std::uint16_t port() const { return port_; }
  Counters counters() const;
  ResultCache::Counters cache_counters() const { return cache_.counters(); }

 private:
  void client_loop(int fd);
  bool handle_submit(int fd, const api::CampaignSpec& spec);
  std::string compose_stats_frame();

  ServerConfig config_;
  ResultCache cache_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  std::mutex engine_mu_;  // the one-campaign-at-a-time queue

  std::mutex clients_mu_;
  std::vector<int> client_fds_;
  std::atomic<unsigned> active_clients_{0};

  mutable std::mutex counters_mu_;
  Counters counters_;
};

}  // namespace twm::service

#endif  // TWM_SERVICE_SERVER_H
