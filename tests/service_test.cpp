// End-to-end tests of the campaign daemon (src/service): a real
// ServiceServer on an ephemeral loopback port, real LineClient sockets.
// Covers the protocol contract (ping/stats/shutdown, frame errors close,
// spec errors don't), the content-addressed result cache (resubmit replays
// byte-identically and re-simulates nothing; a delta spec simulates only
// its new cells; disk entries survive a daemon restart), hostile input
// (malformed frames, nesting bombs, oversized lines), concurrent clients,
// and cooperative cancel on client disconnect.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "api/runner.h"
#include "api/spec.h"
#include "march/library.h"
#include "oracle.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace twm::service {
namespace {

api::CampaignSpec small_spec() {
  api::CampaignSpec s;
  s.name = "service-test";
  s.words = 8;
  s.width = 4;
  s.march = "March C-";
  s.schemes = {SchemeKind::ProposedExact};
  s.classes = {{api::ClassKind::Saf, CfScope::Both}, {api::ClassKind::Tf, CfScope::Both}};
  s.seeds = {0, 1};
  s.threads = 2;
  return s;
}

// Big enough that a campaign is still running when the client vanishes
// right after submitting (thousands of units across the coupling classes).
api::CampaignSpec slow_spec() {
  api::CampaignSpec s = small_spec();
  s.name = "service-test-slow";
  s.words = 32;
  s.width = 8;
  s.classes = {{api::ClassKind::CFst, CfScope::Both},
               {api::ClassKind::CFid, CfScope::Both},
               {api::ClassKind::CFin, CfScope::Both}};
  s.seeds = {0, 1, 2, 3};
  s.threads = 1;
  return s;
}

std::string frame_type(const std::string& line) {
  const api::JsonValue doc = api::json_parse(line);
  const api::JsonValue* type = doc.is_object() ? doc.find("type") : nullptr;
  return type && type->is_string() ? type->as_string() : "";
}

std::uint64_t u64_field(const std::string& line, const std::string& key) {
  const api::JsonValue doc = api::json_parse(line);
  const api::JsonValue* v = doc.find(key);
  EXPECT_NE(v, nullptr) << key << " missing in: " << line;
  return v && v->as_u64() ? *v->as_u64() : ~0ull;
}

// One submit exchange: sends the spec, collects the response lines through
// the closing campaign_stats (or error) frame.
struct SubmitResult {
  std::vector<std::string> lines;  // everything received, in order
  std::string last;                // campaign_stats or error frame

  std::vector<std::string> unit_lines() const {
    std::vector<std::string> units;
    for (const std::string& l : lines)
      if (l.find("\"type\":\"unit\"") != std::string::npos) units.push_back(l);
    return units;
  }
};

SubmitResult submit_and_drain(LineClient& client, const api::CampaignSpec& spec) {
  SubmitResult r;
  EXPECT_TRUE(client.send_line(submit_frame(spec)));
  while (true) {
    const auto line = client.recv_line();
    if (!line) break;
    r.lines.push_back(*line);
    const std::string t = frame_type(*line);
    if (t == "campaign_stats" || t == "error") {
      r.last = *line;
      break;
    }
  }
  return r;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("twm_service_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    stop_server();
    std::filesystem::remove_all(dir_);
  }

  std::uint16_t start_server(ServerConfig config = {}) {
    if (config.cache_dir.empty()) config.cache_dir = dir_.string();
    server_ = std::make_unique<ServiceServer>(std::move(config));
    const std::uint16_t port = server_->start();
    serve_thread_ = std::thread([this] { server_->serve_forever(); });
    return port;
  }

  void stop_server() {
    if (server_) server_->stop();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }

  LineClient connect(std::uint16_t port) {
    LineClient c;
    std::string error;
    EXPECT_TRUE(c.connect("127.0.0.1", port, &error)) << error;
    return c;
  }

  std::filesystem::path dir_;
  std::unique_ptr<ServiceServer> server_;
  std::thread serve_thread_;
};

// ---- protocol basics ----------------------------------------------------

TEST_F(ServiceTest, PingPong) {
  const auto port = start_server();
  LineClient c = connect(port);
  ASSERT_TRUE(c.send_line(ping_frame()));
  const auto line = c.recv_line();
  ASSERT_TRUE(line);
  EXPECT_EQ(frame_type(*line), "pong");
}

TEST_F(ServiceTest, StatsFrameReportsServiceAndCacheCounters) {
  const auto port = start_server();
  LineClient c = connect(port);
  ASSERT_TRUE(c.send_line(stats_frame()));
  const auto line = c.recv_line();
  ASSERT_TRUE(line);
  EXPECT_EQ(frame_type(*line), "stats");
  const api::JsonValue doc = api::json_parse(*line);
  ASSERT_NE(doc.find("cache"), nullptr);
  EXPECT_TRUE(doc.find("cache")->is_object());
  EXPECT_EQ(doc.find("engine")->as_string(), std::string(api::engine_revision()));
}

TEST_F(ServiceTest, ShutdownFrameStopsTheDaemon) {
  const auto port = start_server();
  {
    LineClient c = connect(port);
    ASSERT_TRUE(c.send_line(shutdown_frame()));
    const auto line = c.recv_line();
    ASSERT_TRUE(line);
    EXPECT_EQ(frame_type(*line), "bye");
  }
  if (serve_thread_.joinable()) serve_thread_.join();  // returns on its own
  stop_server();                                       // releases the port
  LineClient again;
  EXPECT_FALSE(again.connect("127.0.0.1", port));
}

// ---- submit + result cache ----------------------------------------------

TEST_F(ServiceTest, SubmitStreamsTheCampaignThenItsCacheStats) {
  const auto port = start_server();
  LineClient c = connect(port);
  const SubmitResult r = submit_and_drain(c, small_spec());

  ASSERT_GE(r.lines.size(), 3u);
  EXPECT_EQ(frame_type(r.lines.front()), "campaign_begin");
  EXPECT_EQ(frame_type(r.lines[r.lines.size() - 2]), "campaign_end");
  EXPECT_EQ(frame_type(r.last), "campaign_stats");
  // 8 words x 4 bits x (2 SAF polarities | 2 TF directions) = 64 per cell.
  EXPECT_EQ(r.unit_lines().size(), 128u);
  // Cold cache: every cell simulated live.
  EXPECT_EQ(u64_field(r.last, "cells"), 2u);
  EXPECT_EQ(u64_field(r.last, "simulated"), 2u);
  EXPECT_EQ(u64_field(r.last, "cached"), 0u);
}

TEST_F(ServiceTest, ResubmitReplaysByteIdenticallyAndSimulatesNothing) {
  const auto port = start_server();
  LineClient c = connect(port);
  const SubmitResult first = submit_and_drain(c, small_spec());
  const SubmitResult second = submit_and_drain(c, small_spec());

  // THE acceptance criterion: the resubmitted campaign re-simulated zero
  // cells — the counter proves it — and the replayed record stream is
  // byte-identical (campaign_end differs only in its wall-time field, so
  // the comparison covers begin + every unit line).
  EXPECT_EQ(u64_field(second.last, "simulated"), 0u);
  EXPECT_EQ(u64_field(second.last, "cached"), 2u);
  EXPECT_EQ(u64_field(second.last, "faults_replayed"), 128u);
  EXPECT_EQ(first.unit_lines(), second.unit_lines());
  EXPECT_EQ(first.lines.front(), second.lines.front());
}

TEST_F(ServiceTest, DeltaSpecSimulatesOnlyTheNewCells) {
  const auto port = start_server();
  LineClient c = connect(port);
  submit_and_drain(c, small_spec());

  api::CampaignSpec delta = small_spec();
  delta.classes.push_back({api::ClassKind::Ret, CfScope::Both});
  const SubmitResult r = submit_and_drain(c, delta);
  EXPECT_EQ(u64_field(r.last, "cells"), 3u);
  EXPECT_EQ(u64_field(r.last, "cached"), 2u);
  EXPECT_EQ(u64_field(r.last, "simulated"), 1u);
}

TEST_F(ServiceTest, CacheIsSharedAcrossExecutionModes) {
  // scalar/packed and every thread count are
  // verdict-identical by construction, so the cell identity excludes the
  // run request and a resubmit under a different mode still replays.
  const auto port = start_server();
  LineClient c = connect(port);
  submit_and_drain(c, small_spec());

  api::CampaignSpec other = small_spec();
  other.backend = CoverageBackend::Scalar;
  other.threads = 1;
  const SubmitResult r = submit_and_drain(c, other);
  EXPECT_EQ(u64_field(r.last, "simulated"), 0u);
  EXPECT_EQ(u64_field(r.last, "cached"), 2u);

  // The replayed records carry the scheduler-free oracle's verdicts.
  std::size_t want_detected = 0;
  for (const api::ClassSel& cls : other.classes) {
    const std::vector<Fault> faults = api::build_fault_list(cls, other.words, other.width);
    for (const bool all : oracle_per_fault(SchemeKind::ProposedExact, march_by_name(other.march),
                                           other.words, other.width, faults, other.seeds))
      want_detected += all;
  }
  std::size_t detected = 0;
  for (const std::string& u : r.unit_lines())
    detected += u.find("\"detected_all\":true") != std::string::npos;
  EXPECT_EQ(detected, want_detected);
}

TEST_F(ServiceTest, DiskEntriesSurviveADaemonRestart) {
  const auto port1 = start_server();
  {
    LineClient c = connect(port1);
    submit_and_drain(c, small_spec());
  }
  stop_server();

  const auto port2 = start_server();  // same cache dir, cold memory tier
  LineClient c = connect(port2);
  const SubmitResult r = submit_and_drain(c, small_spec());
  EXPECT_EQ(u64_field(r.last, "simulated"), 0u);
  EXPECT_EQ(u64_field(r.last, "cached"), 2u);
  EXPECT_GT(server_->cache_counters().disk_hits, 0u);
}

TEST_F(ServiceTest, CorruptDiskEntryDegradesToAMiss) {
  const auto port1 = start_server();
  {
    LineClient c = connect(port1);
    submit_and_drain(c, small_spec());
  }
  stop_server();
  // Truncate every stored cell to garbage.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::FILE* f = std::fopen(entry.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"identity\":", f);
    std::fclose(f);
  }

  const auto port2 = start_server();
  LineClient c = connect(port2);
  const SubmitResult r = submit_and_drain(c, small_spec());
  EXPECT_EQ(frame_type(r.last), "campaign_stats");
  EXPECT_EQ(u64_field(r.last, "simulated"), 2u);  // re-simulated, no crash
  EXPECT_EQ(u64_field(r.last, "cached"), 0u);
}

// ---- hostile input -------------------------------------------------------

TEST_F(ServiceTest, MalformedJsonGetsFrameErrorAndTheConnectionClosed) {
  const auto port = start_server();
  LineClient c = connect(port);
  ASSERT_TRUE(c.send_line("this is not json"));
  const auto line = c.recv_line();
  ASSERT_TRUE(line);
  EXPECT_EQ(frame_type(*line), "error");
  EXPECT_NE(line->find("\"scope\":\"frame\""), std::string::npos);
  EXPECT_FALSE(c.recv_line());  // server hung up
}

TEST_F(ServiceTest, NestingBombIsRejectedNotRecursedInto) {
  const auto port = start_server();
  LineClient c = connect(port);
  ASSERT_TRUE(c.send_line(std::string(2000, '[')));
  const auto line = c.recv_line();
  ASSERT_TRUE(line);
  EXPECT_EQ(frame_type(*line), "error");
  EXPECT_NE(line->find("\"scope\":\"frame\""), std::string::npos);
  EXPECT_FALSE(c.recv_line());
}

TEST_F(ServiceTest, OversizedFrameIsRefusedWithoutBufferingIt) {
  const auto port = start_server();
  LineClient c = connect(port);
  std::string huge = "{\"type\":\"ping\",\"pad\":\"";
  huge += std::string(kMaxFrameBytes + 16, 'x');
  huge += "\"}";
  ASSERT_TRUE(c.send_line(huge));
  const auto line = c.recv_line();
  ASSERT_TRUE(line);
  EXPECT_EQ(frame_type(*line), "error");
  EXPECT_FALSE(c.recv_line());
}

TEST_F(ServiceTest, UnknownFrameTypeClosesTheConnection) {
  const auto port = start_server();
  LineClient c = connect(port);
  ASSERT_TRUE(c.send_line("{\"type\":\"exec\"}"));
  const auto line = c.recv_line();
  ASSERT_TRUE(line);
  EXPECT_EQ(frame_type(*line), "error");
  EXPECT_FALSE(c.recv_line());
}

TEST_F(ServiceTest, InvalidSpecKeepsTheConnectionOpenForAResubmit) {
  const auto port = start_server();
  LineClient c = connect(port);

  api::CampaignSpec bad = small_spec();
  bad.words = 0;  // semantically invalid, structurally fine
  ASSERT_TRUE(c.send_line(submit_frame(bad)));
  const auto line = c.recv_line();
  ASSERT_TRUE(line);
  EXPECT_EQ(frame_type(*line), "error");
  EXPECT_NE(line->find("\"scope\":\"spec\""), std::string::npos);
  EXPECT_NE(line->find("memory.words"), std::string::npos);

  // Connection still usable: the corrected spec runs.
  const SubmitResult r = submit_and_drain(c, small_spec());
  EXPECT_EQ(frame_type(r.last), "campaign_stats");
}

TEST_F(ServiceTest, StructurallyBrokenSpecReportsItsPathsAndKeepsTheConnection) {
  const auto port = start_server();
  LineClient c = connect(port);
  ASSERT_TRUE(c.send_line(R"({"type":"submit","spec":{"march":"March C-","schemes":["bogus"]}})"));
  const auto line = c.recv_line();
  ASSERT_TRUE(line);
  EXPECT_EQ(frame_type(*line), "error");
  EXPECT_NE(line->find("\"scope\":\"spec\""), std::string::npos);
  EXPECT_NE(line->find("schemes[0]"), std::string::npos);

  ASSERT_TRUE(c.send_line(ping_frame()));
  const auto pong = c.recv_line();
  ASSERT_TRUE(pong);
  EXPECT_EQ(frame_type(*pong), "pong");
}

// ---- concurrency and cancellation ----------------------------------------

TEST_F(ServiceTest, ConcurrentClientsEachGetTheirOwnCompleteStream) {
  const auto port = start_server();
  std::atomic<int> complete{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      api::CampaignSpec spec = small_spec();
      spec.seeds = {static_cast<std::uint64_t>(100 + i)};  // distinct cells
      LineClient c;
      if (!c.connect("127.0.0.1", port)) return;
      const SubmitResult r = submit_and_drain(c, spec);
      if (frame_type(r.last) == "campaign_stats" && r.unit_lines().size() == 128 &&
          frame_type(r.lines.front()) == "campaign_begin")
        complete.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(complete.load(), 4);
  EXPECT_EQ(server_->counters().campaigns, 4u);
}

TEST_F(ServiceTest, ClientDisconnectCancelsItsCampaign) {
  const auto port = start_server();
  {
    LineClient c = connect(port);
    ASSERT_TRUE(c.send_line(submit_frame(slow_spec())));
    const auto first = c.recv_line();  // campaign is live once begin arrives
    ASSERT_TRUE(first);
    EXPECT_EQ(frame_type(*first), "campaign_begin");
  }  // client vanishes mid-campaign

  // The cancel is cooperative (polled between units) — wait for it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const ServiceServer::Counters c = server_->counters();
    if (c.campaigns_cancelled + c.campaigns > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServiceServer::Counters c = server_->counters();
  EXPECT_EQ(c.campaigns_cancelled, 1u) << "campaign ran to completion instead of cancelling";
  EXPECT_EQ(c.campaigns, 0u);
}

// A submit cut by its run.deadline_ms: the stream over the socket is a
// prefix of the full stream, and every record the cut campaign delivered
// reached the client ahead of its campaign_end (whose unit count matches).
TEST_F(ServiceTest, DeadlineCutSubmitStreamsAPrefixOfTheFullStream) {
  api::CampaignSpec spec = small_spec();
  spec.name = "service-test-deadline";
  spec.words = 256;
  spec.width = 8;
  spec.schemes = {SchemeKind::ProposedSymmetricXor};
  spec.classes = {{api::ClassKind::Tf, CfScope::Both},
                  {api::ClassKind::Saf, CfScope::Both},
                  {api::ClassKind::CFid, CfScope::InterWord, 40000}};
  spec.seeds = {0, 1, 2, 3};
  spec.threads = 1;  // one live-list order, whatever the deadline cuts
  const auto port = start_server();
  LineClient c = connect(port);

  spec.deadline_ms = 20;
  const SubmitResult cut = submit_and_drain(c, spec);
  spec.deadline_ms = 0;
  const SubmitResult full = submit_and_drain(c, spec);

  ASSERT_EQ(frame_type(cut.last), "campaign_stats");
  ASSERT_GE(cut.lines.size(), 3u);
  const std::string& end = cut.lines[cut.lines.size() - 2];
  ASSERT_EQ(frame_type(end), "campaign_end");
  EXPECT_NE(end.find("\"timed_out\":true"), std::string::npos) << end;
  const std::vector<std::string> cut_units = cut.unit_lines();
  const std::vector<std::string> full_units = full.unit_lines();
  EXPECT_EQ(u64_field(end, "units"), cut_units.size());
  ASSERT_LT(cut_units.size(), full_units.size());
  for (std::size_t i = 0; i < cut_units.size(); ++i) EXPECT_EQ(cut_units[i], full_units[i]);
  EXPECT_EQ(frame_type(full.last), "campaign_stats");
}

TEST_F(ServiceTest, MaxClientsRefusesTheExcessConnectionWithAnErrorFrame) {
  ServerConfig config;
  config.max_clients = 1;
  const auto port = start_server(std::move(config));

  LineClient first = connect(port);
  ASSERT_TRUE(first.send_line(ping_frame()));
  ASSERT_TRUE(first.recv_line());  // registered with the server

  LineClient second = connect(port);
  const auto line = second.recv_line();
  ASSERT_TRUE(line);
  EXPECT_EQ(frame_type(*line), "error");
  EXPECT_FALSE(second.recv_line());
  EXPECT_EQ(server_->counters().clients_refused, 1u);
}

// ---- protocol unit coverage (no socket) -----------------------------------

TEST(ServiceProtocol, ParseFrameRoundTripsTheBuilders) {
  EXPECT_EQ(parse_frame(ping_frame()).frame->kind, Frame::Kind::Ping);
  EXPECT_EQ(parse_frame(stats_frame()).frame->kind, Frame::Kind::Stats);
  EXPECT_EQ(parse_frame(shutdown_frame()).frame->kind, Frame::Kind::Shutdown);
  const ParsedFrame p = parse_frame(submit_frame(small_spec()));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.frame->kind, Frame::Kind::Submit);
  EXPECT_EQ(p.frame->spec, small_spec());
}

TEST(ServiceProtocol, ParseFrameRejectsWithoutThrowing) {
  EXPECT_FALSE(parse_frame("").ok());
  EXPECT_FALSE(parse_frame("[]").ok());
  EXPECT_FALSE(parse_frame("{\"type\":42}").ok());
  EXPECT_FALSE(parse_frame("{\"type\":\"submit\"}").ok());
  EXPECT_FALSE(parse_frame(std::string(kMaxFrameBytes + 1, ' ')).ok());
  const ParsedFrame deep = parse_frame(std::string(3000, '['));
  EXPECT_FALSE(deep.ok());
  EXPECT_TRUE(deep.spec_errors.empty());  // frame-scope, not spec-scope
}

TEST(ServiceCache, EvictionKeepsTheCacheBoundedAndCountersHonest) {
  ResultCache cache({"", 2});
  const api::CellRecords records{{{0, true, true}}};
  cache.store("k1", "id1", records);
  cache.store("k2", "id2", records);
  cache.store("k3", "id3", records);  // evicts id1
  EXPECT_FALSE(cache.lookup("k1", "id1").has_value());
  EXPECT_TRUE(cache.lookup("k2", "id2").has_value());
  const ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.stores, 3u);
}

TEST(ServiceCache, ConcurrentWritersOfTheSameCellLeaveOneValidEntry) {
  // Two clients finishing the same cell race store(): the crash-atomic
  // write path (unique tmp + rename, util/fs.h) must leave exactly one
  // valid file and no torn or abandoned tmp droppings — whichever writer
  // renames last wins, and both wrote identical records anyway.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("twm_cache_race_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const api::CellRecords records{{{0, true, true}, {1, false, true}}};
  // Identities embed verbatim into the entry JSON — must be valid JSON.
  const std::string identity = R"("race-id")";
  {
    ResultCache cache({dir.string(), 8});
    std::vector<std::thread> writers;
    for (int t = 0; t < 2; ++t)
      writers.emplace_back([&] {
        for (int i = 0; i < 50; ++i) cache.store("race-key", identity, records);
      });
    for (auto& w : writers) w.join();
    EXPECT_EQ(cache.counters().disk_errors, 0u);
  }
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  // A cold cache parses the survivor back intact.
  ResultCache cold({dir.string(), 8});
  const auto loaded = cold.lookup("race-key", identity);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->units, records.units);
  std::filesystem::remove_all(dir);
}

// A stored fault index past 32 bits is corrupt: it must read as a miss,
// not narrow onto a valid index (4294967296 would become fault 0).
TEST(ServiceCache, DiskIndexPast32BitsIsAMiss) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("twm_cache_wide_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Identities embed verbatim into the entry JSON: the key, quoted.
  const auto write_entry = [&](const std::string& key, const std::string& index) {
    std::ofstream((dir / (key + ".json")).string())
        << R"({"identity":")" << key << R"(","units":[[)" << index << ",1,1]]}";
  };
  write_entry("fits", "4294967295");
  write_entry("wide", "4294967296");
  ResultCache cache({dir.string(), 8});
  const auto fits = cache.lookup("fits", R"("fits")");
  ASSERT_TRUE(fits.has_value());
  EXPECT_EQ(fits->units, (std::vector<api::CachedUnit>{{4294967295u, true, true}}));
  EXPECT_FALSE(cache.lookup("wide", R"("wide")").has_value());
  EXPECT_EQ(cache.counters().disk_errors, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ServiceCache, LookupVerifiesIdentityNotJustTheKey) {
  ResultCache cache({"", 8});
  cache.store("same-key", "identity-A", {{{0, true, true}}});
  // A colliding key with a different identity must read as a miss.
  EXPECT_FALSE(cache.lookup("same-key", "identity-B").has_value());
  EXPECT_TRUE(cache.lookup("same-key", "identity-A").has_value());
}

}  // namespace
}  // namespace twm::service
