#include "service/cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "api/json.h"
#include "util/failpoint.h"
#include "util/fs.h"

namespace twm::service {

namespace {

// {"identity":<identity object>,"units":[[fault,all,any],...]} — compact,
// one file per entry.  `identity` is embedded verbatim (it is already
// canonical compact JSON), so verification is a string compare after a
// deterministic re-serialization.
std::string entry_json(const std::string& identity, const api::CellRecords& records) {
  std::string out = "{\"identity\":" + identity + ",\"units\":[";
  bool first = true;
  for (const api::CachedUnit& u : records.units) {
    if (!first) out += ",";
    first = false;
    out += "[";
    out += std::to_string(u.fault_index);
    out += u.detected_all ? ",1" : ",0";
    out += u.detected_any ? ",1]" : ",0]";
  }
  out += "]}";
  return out;
}

}  // namespace

ResultCache::ResultCache(Config config) : config_(std::move(config)) {
  if (config_.memory_entries == 0) config_.memory_entries = 1;
  if (!config_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
    if (ec)
      throw std::runtime_error("cannot create cache directory '" + config_.dir +
                               "': " + ec.message());
  }
}

std::string ResultCache::path_for(const std::string& key) const {
  // Keys are 32 lowercase hex chars (api::content_key) — safe filenames by
  // construction, no escaping needed.
  return config_.dir + "/" + key + ".json";
}

std::optional<api::CellRecords> ResultCache::lookup(const std::string& key,
                                                    const std::string& identity) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_identity_.find(identity);
  if (it != by_identity_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    ++counters_.hits;
    return it->second->records;
  }
  if (disk_usable_locked()) {
    if (auto from_disk = load_disk(key, identity)) {
      insert_locked(key, identity, *from_disk);
      ++counters_.hits;
      ++counters_.disk_hits;
      return from_disk;
    }
  }
  ++counters_.misses;
  return std::nullopt;
}

void ResultCache::store(const std::string& key, const std::string& identity,
                        const api::CellRecords& records) {
  const std::lock_guard<std::mutex> lock(mu_);
  insert_locked(key, identity, records);
  ++counters_.stores;
  if (disk_usable_locked()) store_disk(key, identity, records);
}

void ResultCache::insert_locked(const std::string& key, const std::string& identity,
                                const api::CellRecords& records) {
  const auto it = by_identity_.find(identity);
  if (it != by_identity_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->records = records;
    return;
  }
  lru_.push_front({key, identity, records});
  by_identity_[identity] = lru_.begin();
  while (lru_.size() > config_.memory_entries) {
    by_identity_.erase(lru_.back().identity);
    lru_.pop_back();
    ++counters_.evictions;
  }
  counters_.entries = lru_.size();
}

std::optional<api::CellRecords> ResultCache::load_disk(const std::string& key,
                                                       const std::string& identity) {
  if (TWM_FAILPOINT("cache.disk_read")) {
    note_disk_result_locked(false);
    return std::nullopt;
  }
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in) return std::nullopt;  // absent entry: a miss, not a disk failure
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) {  // the file exists but the medium failed mid-read
    note_disk_result_locked(false);
    return std::nullopt;
  }
  note_disk_result_locked(true);
  try {
    const api::JsonValue doc = api::json_parse(text.str());
    if (!doc.is_object()) return std::nullopt;
    const api::JsonValue* stored_identity = doc.find("identity");
    // The whole point of storing the identity: a colliding key or a
    // foreign/corrupt file must read back as a miss, never as results.
    if (!stored_identity ||
        api::json_write(*stored_identity, /*pretty=*/false) != identity)
      return std::nullopt;
    const api::JsonValue* units = doc.find("units");
    if (!units || !units->is_array()) return std::nullopt;
    api::CellRecords records;
    records.units.reserve(units->items().size());
    for (const api::JsonValue& item : units->items()) {
      if (!item.is_array() || item.items().size() != 3) return std::nullopt;
      const auto fault = item.items()[0].as_u64();
      const auto all = item.items()[1].as_u64();
      const auto any = item.items()[2].as_u64();
      if (!fault || !all || !any || *all > 1 || *any > 1) return std::nullopt;
      records.units.push_back({*fault, *all == 1, *any == 1});
    }
    return records;
  } catch (const api::JsonParseError&) {
    return std::nullopt;
  }
}

void ResultCache::store_disk(const std::string& key, const std::string& identity,
                             const api::CellRecords& records) {
  // Crash-atomic (unique tmp + fsync + rename + dir fsync): a reader, a
  // crashed writer, or a concurrent writer of the same key never leaves a
  // torn entry under the final name.  Disk failures are non-fatal — the
  // cache is an accelerator, the campaign result already streamed.
  if (TWM_FAILPOINT("cache.disk_write")) {
    note_disk_result_locked(false);
    return;
  }
  note_disk_result_locked(
      util::atomic_write_file(path_for(key), entry_json(identity, records)));
}

void ResultCache::note_disk_result_locked(bool ok) {
  if (ok) {
    consecutive_disk_failures_ = 0;
    return;
  }
  ++counters_.disk_errors;
  if (++consecutive_disk_failures_ >= kMaxConsecutiveDiskFailures &&
      !counters_.disk_degraded) {
    counters_.disk_degraded = true;
    std::fprintf(stderr,
                 "twm: warning: result cache disk tier disabled after %d consecutive "
                 "failures; continuing memory-only\n",
                 kMaxConsecutiveDiskFailures);
  }
}

bool ResultCache::disk_usable_locked() const {
  return !config_.dir.empty() && !counters_.disk_degraded;
}

ResultCache::Counters ResultCache::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace twm::service
