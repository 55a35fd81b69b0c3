// Content-addressed result cache: the api::CellCache the campaign daemon
// plugs into api::run_campaign.
//
// An entry is a cell or one region of a cell: the unit records of one
// completed (scheme, fault-class, seed-set) cell, or of one settled region
// of it under run.regions > 1, in emission order — addressed by
// api::content_key of its canonical identity JSON (api::cell_identity_json,
// or api::region_identity_json for a region; both fold in the engine
// revision).  Region entries are what makes an interrupted campaign resume
// at region grain (api/runner.h).  Two tiers:
//
//   memory   an LRU of the most recently touched entries (always on),
//   disk     one JSON file per entry under `dir` (optional: empty dir =
//            memory-only).  Files are written crash-atomically
//            (unique tmp + fsync + rename + directory fsync,
//            util/fs.h) and survive daemon restarts; a memory miss falls
//            through to disk and promotes the entry back into the LRU.
//
// The disk tier is an accelerator, never a dependency: every disk failure
// is counted (Counters::disk_errors) and swallowed, and after
// kMaxConsecutiveDiskFailures in a row the tier turns itself off
// (disk_degraded) and the cache runs memory-only — a full or dying disk
// cannot abort or stall a campaign.  Chaos coverage injects these paths
// via the cache.disk_write / cache.disk_read failpoints.
//
// Correctness over trust: every entry stores the full identity string and
// lookup() verifies it, so a hash collision, a truncated file or a foreign
// file dropped into the cache directory degrades to a miss.  The disk file
// is parsed with the same hardened JSON parser as every other input.
//
// Wipe the cache directory whenever api::engine_revision() is NOT bumped
// across a change that alters verdicts (it should be; the revision is part
// of the identity precisely so stale results never match) — or simply when
// reclaiming space.  All methods are thread-safe.
#ifndef TWM_SERVICE_CACHE_H
#define TWM_SERVICE_CACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "api/runner.h"

namespace twm::service {

class ResultCache : public api::CellCache {
 public:
  struct Config {
    std::string dir;                  // empty = memory-only
    std::size_t memory_entries = 256; // LRU capacity (>= 1)
  };

  // Monotonic effectiveness counters (returned by value: the cache is
  // shared across client threads).
  struct Counters {
    std::uint64_t hits = 0;        // lookup served (memory or disk)
    std::uint64_t disk_hits = 0;   // ... of which required the disk tier
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;   // LRU entries displaced from memory
    std::uint64_t entries = 0;     // current memory-tier size
    std::uint64_t disk_errors = 0; // failed disk reads/writes (non-fatal)
    bool disk_degraded = false;    // disk tier disabled after repeated errors
  };

  // Creates `dir` (and parents) when persistence is requested.  Throws
  // std::runtime_error when the directory cannot be created.
  explicit ResultCache(Config config);

  std::optional<api::CellRecords> lookup(const std::string& key,
                                         const std::string& identity) override;
  void store(const std::string& key, const std::string& identity,
             const api::CellRecords& records) override;

  Counters counters() const;

 private:
  struct Entry {
    std::string key;
    std::string identity;
    api::CellRecords records;
  };

  void insert_locked(const std::string& key, const std::string& identity,
                     const api::CellRecords& records);
  std::optional<api::CellRecords> load_disk(const std::string& key,
                                            const std::string& identity);
  void store_disk(const std::string& key, const std::string& identity,
                  const api::CellRecords& records);
  // Degradation ladder: a disk failure bumps disk_errors; after
  // kMaxConsecutiveDiskFailures in a row the disk tier is switched off and
  // the cache runs memory-only for the rest of the process — campaigns are
  // never aborted (or even slowed by retrying a dead disk) on behalf of an
  // accelerator.  A success before the threshold resets the run.
  void note_disk_result_locked(bool ok);
  bool disk_usable_locked() const;
  std::string path_for(const std::string& key) const;

  static constexpr int kMaxConsecutiveDiskFailures = 3;

  Config config_;
  int consecutive_disk_failures_ = 0;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> by_identity_;
  Counters counters_;
};

}  // namespace twm::service

#endif  // TWM_SERVICE_CACHE_H
