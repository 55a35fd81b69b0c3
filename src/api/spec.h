// twm::api — the stable public surface every front-end speaks.
//
// A coverage campaign is a *value*: CampaignSpec captures everything that
// defines one — memory geometry, the bit-oriented march, the scheme set,
// the fault-class selection, the content seeds, and the execution request
// (backend / threads / SIMD width).  Specs are
//
//   * validated field by field (validate() returns structured SpecErrors
//     naming the offending path instead of one scattered runtime_error),
//   * serialized to JSON and parsed back round-trip exact, singly or as a
//     batch ([spec, spec, ...]) so campaigns can be stored, diffed, queued
//     and replayed,
//   * executed by api::run_campaign (api/runner.h), which streams per-unit
//     results into a ResultSink (api/sink.h).
//
// The canonical spelling of every enum the spec serializes lives here too:
// parse_backend / parse_scheme / parse_class / simd::parse_request are THE
// parsers — the CLI, the benches and the JSON grammar all call them, and
// parse(to_string(x)) == x holds for every value (tests/api_spec_test.cpp).
#ifndef TWM_API_SPEC_H
#define TWM_API_SPEC_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "core/scheme_session.h"
#include "core/simd.h"
#include "march/test.h"

namespace twm::api {

// One validation finding: the dotted path of the offending field (JSON
// grammar coordinates, e.g. "memory.words", "schemes[2]", "run.threads")
// and a human-readable message.
struct SpecError {
  std::string path;
  std::string message;

  friend bool operator==(const SpecError&, const SpecError&) = default;
};

std::string to_string(const SpecError& e);  // "path: message"

// Carrier for one-or-many SpecErrors across a throwing boundary; what()
// joins them line by line.
class SpecValidationError : public std::runtime_error {
 public:
  explicit SpecValidationError(std::vector<SpecError> errors);
  const std::vector<SpecError>& errors() const { return errors_; }

 private:
  std::vector<SpecError> errors_;
};

// Fault-class selector: a generator class plus (for coupling faults) the
// aggressor/victim placement scope.  Canonical spellings: "saf", "tf",
// "ret", "af", "cfst", "cfid", "cfin" (scope Both), "cfid:inter",
// "cfid:intra" (and likewise for cfst/cfin).
enum class ClassKind { Saf, Tf, Ret, CFst, CFid, CFin, Af };

inline constexpr ClassKind kAllClassKinds[] = {
    ClassKind::Saf,  ClassKind::Tf,   ClassKind::Ret, ClassKind::CFst,
    ClassKind::CFid, ClassKind::CFin, ClassKind::Af,
};

struct ClassSel {
  ClassKind kind = ClassKind::Saf;
  CfScope scope = CfScope::Both;  // coupling-fault kinds only
  // Deterministic sample size, spelled "saf@2048" / "cfid:inter@1024";
  // 0 = exhaustive (the canonical spelling omits "@0", so every pre-sampling
  // spec and cache identity is unchanged).  Exhaustive fault spaces are
  // quadratic in the cell count for CFs/AFs and linear for the rest — at
  // huge geometries a bounded, reproducible sample is the only runnable
  // denominator.  Sampling is part of the cell identity: the same selector
  // always denotes the same fault list.
  std::uint32_t sample = 0;

  bool is_coupling() const {
    return kind == ClassKind::CFst || kind == ClassKind::CFid || kind == ClassKind::CFin;
  }

  friend bool operator==(const ClassSel&, const ClassSel&) = default;
};

// Everything that defines a campaign.  Defaults mirror the CLI's: packed
// backend, one thread, auto SIMD width.
struct CampaignSpec {
  std::string name;  // optional label, carried through sinks

  // Memory geometry (JSON: "memory": {"words": N, "width": B}).
  std::size_t words = 0;
  unsigned width = 0;

  // The march under test — exactly one of:
  //   march      library name ("March C-", ...; JSON: "march"), or
  //   march_ops  inline definition, one march element per string in the
  //              march DSL ("any(w0)", "up(r0,w1)"; JSON: "march_ops").
  //              The combined test must satisfy is_consistent_bit_march —
  //              the same universe the catalog and random_march draw from.
  std::string march;
  std::vector<std::string> march_ops;
  std::vector<SchemeKind> schemes;  // at least one; order preserved
  std::vector<ClassSel> classes;    // at least one; order preserved
  std::vector<std::uint64_t> seeds;  // at least one; 0 = all-zero contents

  // Execution request (JSON: "run": {...}).
  CoverageBackend backend = CoverageBackend::Packed;
  unsigned threads = 1;
  simd::Request simd = simd::Request::Auto;
  // Structural fault collapsing; off isolates the repacking/settle-exit
  // win for differential attribution.  (A "schedule":"repack" key, from
  // specs written when a second scheduler existed, is accepted and
  // dropped; nothing else is.)
  bool collapse = true;
  // Address-region sharding (power of two, <= words; 1 = off).  Execution-
  // transparent like collapse: verdicts, records and whole-cell cache
  // identities are unchanged — only the working-set bound and the grain
  // of region cache entries (resume) move.  Serialized only when != 1.
  unsigned regions = 1;
  // Wall-clock budget in milliseconds (0 = none).  Enforced cooperatively
  // at the between-units cancellation points: a campaign past its deadline
  // stops claiming work, emits the exact prefix of unit records that fit,
  // and ends with campaign_end{cancelled:true,timed_out:true} — the PR 4
  // cancellation contract with a clock as the sink.  Part of the run block
  // (not the cell identity), so a deadline never splits the result cache;
  // serialized only when != 0.
  std::uint64_t deadline_ms = 0;

  CoverageOptions options() const {
    return {backend, threads, simd, collapse, regions};
  }

  friend bool operator==(const CampaignSpec&, const CampaignSpec&) = default;
};

// Field-by-field validation; empty result means the spec is runnable on
// this host (forced SIMD widths are checked against the CPU).
std::vector<SpecError> validate(const CampaignSpec& spec);

// Throws SpecValidationError when validate() is non-empty.
void require_valid(const CampaignSpec& spec);

// ---- canonical enum spellings ------------------------------------------
//
// to_string(CoverageBackend) lives in analysis/campaign.h and
// simd::to_string(simd::Request) in core/simd.h; these are their inverse
// parsers plus the scheme/class vocabularies.  All return nullopt on any
// unknown spelling — no partial matches, no case folding.

std::optional<CoverageBackend> parse_backend(std::string_view s);

// "on" | "off" — the canonical spelling of boolean flags (--collapse) on
// every flag surface; nullopt on anything else.
std::optional<bool> parse_on_off(std::string_view s);

// Short scheme identifiers, the CLI's spellings: "ref", "womarch", "twm",
// "twm-misr", "sym", "tsmarch", "s1", "tomt".  (to_string(SchemeKind) is
// the human display name and is NOT parseable; scheme_id() is.)
std::string scheme_id(SchemeKind k);
std::optional<SchemeKind> parse_scheme(std::string_view s);

std::string to_string(const ClassSel& c);     // canonical spelling
std::string class_label(const ClassSel& c);   // table label ("CFid inter")
std::optional<ClassSel> parse_class(std::string_view s);

// Comma-separated list helpers the flag surfaces share.  parse_schemes
// additionally accepts the spelling "all" (every SchemeKind, paper order).
std::optional<std::vector<SchemeKind>> parse_schemes(std::string_view csv);
std::optional<std::vector<ClassSel>> parse_classes(std::string_view csv);

// Comma-separated seed list ("0,1,2"; empty pieces dropped).  Returns
// nullopt when any piece is not a pure-decimal uint64 ("x", "-1", " 1",
// "2x", "1.5", overflow); `bad_token`, when provided, receives the
// offending piece.  An all-empty input parses to an empty vector — the
// caller decides whether that is an error.
std::optional<std::vector<std::uint64_t>> parse_seeds(std::string_view csv,
                                                      std::string* bad_token = nullptr);

// The march a spec denotes: the library entry named by `march`, or the
// inline `march_ops` elements parsed through the march DSL.  Throws
// SpecValidationError when the march cannot be resolved (unknown name,
// unparseable element) — validate() reports the same problems without
// throwing.
MarchTest resolve_march(const CampaignSpec& spec);

// What to call the spec's march in human- and machine-readable output (and
// in cache identities): the library name, or for inline specs the canonical
// printed body (parse -> print normalizes whitespace, so every spelling of
// the same march shares cache cells; the leading '{' keeps bodies disjoint
// from catalog names).
std::string march_display(const CampaignSpec& spec);

// The faults a class selector denotes in an N x B memory (exhaustive
// generators from analysis/fault_list.h; RET uses hold_units = 1).  A
// selector with sample != 0 denotes a deterministic subset: an even stride
// over the exhaustive enumeration order for SAF/TF/RET/AF (decoded without
// materializing the full list) and a fixed-seed sampled_cfs draw for
// coupling classes — the same selector always denotes the same faults, so
// sampled cells stay content-addressable.
std::vector<Fault> build_fault_list(const ClassSel& c, std::size_t words, unsigned width);

// ---- content addressing ---------------------------------------------------
//
// A campaign's results are cacheable because the spec is a canonically
// serializable value: hash the verdict-relevant fields and the engine
// revision, and equal keys mean equal result streams.  The grain is one
// (scheme, fault-class, seed-set) CELL — a spec that adds one fault class
// re-simulates only the new cells, everything else replays.

// Folded into every cell identity; bump whenever a change can alter ANY
// verdict (fault semantics, scheme sessions, march library, fault-list
// generators).  Pure perf/scheduling work keeps the revision — scalar and
// packed, every SIMD width and collapse on or off are verdict-identical by
// construction, so cached cells are shared across all of them.
std::string_view engine_revision();

// Canonical identity of one scheme x class cell: compact JSON of exactly
// the fields that determine its verdicts (engine revision, march,
// geometry, scheme, class, seeds — in that fixed key order).  `name` and
// the whole `run` request are deliberately excluded.  The march field is
// the library NAME for catalog specs (pre-inline identities stay
// byte-stable) and the canonical printed BODY ("{ any(w0); up(r0,w1) }")
// for inline specs — so formatting variants of the same march share cache
// cells, and a body can never collide with a catalog name.
std::string cell_identity_json(const CampaignSpec& spec, SchemeKind scheme,
                               const ClassSel& cls);

// Identity of one region of a cell under a `regions`-way split: the cell
// identity with "region" and "regions" appended.  run_campaign stores each
// settled region of a sharded cell under it, so an interrupted campaign
// resumes at region grain (api/runner.h).
std::string region_identity_json(std::string_view cell_identity, unsigned region,
                                 unsigned regions);

// Content address of an identity string: 32 lowercase hex chars (two
// chained 64-bit FNV-1a passes).  Collision-safe use requires storing the
// identity alongside the value and verifying on lookup — api::CellCache
// implementations do (src/service/cache.h).
std::string content_key(std::string_view identity);

// content_key(cell_identity_json(...)) — the cache key of one cell.
std::string cell_key(const CampaignSpec& spec, SchemeKind scheme, const ClassSel& cls);

// ---- JSON ---------------------------------------------------------------

// Canonical serialization (member order fixed; round-trip exact:
// spec_from_json(to_json(s)) == s).
std::string to_json(const CampaignSpec& spec, bool pretty = true);
std::string to_json(const std::vector<CampaignSpec>& batch, bool pretty = true);

// Parses one spec object.  Malformed JSON throws JsonParseError; structural
// or spelling problems throw SpecValidationError whose errors() name the
// offending paths.  Parsing does NOT run validate() — a parsed spec may
// still be semantically invalid (e.g. zero words).
CampaignSpec spec_from_json(const std::string& text);

// Same grammar, from an already-parsed document node (the service protocol
// embeds specs inside request frames and parses the frame once).
class JsonValue;
CampaignSpec spec_from_json_value(const JsonValue& v);

// Accepts either a single spec object or a batch array [spec, spec, ...].
std::vector<CampaignSpec> specs_from_json(const std::string& text);

}  // namespace twm::api

#endif  // TWM_API_SPEC_H
