#include "api/sink.h"

#include <charconv>
#include <cstring>
#include <ostream>
#include <string_view>

#include "api/json.h"
#include "analysis/report.h"
#include "util/table.h"

namespace twm::api {

namespace {

// Locale-independent (fixed_str, not "%.6f"): the JSON-lines stream must
// stay parseable under a comma-decimal LC_NUMERIC.
std::string seconds_str(double seconds) { return fixed_str(seconds, 6); }

const char* bool_str(bool b) { return b ? "true" : "false"; }

// A unit record after its cell's fixed head: the fault index, the opening
// of the describe() field, the text itself, and one of four endings
// indexed by 2 * detected_all + detected_any.
struct UnitTail {
  std::string_view open_describe;
  std::string_view endings[4];
};

// describe() text needs no JSON escaping and holds no '"' (memsim/fault.h),
// so both formats embed it as is.
constexpr UnitTail kJsonUnitTail{",\"describe\":\"",
                                 {"\",\"detected_all\":false,\"detected_any\":false}\n",
                                  "\",\"detected_all\":false,\"detected_any\":true}\n",
                                  "\",\"detected_all\":true,\"detected_any\":false}\n",
                                  "\",\"detected_all\":true,\"detected_any\":true}\n"}};
constexpr UnitTail kCsvUnitTail{",\"", {"\",0,0\n", "\",0,1\n", "\",1,0\n", "\",1,1\n"}};

// Room a tail needs: a 20-digit index, the longest opening plus ending,
// and the longest describe() text.
constexpr std::size_t kMaxTailFraming = 64;
constexpr std::size_t kMaxUnitTail = 20 + kMaxTailFraming + Fault::kDescribeMax;
static_assert(kJsonUnitTail.open_describe.size() + kJsonUnitTail.endings[0].size() <=
              kMaxTailFraming);

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

// Formats r's tail at p (which has kMaxUnitTail bytes of room); returns
// the end.
char* write_unit_tail(char* p, const UnitTail& tail, const UnitRecord& r) {
  p = std::to_chars(p, p + 20, static_cast<std::uint64_t>(r.fault_index)).ptr;
  p = put(p, tail.open_describe);
  if (r.fault) p = r.fault->write_describe(p);
  return put(p, tail.endings[2 * r.detected_all + r.detected_any]);
}

}  // namespace

// ---- JsonLinesSink ------------------------------------------------------

void JsonLinesSink::on_campaign_begin(const CampaignMeta& meta) {
  const CampaignSpec& s = *meta.spec;
  out_ << "{\"type\":\"campaign_begin\",\"name\":" << json_quote(s.name)
       << ",\"march\":" << json_quote(march_display(s)) << ",\"words\":" << s.words
       << ",\"width\":" << s.width << ",\"schemes\":[";
  bool first = true;
  for (SchemeKind k : s.schemes) {
    if (!first) out_ << ",";
    first = false;
    out_ << json_quote(scheme_id(k));
  }
  out_ << "],\"classes\":[";
  first = true;
  for (const ClassSel& c : s.classes) {
    if (!first) out_ << ",";
    first = false;
    out_ << json_quote(to_string(c));
  }
  out_ << "],\"seeds\":[";
  first = true;
  for (std::uint64_t seed : s.seeds) {
    if (!first) out_ << ",";
    first = false;
    out_ << seed;
  }
  out_ << "],\"backend\":" << json_quote(to_string(s.backend)) << ",\"threads\":" << s.threads
       << ",\"simd\":" << json_quote(simd::to_string(s.simd))
       << ",\"resolved_simd\":" << simd::lanes(simd::resolve(s.simd))
       << ",\"total_faults\":" << meta.total_faults << "}\n";
  out_.flush();
}

void JsonLinesSink::select_cell(SchemeKind scheme, const ClassSel& cls) {
  if (cell_cached_ && scheme == cell_scheme_ && cls == cell_cls_) return;
  cell_cached_ = true;
  cell_scheme_ = scheme;
  cell_cls_ = cls;
  unit_record_ = "{\"type\":\"unit\",\"scheme\":" + json_quote(scheme_id(scheme)) +
                 ",\"class\":" + json_quote(to_string(cls)) + ",\"fault\":";
  unit_head_ = unit_record_.size();
  unit_record_.resize(unit_head_ + kMaxUnitTail);
}

void JsonLinesSink::on_unit(const UnitRecord& r) {
  select_cell(r.scheme, r.cls);
  char* const line = unit_record_.data();
  const char* end = write_unit_tail(line + unit_head_, kJsonUnitTail, r);
  pending_.append(line, static_cast<std::size_t>(end - line));
  if (pending_.size() >= kMaxPendingBytes) JsonLinesSink::flush();
}

void JsonLinesSink::write_pending() {
  if (pending_.empty()) return;
  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  pending_.clear();
}

void JsonLinesSink::flush() {
  if (pending_.empty()) return;
  write_pending();
  out_.flush();
}

void JsonLinesSink::on_campaign_end(const CampaignSummary& s) {
  write_pending();
  out_ << "{\"type\":\"campaign_end\",\"cancelled\":" << bool_str(s.cancelled)
       << ",\"timed_out\":" << bool_str(s.timed_out)
       << ",\"units\":" << s.units_emitted << ",\"total_faults\":" << s.total_faults
       << ",\"seconds\":" << seconds_str(s.seconds) << ",\"cells\":[";
  bool first = true;
  for (const CellResult& cell : s.cells) {
    if (!first) out_ << ",";
    first = false;
    out_ << "{\"scheme\":" << json_quote(scheme_id(cell.scheme))
         << ",\"class\":" << json_quote(to_string(cell.cls))
         << ",\"total\":" << cell.outcome.total
         << ",\"detected_all\":" << cell.outcome.detected_all
         << ",\"detected_any\":" << cell.outcome.detected_any << "}";
  }
  out_ << "]}\n";
  out_.flush();
}

void JsonLinesSink::on_error(const Error& e) {
  write_pending();
  out_ << "{\"type\":\"error\",\"scope\":" << json_quote(std::string(to_string(e.category)))
       << ",\"retryable\":" << bool_str(e.retryable)
       << ",\"message\":" << json_quote(e.detail) << "}\n";
  out_.flush();
}

// ---- CsvSink ------------------------------------------------------------

namespace {

// RET describes as "RET(1,1u) @..." — commas force quoting.
std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void CsvSink::on_campaign_begin(const CampaignMeta& meta) {
  campaign_ = csv_quote(meta.spec->name);
  cell_cached_ = false;
  if (header_written_) return;
  out_ << "campaign,scheme,class,fault,describe,detected_all,detected_any\n";
  header_written_ = true;
}

void CsvSink::on_unit(const UnitRecord& r) {
  if (!cell_cached_ || r.scheme != cell_scheme_ || r.cls != cell_cls_) {
    cell_cached_ = true;
    cell_scheme_ = r.scheme;
    cell_cls_ = r.cls;
    row_ = campaign_ + ',' + scheme_id(r.scheme) + ',' + to_string(r.cls) + ',';
    row_head_ = row_.size();
    row_.resize(row_head_ + kMaxUnitTail);
  }
  char* const line = row_.data();
  const char* end = write_unit_tail(line + row_head_, kCsvUnitTail, r);
  out_.write(line, static_cast<std::streamsize>(end - line));
}

// ---- TableSink ----------------------------------------------------------

void TableSink::on_campaign_begin(const CampaignMeta& meta) {
  spec_ = *meta.spec;
  const bool all_schemes =
      spec_.schemes == std::vector<SchemeKind>(std::begin(kAllSchemes), std::end(kAllSchemes));
  out_ << "coverage: " << march_display(spec_) << ", N=" << spec_.words << ", B=" << spec_.width
       << ", ";
  if (all_schemes) {
    out_ << "all schemes";
  } else {
    bool first = true;
    for (SchemeKind k : spec_.schemes) {
      if (!first) out_ << " + ";
      first = false;
      out_ << twm::to_string(k);
    }
  }
  out_ << ", backend=" << twm::to_string(spec_.backend);
  out_ << ", threads=" << spec_.threads << ", " << spec_.seeds.size() << " contents\n";
}

void TableSink::on_campaign_end(const CampaignSummary& summary) {
  // A cell can be missing from the summary (cancelled campaign): render a
  // placeholder instead of silently dropping the scheme's whole row.
  const auto find_cell = [&summary](SchemeKind k, const ClassSel& cls) -> const CellResult* {
    for (const CellResult& cell : summary.cells)
      if (cell.scheme == k && cell.cls == cls) return &cell;
    return nullptr;
  };
  static constexpr const char* kMissing = "—";
  if (spec_.schemes.size() == 1) {
    Table t({"fault class", "faults", "coverage (all contents)", "any content"});
    for (const ClassSel& cls : spec_.classes) {
      const CellResult* cell = find_cell(spec_.schemes[0], cls);
      if (cell)
        t.add_row({class_label(cls), std::to_string(cell->outcome.total),
                   coverage_str(cell->outcome), pct_str(cell->outcome.pct_any())});
      else
        t.add_row({class_label(cls), kMissing, kMissing, kMissing});
    }
    t.print(out_);
  } else {
    // Scheme x fault-class matrix, one row per scheme (spec order).
    std::vector<std::string> header{"scheme"};
    for (const ClassSel& cls : spec_.classes) {
      std::size_t count = 0;
      for (const CellResult& cell : summary.cells)
        if (cell.cls == cls) {
          count = cell.outcome.total;
          break;
        }
      header.push_back(class_label(cls) + " (" + std::to_string(count) + ")");
    }
    Table t(header);
    for (SchemeKind k : spec_.schemes) {
      std::vector<std::string> row{twm::to_string(k)};
      for (const ClassSel& cls : spec_.classes) {
        const CellResult* cell = find_cell(k, cls);
        row.push_back(cell ? coverage_str(cell->outcome) : kMissing);
      }
      t.add_row(row);
    }
    t.print(out_);
  }
  // A cancelled campaign reports the work that actually ran, not the plan.
  const std::size_t faults_run = summary.cancelled ? summary.units_emitted
                                                   : summary.total_faults;
  if (summary.cancelled)
    out_ << "campaign " << (summary.timed_out ? "stopped by run.deadline_ms" : "cancelled by sink")
         << " after " << faults_run << "/" << summary.total_faults << " faults\n";
  out_ << faults_run << " faults in " << fixed_str(summary.seconds, 3) << "s ("
       << static_cast<std::uint64_t>(summary.seconds > 0 ? faults_run / summary.seconds : 0)
       << " faults/s)\n";
}

// ---- CollectingSink -----------------------------------------------------

void CollectingSink::on_campaign_begin(const CampaignMeta&) { ++begins; }

void CollectingSink::on_unit(const UnitRecord& r) {
  units.push_back({r.scheme, r.cls, r.fault_index, r.detected_all, r.detected_any});
  if (cancel_after_units_ && units.size() >= cancel_after_units_)
    cancelled_.store(true, std::memory_order_relaxed);
}

void CollectingSink::on_campaign_end(const CampaignSummary& s) {
  ++ends;
  summary = s;
}

}  // namespace twm::api
