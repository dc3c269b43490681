#include "obs/analysis/perfgate.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>

#include "common/error.h"
#include "obs/analysis/json.h"

namespace ceresz::obs::analysis {

namespace {

std::string fmt_g(f64 v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string pad(std::string s, std::size_t width) {
  if (s.size() < width) s.resize(width, ' ');
  return s;
}

const char* status_name(GateStatus s) {
  switch (s) {
    case GateStatus::kOk: return "ok";
    case GateStatus::kWarn: return "WARN";
    case GateStatus::kFail: return "FAIL";
    case GateStatus::kMissing: return "MISSING";
    case GateStatus::kNoBaseline: return "NO-BASELINE";
  }
  return "?";
}

}  // namespace

std::string HistoryRecord::to_jsonl() const {
  auto esc = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  };
  char num[64];
  std::snprintf(num, sizeof(num), "%.17g", value);
  char nz[64];
  std::snprintf(nz, sizeof(nz), "%.6g", noise);
  std::string line = "{\"bench\": " + esc(bench) +
                     ", \"metric\": " + esc(metric) + ", \"value\": " + num +
                     ", \"unit\": " + esc(unit) +
                     ", \"better\": " + esc(better) + ", \"noise\": " + nz;
  if (!timestamp.empty()) line += ", \"timestamp\": " + esc(timestamp);
  if (!git_sha.empty()) line += ", \"git_sha\": " + esc(git_sha);
  if (!host.empty()) line += ", \"host\": " + esc(host);
  line += "}";
  return line;
}

std::vector<HistoryRecord> parse_history_jsonl(std::string_view text) {
  std::vector<HistoryRecord> out;
  for (const JsonValue& line : parse_jsonl(text)) {
    CERESZ_CHECK(line.is_object(), "history: record must be an object");
    HistoryRecord r;
    r.bench = line.string_or("bench", "");
    r.metric = line.string_or("metric", "");
    CERESZ_CHECK(!r.bench.empty() && !r.metric.empty(),
                 "history: record needs \"bench\" and \"metric\"");
    const JsonValue& value = line.at("value");
    CERESZ_CHECK(value.kind == JsonValue::Kind::kNumber,
                 "history: record needs a numeric \"value\"");
    r.value = value.number;
    r.unit = line.string_or("unit", "");
    r.better = line.string_or("better", "higher");
    CERESZ_CHECK(r.better == "higher" || r.better == "lower",
                 "history: \"better\" must be \"higher\" or \"lower\"");
    r.noise = line.number_or("noise", 0.10);
    CERESZ_CHECK(r.noise >= 0.0, "history: \"noise\" must be >= 0");
    r.timestamp = line.string_or("timestamp", "");
    r.git_sha = line.string_or("git_sha", "");
    r.host = line.string_or("host", "");
    out.push_back(std::move(r));
  }
  return out;
}

void stamp_history_metadata(HistoryRecord& record) {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    char buf[32];
    if (std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc) > 0) {
      record.timestamp = buf;
    }
  }
  const char* sha = std::getenv("GITHUB_SHA");
  if (sha == nullptr || sha[0] == '\0') sha = std::getenv("CERESZ_GIT_SHA");
  if (sha != nullptr && sha[0] != '\0') record.git_sha = sha;
  char hostname[256];
  if (gethostname(hostname, sizeof(hostname)) == 0) {
    hostname[sizeof(hostname) - 1] = '\0';
    record.host = hostname;
  }
}

GateReport evaluate_gate(const std::vector<HistoryRecord>& baseline,
                         const std::vector<HistoryRecord>& current,
                         f64 hard_factor) {
  CERESZ_CHECK(hard_factor >= 1.0, "perfgate: hard_factor must be >= 1");
  // Each current record, and whether some baseline record compared it.
  struct Current {
    const HistoryRecord* record = nullptr;
    bool compared = false;
  };
  std::map<std::string, Current> current_by_key;
  for (const HistoryRecord& r : current) {
    // Last record wins: a re-run bench overwrites its earlier line.
    current_by_key[r.key()].record = &r;
  }

  GateReport report;
  for (const HistoryRecord& base : baseline) {
    GateResult res;
    res.baseline = base;
    const auto it = current_by_key.find(base.key());
    if (it == current_by_key.end()) {
      res.status = GateStatus::kMissing;
      ++report.missing;
      ++report.warned;
      report.results.push_back(std::move(res));
      continue;
    }
    it->second.compared = true;
    res.current = it->second.record->value;
    if (base.value != 0.0) {
      const f64 rel = (res.current - base.value) / std::abs(base.value);
      // Positive deviation = moved in the worse direction.
      res.deviation = base.better == "higher" ? -rel : rel;
    } else {
      res.deviation = res.current == 0.0 ? 0.0 : 1.0;
      if (base.better == "lower" && res.current < 0.0) res.deviation = 0.0;
    }
    if (res.deviation <= base.noise) {
      res.status = GateStatus::kOk;
    } else if (res.deviation <= base.noise * hard_factor) {
      res.status = GateStatus::kWarn;
      ++report.warned;
    } else {
      res.status = GateStatus::kFail;
      ++report.failed;
    }
    report.results.push_back(std::move(res));
  }

  for (const auto& [key, cur] : current_by_key) {
    if (cur.compared) continue;
    GateResult res;
    res.baseline = *cur.record;
    res.current = cur.record->value;
    res.status = GateStatus::kNoBaseline;
    ++report.no_baseline;
    ++report.warned;
    report.results.push_back(std::move(res));
  }
  return report;
}

std::string render_gate(const GateReport& report) {
  std::string out;
  out += "CereSZ perf gate\n";
  out += pad("bench/metric", 44) + pad("baseline", 12) + pad("current", 12) +
         pad("deviation", 11) + pad("band", 9) + "status\n";
  for (const GateResult& r : report.results) {
    const bool compared = r.status != GateStatus::kMissing &&
                          r.status != GateStatus::kNoBaseline;
    std::string dev = compared ? fmt_g(r.deviation * 100.0) + "%" : "-";
    std::string cur =
        r.status == GateStatus::kMissing ? "-" : fmt_g(r.current);
    std::string base = r.status == GateStatus::kNoBaseline
                           ? "-"
                           : fmt_g(r.baseline.value);
    out += pad(r.baseline.key(), 44) + pad(base, 12) +
           pad(cur, 12) + pad(dev, 11) +
           pad(fmt_g(r.baseline.noise * 100.0) + "%", 9) +
           status_name(r.status) + "\n";
  }
  out += "summary: " + std::to_string(report.results.size()) + " metrics, " +
         std::to_string(report.failed) + " failed, " +
         std::to_string(report.warned) + " warned (" +
         std::to_string(report.missing) + " missing, " +
         std::to_string(report.no_baseline) + " without baseline)\n";
  out += report.failed ? "RESULT: FAIL\n"
                       : (report.warned ? "RESULT: WARN\n" : "RESULT: PASS\n");
  return out;
}

}  // namespace ceresz::obs::analysis
