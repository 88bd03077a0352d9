#include "hcm_analyze/analysis.hpp"

#include <algorithm>
#include <sstream>

#include "common/json.hpp"

namespace hcm::analyze {

namespace {

std::string trim_copy(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) {
      out.push_back(text.substr(begin));
      break;
    }
    out.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

std::vector<BaselineEntry> parse_baseline(const std::string& text) {
  std::vector<BaselineEntry> out;
  for (const std::string& raw : split_lines(text)) {
    std::string line = trim_copy(raw);
    if (line.empty() || line[0] == '#') continue;
    std::size_t p1 = line.find('|');
    std::size_t p2 = p1 == std::string::npos ? std::string::npos
                                             : line.find('|', p1 + 1);
    if (p2 == std::string::npos) continue;  // malformed line: ignored
    out.push_back({trim_copy(line.substr(0, p1)),
                   trim_copy(line.substr(p1 + 1, p2 - p1 - 1)),
                   trim_copy(line.substr(p2 + 1))});
  }
  return out;
}

std::string render_baseline(const std::vector<BaselineEntry>& entries) {
  std::ostringstream out;
  out << "# hcm_analyze baseline — grandfathered findings, keyed\n"
         "# rule|file|trimmed-source-line. Entries may only shrink: a\n"
         "# stale entry (no longer firing) fails the run. Regenerate\n"
         "# with: hcm_analyze --root . --update-baseline\n";
  for (const BaselineEntry& e : entries) {
    out << e.rule << '|' << e.file << '|' << e.line_text << '\n';
  }
  return out.str();
}

void apply_suppressions(
    Report& report,
    const std::map<std::string, std::vector<AllowNote>>& allows,
    const std::vector<BaselineEntry>& baseline,
    const std::map<std::string, std::vector<std::string>>& lines) {
  // Work on copies with used-flags so stale suppressions are visible.
  struct AllowUse {
    const AllowNote* note;
    std::string file;
    bool used = false;
  };
  std::vector<AllowUse> allow_uses;
  for (const auto& [file, notes] : allows) {
    for (const AllowNote& n : notes) allow_uses.push_back({&n, file, false});
  }
  std::vector<bool> baseline_used(baseline.size(), false);

  auto line_text = [&](const std::string& file, int line) -> std::string {
    auto it = lines.find(file);
    if (it == lines.end()) return {};
    if (line < 1 || static_cast<std::size_t>(line) > it->second.size())
      return {};
    return trim_copy(it->second[static_cast<std::size_t>(line - 1)]);
  };

  for (Finding& f : report.findings) {
    // Inline allow: same line (trailing comment) or the line above.
    bool done = false;
    for (AllowUse& a : allow_uses) {
      if (a.note->malformed || a.file != f.file) continue;
      if (a.note->line != f.line && a.note->line != f.line - 1) continue;
      if (std::find(a.note->rules.begin(), a.note->rules.end(), f.rule) ==
          a.note->rules.end()) {
        continue;
      }
      f.suppressed = true;
      f.reason = a.note->reason;
      a.used = true;
      done = true;
      break;
    }
    if (done) continue;
    std::string text = line_text(f.file, f.line);
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      const BaselineEntry& e = baseline[i];
      if (e.rule == f.rule && e.file == f.file && e.line_text == text &&
          !text.empty()) {
        f.suppressed = true;
        f.reason = "baseline";
        baseline_used[i] = true;
        break;
      }
    }
  }

  // Meta-findings: defects in the suppression machinery itself.
  for (const auto& [file, notes] : allows) {
    for (const AllowNote& n : notes) {
      if (n.malformed) {
        report.findings.push_back(
            {"allow-malformed", file, n.line,
             "hcm:allow needs a rule list and a ': reason' justification, "
             "e.g. // hcm:allow(rule-id): why this is by design"});
      }
    }
  }
  for (const AllowUse& a : allow_uses) {
    if (a.note->malformed || a.used) continue;
    report.findings.push_back(
        {"allow-stale", a.file, a.note->line,
         "hcm:allow suppresses nothing here — the violation was fixed; "
         "remove the annotation"});
  }
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (baseline_used[i]) continue;
    report.findings.push_back(
        {"baseline-stale", baseline[i].file, 0,
         "baseline entry no longer fires (" + baseline[i].rule + "|" +
             baseline[i].file + "|" + baseline[i].line_text +
             ") — baselines only shrink; remove it"});
  }
}

std::size_t enforce_shard_rules(Report& report) {
  std::size_t unsuppressed = 0;
  for (Finding& f : report.findings) {
    if (!f.suppressed || f.rule.rfind("shard-", 0) != 0) continue;
    const bool enforced_dir = f.file.rfind("src/sim/", 0) == 0 ||
                              f.file.rfind("src/core/", 0) == 0;
    if (!enforced_dir) continue;
    f.suppressed = false;
    f.message +=
        " [enforced: shard rules are not suppressible under src/sim + "
        "src/core — convert to an atomic, a lock, or per-shard state]";
    ++unsuppressed;
  }
  return unsuppressed;
}

std::vector<BaselineEntry> baseline_from_findings(
    const Report& report,
    const std::map<std::string, std::vector<std::string>>& lines) {
  std::vector<BaselineEntry> out;
  for (const Finding& f : report.findings) {
    if (f.suppressed) continue;
    if (f.rule == "allow-stale" || f.rule == "allow-malformed" ||
        f.rule == "baseline-stale") {
      continue;  // machinery defects cannot be baselined away
    }
    std::string text;
    auto it = lines.find(f.file);
    if (it != lines.end() && f.line >= 1 &&
        static_cast<std::size_t>(f.line) <= it->second.size()) {
      text = trim_copy(it->second[static_cast<std::size_t>(f.line - 1)]);
    }
    if (text.empty()) continue;  // unanchorable: must be fixed, not baselined
    BaselineEntry e{f.rule, f.file, text};
    if (std::find_if(out.begin(), out.end(), [&](const BaselineEntry& x) {
          return x.rule == e.rule && x.file == e.file &&
                 x.line_text == e.line_text;
        }) == out.end()) {
      out.push_back(std::move(e));
    }
  }
  return out;
}

// --- JSON ---------------------------------------------------------------

std::string report_to_json(const Report& report) {
  ValueList findings;
  for (const Finding& f : report.findings) {
    findings.emplace_back(ValueMap{{"rule", f.rule},
                                   {"file", f.file},
                                   {"line", f.line},
                                   {"message", f.message},
                                   {"suppressed", f.suppressed},
                                   {"reason", f.reason}});
  }
  const auto total = static_cast<std::int64_t>(report.findings.size());
  const auto unsuppressed = static_cast<std::int64_t>(report.unsuppressed());
  return json_write(ValueMap{
             {"tool", "hcm_analyze"},
             {"files_scanned",
              static_cast<std::int64_t>(report.files_scanned)},
             {"summary", ValueMap{{"total", total},
                                  {"unsuppressed", unsuppressed},
                                  {"suppressed", total - unsuppressed}}},
             {"findings", std::move(findings)}}) +
         "\n";
}

bool report_from_json(const std::string& json, Report* out,
                      std::string* err) {
  *out = Report{};
  const auto fail = [err](std::string what) {
    if (err != nullptr) *err = std::move(what);
    return false;
  };
  auto doc = json_parse(json);
  if (!doc.is_ok()) return fail(doc.status().message());
  if (!doc.value().is_map()) return fail("report is not a JSON object");
  if (const Value& n = doc.value().at("files_scanned"); n.is_int()) {
    out->files_scanned = static_cast<std::size_t>(n.as_int());
  }
  const Value& findings = doc.value().at("findings");
  if (findings.is_null()) return true;
  if (!findings.is_list()) return fail("findings is not a list");
  // Fields are read when present with the expected type; unknown keys
  // are ignored so the schema can grow.
  const auto text = [](const Value& obj, const char* key) {
    const Value& v = obj.at(key);
    return v.is_string() ? v.as_string() : std::string();
  };
  for (const Value& v : findings.as_list()) {
    if (!v.is_map()) return fail("finding is not a JSON object");
    const Value& line = v.at("line");
    const Value& suppressed = v.at("suppressed");
    out->findings.emplace_back(
        text(v, "rule"), text(v, "file"),
        line.is_int() ? static_cast<int>(line.as_int()) : 0,
        text(v, "message"), suppressed.is_bool() && suppressed.as_bool(),
        text(v, "reason"));
  }
  return true;
}

std::string format_findings(const Findings& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.rule << ": " << f.file;
    if (f.line > 0) out << ":" << f.line;
    out << ": " << f.message;
    if (f.suppressed) out << " [suppressed: " << f.reason << "]";
    out << "\n";
  }
  return out.str();
}

}  // namespace hcm::analyze
