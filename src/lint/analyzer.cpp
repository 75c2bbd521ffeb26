#include "lint/analyzer.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lint/callgraph.hpp"
#include "lint/interproc_rules.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"
#include "lint/summary.hpp"

namespace hcs::lint {
namespace {

namespace fs = std::filesystem;

bool cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" || ext == ".cxx" ||
         ext == ".hxx";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    throw std::runtime_error("hcs-lint: cannot read " + p.string() + ": " +
                             std::strerror(errno));
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("hcs-lint: read error on " + p.string() + ": " +
                             std::strerror(errno));
  }
  return ss.str();
}

std::string relative_to(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  const fs::path chosen = (ec || rel.empty() || *rel.begin() == "..") ? p : rel;
  return chosen.lexically_normal().generic_string();
}

bool is_fixture_path(const std::string& rel) {
  return rel.find("tests/lint/fixtures") != std::string::npos;
}

bool keep_rule(const std::set<std::string>& enabled, const std::string& rule) {
  // bad-suppression diagnostics always surface: a typo in an allow() comment
  // must not hide behind --rule selection.
  return enabled.empty() || enabled.count(rule) > 0 || rule == "bad-suppression";
}

}  // namespace

AnalysisResult analyze_sources(const std::vector<std::pair<std::string, std::string>>& sources,
                               const AnalyzerOptions& options) {
  const auto& now = options.now;
  const double t_start = now ? now() : 0.0;
  AnalysisResult result;
  std::map<std::string, double> rule_seconds;

  // Phase 1: per-file summaries.
  std::vector<FileSummary> summaries;
  summaries.reserve(sources.size());
  for (const auto& [rel, content] : sources) {
    LexedFile lexed = lex(rel, content);
    summaries.push_back(build_summary(lexed, rel, now, &rule_seconds));
    result.lines.emplace(rel, std::move(lexed.lines));
  }
  result.stats.files = static_cast<int>(summaries.size());
  const double t_phase1 = now ? now() : 0.0;
  result.stats.summary_seconds = t_phase1 - t_start;

  // Assembly of per-file findings: rule selection + suppression comments.
  for (const FileSummary& s : summaries) {
    for (const Finding& f : s.local_findings) {
      if (!keep_rule(options.enabled_rules, f.rule)) continue;
      if (f.rule != "bad-suppression" && is_suppressed(s.suppressions, f)) continue;
      result.findings.push_back(f);
    }
  }

  // Phase 2: project index + interprocedural rules.
  const ProjectIndex index = ProjectIndex::build(summaries);
  std::vector<Finding> ip = run_interproc_rules(summaries, index, options.enabled_rules,
                                                options.max_call_depth, now, &rule_seconds);
  std::map<std::string, const SuppressionSummary*> sup_by_path;
  for (const FileSummary& s : summaries) sup_by_path.emplace(s.rel_path, &s.suppressions);
  for (Finding& f : ip) {
    const auto it = sup_by_path.find(f.path);
    if (it != sup_by_path.end() && is_suppressed(*it->second, f)) continue;
    result.findings.push_back(std::move(f));
  }
  result.stats.interproc_seconds = (now ? now() : 0.0) - t_phase1;

  std::sort(result.findings.begin(), result.findings.end());
  for (const Finding& f : result.findings) result.stats.rules[f.rule].findings += 1;
  for (const auto& [id, secs] : rule_seconds) result.stats.rules[id].seconds += secs;
  result.stats.total_seconds = (now ? now() : 0.0) - t_start;
  return result;
}

std::vector<Finding> analyze_source(const std::string& rel_path, const std::string& source,
                                    const AnalyzerOptions& options) {
  const FileSummary summary = build_summary(lex(rel_path, source), rel_path);
  std::vector<Finding> kept;
  for (const Finding& f : summary.local_findings) {
    if (!keep_rule(options.enabled_rules, f.rule)) continue;
    if (f.rule != "bad-suppression" && is_suppressed(summary.suppressions, f)) continue;
    kept.push_back(f);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

AnalysisResult analyze_paths(const std::vector<std::string>& paths,
                             const AnalyzerOptions& options) {
  const fs::path root = options.root.empty() ? fs::current_path() : fs::path(options.root);
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root / p;
    if (fs::is_directory(abs)) {
      for (const auto& entry : fs::recursive_directory_iterator(abs)) {
        if (entry.is_regular_file() && cpp_source(entry.path())) files.push_back(entry.path());
      }
    } else if (fs::is_regular_file(abs)) {
      files.push_back(abs);
    } else if (!fs::exists(abs)) {
      throw std::runtime_error("hcs-lint: no such file or directory: " + abs.string());
    } else {
      throw std::runtime_error("hcs-lint: not a regular file or directory: " + abs.string());
    }
  }
  std::sort(files.begin(), files.end());  // directory iteration order is not portable
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  std::size_t skipped_fixtures = 0;
  for (const fs::path& f : files) {
    const std::string rel = relative_to(f, root);
    if (is_fixture_path(rel)) {
      ++skipped_fixtures;
      continue;
    }
    sources.emplace_back(rel, read_file(f));
  }
  // Nothing lintable is an error (a mistyped path should not pass as clean) —
  // unless everything found was a deliberately-skipped fixture.
  if (sources.empty() && skipped_fixtures == 0) {
    throw std::runtime_error(
        "hcs-lint: no C++ sources found under the given paths — check the path arguments");
  }
  return analyze_sources(sources, options);
}

std::vector<Finding> apply_baseline(const AnalysisResult& result, Baseline baseline) {
  static const std::vector<std::string> kNone;
  std::vector<Finding> fresh;
  for (const Finding& f : result.findings) {
    const auto it = result.lines.find(f.path);
    if (!baseline.consume(f, it == result.lines.end() ? kNone : it->second)) {
      fresh.push_back(f);
    }
  }
  return fresh;
}

}  // namespace hcs::lint
