// The hcs-lint CLI — in-repo static analysis for collective matching,
// determinism hygiene and coroutine-lifetime hazards, with whole-program
// (cross-TU) interprocedural rules.  See docs/static-analysis.md.
//
// Usage:
//   hcs_lint [options] <paths...>         (paths default to src bench examples tests)
//     --root DIR             repo root; relative paths resolve against it (default: cwd)
//     --baseline FILE        suppress findings recorded in FILE
//     --write-baseline FILE  record current findings as the new baseline and exit
//     --rule ID              run only this rule (repeatable)
//     --sarif FILE           also write non-baselined findings as SARIF 2.1.0
//     --stats                print a per-rule findings/runtime table
//     --max-call-depth N     interprocedural chain bound in call edges (default 4)
//     --list-rules           print the rule table and exit
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"
#include "util/cli.hpp"

namespace {

int list_rules() {
  for (const auto& r : hcs::lint::rule_table()) {
    std::cout << r.id << "  [" << r.category << ", " << to_string(r.severity)
              << (r.interprocedural ? ", interprocedural" : "") << "]\n    " << r.summary
              << "\n";
    for (const auto& p : r.exempt_path_prefixes) {
      std::cout << "    exempt: " << p << "\n";
    }
  }
  return 0;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("hcs-lint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void print_stats(const hcs::lint::AnalysisStats& stats) {
  std::printf("\n%-28s %9s %9s\n", "rule", "findings", "ms");
  for (const auto& [id, rs] : stats.rules) {
    std::printf("%-28s %9d %9.2f\n", id.c_str(), rs.findings, rs.seconds * 1e3);
  }
  std::printf("files: %d\n", stats.files);
  std::printf("phase 1 (summaries): %.1f ms   phase 2 (interproc): %.1f ms   total: %.1f ms\n",
              stats.summary_seconds * 1e3, stats.interproc_seconds * 1e3,
              stats.total_seconds * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hcs;
  try {
    const util::Cli cli(argc, argv, {"list-rules", "stats"});
    cli.reject_unknown({"root", "baseline", "write-baseline", "rule", "sarif", "stats",
                        "max-call-depth", "list-rules"});
    if (cli.has("list-rules")) return list_rules();

    lint::AnalyzerOptions options;
    options.root = cli.get("root", "");
    options.max_call_depth = static_cast<std::size_t>(cli.get_int("max-call-depth", 4));
    options.now = [] {
      // hcs-lint: allow-next-line(wall-clock) --stats timing shim, host-only by construction
      const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
      return std::chrono::duration<double>(since_epoch).count();
    };
    for (const std::string& id : cli.get_all("rule")) {
      if (!lint::find_rule(id)) {
        std::cerr << "hcs-lint: unknown rule '" << id << "' (see --list-rules)\n";
        return 2;
      }
      options.enabled_rules.insert(id);
    }

    std::vector<std::string> paths = cli.positional();
    if (paths.empty()) paths = {"src", "bench", "examples", "tests"};
    const lint::AnalysisResult result = lint::analyze_paths(paths, options);

    const std::string write_to = cli.get("write-baseline", "");
    if (!write_to.empty()) {
      std::ofstream out(write_to, std::ios::binary);
      if (!out) throw std::runtime_error("hcs-lint: cannot write " + write_to);
      out << lint::Baseline::serialize(result.findings, result.lines);
      std::cout << "hcs-lint: wrote baseline with " << result.findings.size()
                << " finding(s) to " << write_to << "\n";
      return 0;
    }

    lint::Baseline baseline;
    const std::string baseline_path = cli.get("baseline", "");
    if (!baseline_path.empty()) {
      std::string error;
      if (!baseline.parse(slurp(baseline_path), &error)) {
        std::cerr << "hcs-lint: " << error << "\n";
        return 2;
      }
      for (const std::string& w : baseline.unknown_rule_warnings()) {
        std::cerr << "hcs-lint: warning: " << baseline_path << ": " << w << "\n";
      }
    }
    const std::vector<lint::Finding> fresh = lint::apply_baseline(result, baseline);

    const std::string sarif_path = cli.get("sarif", "");
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path, std::ios::binary);
      if (!out) throw std::runtime_error("hcs-lint: cannot write " + sarif_path);
      out << lint::to_sarif(fresh);
    }

    for (const auto& f : fresh) {
      std::cout << f.path << ":" << f.line << ":" << f.col << ": " << to_string(f.severity)
                << ": " << f.message << " [" << f.rule << "]\n";
    }
    if (cli.has("stats")) print_stats(result.stats);
    const std::size_t baselined = result.findings.size() - fresh.size();
    if (fresh.empty()) {
      std::cout << "hcs-lint: clean (" << result.lines.size() << " files";
      if (baselined != 0) std::cout << ", " << baselined << " baselined finding(s)";
      std::cout << ")\n";
      return 0;
    }
    std::cout << "hcs-lint: " << fresh.size() << " finding(s) in " << result.lines.size()
              << " files";
    if (baselined != 0) std::cout << " (" << baselined << " more baselined)";
    std::cout << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
