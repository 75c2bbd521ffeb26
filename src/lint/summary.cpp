#include "lint/summary.hpp"

#include <algorithm>

#include "lint/rules.hpp"
#include "lint/token_scan.hpp"

namespace hcs::lint {
namespace {

using namespace scan;  // NOLINT(google-build-using-namespace) — extraction is token algebra

// ---------------------------------------------------------------------------
// Suppression comments
// ---------------------------------------------------------------------------

// Parses "allow(rule-a, rule-b)" bodies out of hcs-lint comments.
std::vector<std::string> parse_rule_list(const std::string& text, std::size_t open) {
  std::vector<std::string> rules;
  const std::size_t close = text.find(')', open);
  if (close == std::string::npos) return rules;
  std::string cur;
  for (std::size_t i = open + 1; i <= close; ++i) {
    const char c = text[i];
    if (c == ',' || c == ')') {
      if (!cur.empty()) rules.push_back(cur);
      cur.clear();
    } else if (c != ' ' && c != '\t') {
      cur.push_back(c);
    }
  }
  return rules;
}

// ---------------------------------------------------------------------------
// Function discovery
// ---------------------------------------------------------------------------

bool benign_decl_token(const Token& t) {
  if (is_ident(t)) return true;  // specifiers, trailing-return type names
  return t.text == "::" || t.text == "<" || t.text == ">" || t.text == "&" || t.text == "*" ||
         t.text == "->" || t.text == "...";
}

// Names whose "(...)  {" shape is not a function definition.
bool non_function_name(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" || s == "catch" ||
         s == "return" || s == "noexcept" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "alignas";
}

// Locates the parameter-list ")" for the body "{" at fe.open, walking back
// over specifiers and skipping constructor member-initializer entries
// (": a_(x), b_(y)").  Returns npos when the shape is not a definition.
std::size_t param_rparen(const Toks& t, std::size_t body_open) {
  std::size_t k = body_open;
  while (true) {
    // Walk back over declaration-ish tokens to the nearest ")".
    bool found = false;
    while (k-- > 0) {
      if (is(t[k], ")")) {
        found = true;
        break;
      }
      if (!benign_decl_token(t[k])) return std::string::npos;
    }
    if (!found) return std::string::npos;
    const std::size_t open = match_backward(t, k);
    if (open == 0) return std::string::npos;
    // A member-initializer entry: "name(...)" preceded by ":" or ",".
    if (is_ident(t[open - 1]) && open >= 2 && (is(t[open - 2], ":") || is(t[open - 2], ","))) {
      k = open - 1;
      continue;
    }
    // A braced init entry "name{...}" never reaches here (no ")").
    return k;
  }
}

struct NamedFn {
  FuncExtent fe;
  std::string name, qualifier;
  int line = 0;
  bool returns_sync_result = false;
};

std::vector<NamedFn> named_functions(const Toks& t, const std::vector<FuncExtent>& extents) {
  std::vector<NamedFn> out;
  for (const FuncExtent& fe : extents) {
    if (fe.lambda) continue;
    const std::size_t rparen = param_rparen(t, fe.open);
    if (rparen == std::string::npos) continue;
    const std::size_t lparen = match_backward(t, rparen);
    if (lparen == 0) continue;
    const std::size_t name_idx = lparen - 1;
    if (!is_ident(t[name_idx]) || non_function_name(t[name_idx].text)) continue;
    NamedFn fn;
    fn.fe = fe;
    fn.name = t[name_idx].text;
    fn.line = t[name_idx].line;
    std::size_t head = name_idx;
    if (name_idx >= 2 && is(t[name_idx - 1], "::") && is_ident(t[name_idx - 2])) {
      fn.qualifier = t[name_idx - 2].text;
      head = name_idx - 2;
    }
    // Return type: the declaration tokens before the (possibly qualified)
    // name, plus the trailing-return span between ")" and "{".
    for (std::size_t p = head, steps = 0; p-- > 0 && steps < 40; ++steps) {
      const Token& tt = t[p];
      if (is(tt, ";") || is(tt, "{") || is(tt, "}") || is(tt, ")") || is(tt, "(") ||
          is(tt, ",")) {
        break;
      }
      if (is_ident(tt, "SyncResult")) fn.returns_sync_result = true;
    }
    for (std::size_t p = rparen + 1; p < fe.open; ++p) {
      if (is_ident(t[p], "SyncResult")) fn.returns_sync_result = true;
    }
    out.push_back(std::move(fn));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Call sites
// ---------------------------------------------------------------------------

// Common std-ish member/algorithm names that must never resolve to a project
// function: a lone project definition of e.g. clear() would otherwise absorb
// every container clear() in the repo and fabricate call edges.
const std::set<std::string>& ignored_callees() {
  static const std::set<std::string> k = {
      "size",    "empty",        "clear",     "begin",       "end",        "push_back",
      "emplace", "emplace_back", "pop_back",  "reserve",     "resize",     "at",
      "front",   "back",         "insert",    "erase",       "find",       "count",
      "data",    "get",          "reset",     "c_str",       "str",        "substr",
      "append",  "first",        "second",    "swap",        "min",        "max",
      "abs",     "move",         "forward",   "sort",        "stable_sort", "to_string",
      "value",   "has_value",    "value_or",  "assign",      "length",     "rfind",
      "push",    "pop",          "top",       "lower_bound", "upper_bound", "contains",
      "tie",     "make_pair",    "make_unique", "make_shared", "emplace_hint"};
  return k;
}

// First token of the postfix expression whose callee name sits at `i`:
// walks back over "ns::", receiver chains "a.b->" and receiver calls
// "world().".
std::size_t expr_head(const Toks& t, std::size_t i) {
  std::size_t k = i;
  while (k > 0) {
    const Token& prev = t[k - 1];
    if (is(prev, "::")) {
      if (k >= 2 && is_ident(t[k - 2])) {
        k -= 2;
        continue;
      }
      --k;  // leading ::name
      continue;
    }
    if (is(prev, ".") || is(prev, "->")) {
      if (k >= 2 && is_ident(t[k - 2])) {
        k -= 2;
        continue;
      }
      if (k >= 2 && is(t[k - 2], ")")) {
        const std::size_t open = match_backward(t, k - 2);
        if (open == 0) return k;
        if (is_ident(t[open - 1])) {
          k = open - 1;
          continue;
        }
        return open;
      }
      break;
    }
    break;
  }
  return k;
}

ResultUse classify_use(const Toks& t, std::size_t i, const FuncExtent& fe) {
  const std::size_t close = match_forward(t, i + 1);
  std::size_t after = close + 1;
  while (after < t.size() && is(t[after], ")")) ++after;  // (co_await f(...)).x
  if (after + 1 < t.size() && (is(t[after], ".") || is(t[after], "->"))) {
    // Immediate member access: picking .clock alone still drops the report.
    return is_ident(t[after + 1], "clock") ? ResultUse::kConverted : ResultUse::kConsumed;
  }
  const std::size_t head = expr_head(t, i);
  int depth = 0;
  for (std::size_t k = head; k-- > fe.open;) {
    const Token& tok = t[k];
    if (closes(tok)) {
      // "(void)f(...);" — an explicit discard is a deliberate, reviewable
      // decision, unlike silently dropping the value.
      if (depth == 0 && is(tok, ")") && k >= 2 && is_ident(t[k - 1], "void") &&
          is(t[k - 2], "(")) {
        return ResultUse::kConsumed;
      }
      ++depth;
      continue;
    }
    if (opens(tok)) {
      if (depth == 0) {
        if (is(tok, "{")) break;         // statement position in a block
        return ResultUse::kConsumed;     // argument of a larger expression
      }
      --depth;
      continue;
    }
    if (depth != 0) continue;
    if (is(tok, ";") || is(tok, "}")) break;  // statement position
    if (is_ident(tok, "co_await")) continue;
    if (is_assign_op(tok)) {
      if (k == 0 || !is_ident(t[k - 1])) return ResultUse::kConsumed;
      const std::string var = t[k - 1].text;
      bool clockptr = false, tracked = false;
      for (std::size_t p = k - 1; p-- > fe.open;) {
        const Token& tt = t[p];
        if (!benign_decl_token(tt)) break;
        if (is_ident(tt, "ClockPtr")) clockptr = true;
        if (is_ident(tt, "auto") || is_ident(tt, "SyncResult")) tracked = true;
      }
      if (clockptr) return ResultUse::kConverted;
      if (!tracked) return ResultUse::kConsumed;  // assignment to an existing object
      // auto/SyncResult binding: does anything ever look past .clock?
      for (std::size_t p = close + 1; p < fe.close; ++p) {
        if (!is_ident(t[p]) || t[p].text != var) continue;
        if (p + 2 < t.size() && (is(t[p + 1], ".") || is(t[p + 1], "->"))) {
          if (is_ident(t[p + 2], "clock")) continue;
          return ResultUse::kConsumed;  // .report (or any other member) consulted
        }
        return ResultUse::kConsumed;  // the whole value escapes (argument, return, copy)
      }
      return ResultUse::kBoundUnchecked;
    }
    // Any other operator, keyword or identifier means the value feeds a
    // larger expression (return f(), !f(), cond ? f() : g(), ...).
    return ResultUse::kConsumed;
  }
  // Statement-lead "[co_await] f(...);": the value is dropped entirely.
  return (after < t.size() && is(t[after], ";")) ? ResultUse::kDiscarded : ResultUse::kConsumed;
}

// ---------------------------------------------------------------------------
// Hazard sites
// ---------------------------------------------------------------------------

void scan_hazards(const Toks& t, const FuncExtent& fe, std::vector<HazardSite>& out) {
  static const std::set<std::string> kEngines = {
      "mt19937",  "mt19937_64", "minstd_rand",           "minstd_rand0",
      "ranlux24", "ranlux48",   "default_random_engine", "knuth_b"};
  for (std::size_t i = fe.open + 1; i < fe.close; ++i) {
    if (!is_ident(t[i])) continue;
    const std::string& s = t[i].text;
    // Wall clock.
    if (s == "system_clock" || s == "steady_clock" || s == "high_resolution_clock" ||
        ((s == "gettimeofday" || s == "clock_gettime") && call_kind(t, i) == CallKind::kFree)) {
      out.push_back({HazardKind::kWallClock, t[i].line, t[i].col, s});
      continue;
    }
    // Raw randomness.
    if (s == "random_device" ||
        ((s == "rand" || s == "srand") && call_kind(t, i) == CallKind::kFree)) {
      out.push_back({HazardKind::kRawRandom, t[i].line, t[i].col, s});
      continue;
    }
    if (kEngines.count(s) && i + 1 < t.size() && is_ident(t[i + 1]) &&
        t[i + 1].text.back() != '_') {
      const std::size_t after = i + 2;
      const bool unseeded =
          after < t.size() &&
          (is(t[after], ";") ||
           (is(t[after], "{") && after + 1 < t.size() && is(t[after + 1], "}")));
      if (unseeded) out.push_back({HazardKind::kRawRandom, t[i].line, t[i].col, s});
      continue;
    }
    // Shard confinement.  Writes only: current_shard() and other sanctioned
    // reads of the thread-local slot are not escape hatches.
    if (s == "set_current_shard" && i + 1 < t.size() && is(t[i + 1], "(")) {
      out.push_back({HazardKind::kShardState, t[i].line, t[i].col, s});
      continue;
    }
    if (s == "tl_current_shard" && i + 1 < t.size() &&
        (is_assign_op(t[i + 1]) || is(t[i + 1], "++") || is(t[i + 1], "--"))) {
      out.push_back({HazardKind::kShardState, t[i].line, t[i].col, s});
      continue;
    }
    const bool via_call = s == "world" && i + 6 < t.size() && is(t[i + 1], "(") &&
                          is(t[i + 2], ")") && is(t[i + 3], ".") && is_ident(t[i + 4], "sim") &&
                          is(t[i + 5], "(") && is(t[i + 6], ")");
    const bool via_member = s == "world_" && i + 4 < t.size() && is(t[i + 1], "->") &&
                            is_ident(t[i + 2], "sim") && is(t[i + 3], "(") && is(t[i + 4], ")");
    if (via_call || via_member) {
      out.push_back({HazardKind::kShardState, t[i].line, t[i].col, "World::sim()"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rank branches
// ---------------------------------------------------------------------------

std::vector<std::string> call_names_in(const Toks& t, std::size_t b, std::size_t e) {
  std::vector<std::string> names;
  for (std::size_t i = b; i < e && i < t.size(); ++i) {
    if (!is_ident(t[i]) || call_kind(t, i) == CallKind::kNone) continue;
    if (is_collective_call(t, i) || ignored_callees().count(t[i].text)) continue;
    names.push_back(t[i].text);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void scan_rank_branches(const Toks& t, const FuncExtent& fe,
                        const std::set<std::string>& rank_vars,
                        std::vector<RankBranchSummary>& out) {
  for (std::size_t i = fe.open + 1; i + 1 < fe.close; ++i) {
    if (!is_ident(t[i], "if") || !is(t[i + 1], "(")) continue;
    const std::size_t cond_close = match_forward(t, i + 1);
    if (cond_close >= fe.close) continue;
    if (!rank_dependent_cond(t, rank_vars, i + 2, cond_close)) continue;
    const std::size_t then_b = cond_close + 1;
    const std::size_t then_e = stmt_end(t, then_b);
    std::size_t else_b = then_e, else_e = then_e;
    if (then_e < t.size() && is_ident(t[then_e], "else")) {
      else_b = then_e + 1;
      else_e = stmt_end(t, else_b);
    }
    RankBranchSummary rb;
    rb.line = t[i].line;
    rb.col = t[i].col;
    rb.exit_then = has_function_exit(t, then_b, then_e);
    rb.exit_else = else_b != else_e && has_function_exit(t, else_b, else_e);
    rb.then_colls = collectives_in(t, then_b, then_e);
    rb.else_colls = collectives_in(t, else_b, else_e);
    rb.after_colls = collectives_in(t, std::max(then_e, else_e), fe.close);
    rb.then_calls = call_names_in(t, then_b, then_e);
    rb.else_calls = call_names_in(t, else_b, else_e);
    rb.after_calls = call_names_in(t, std::max(then_e, else_e), fe.close);
    out.push_back(std::move(rb));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

SuppressionSummary collect_suppressions(const LexedFile& file, const std::string& rel_path,
                                        std::vector<Finding>* bad_annotations) {
  SuppressionSummary sup;
  for (const Comment& c : file.comments) {
    const std::size_t marker = c.text.find("hcs-lint:");
    if (marker == std::string::npos) continue;
    const std::string body = c.text.substr(marker + 9);
    struct Form {
      const char* name;
      int line_offset;  // -1 = whole file
    };
    static constexpr Form kForms[] = {
        {"allow-next-line(", 1}, {"allow-file(", -1}, {"allow(", 0}};
    bool matched = false;
    for (const Form& form : kForms) {
      const std::size_t at = body.find(form.name);
      if (at == std::string::npos) continue;
      matched = true;
      const std::size_t open = at + std::string(form.name).size() - 1;
      for (const std::string& rule : parse_rule_list(body, open)) {
        if (!find_rule(rule)) {
          if (bad_annotations) {
            bad_annotations->push_back(
                Finding{"bad-suppression", Severity::kError, rel_path, c.line, 1,
                        "suppression names unknown rule '" + rule +
                            "' — see tools/hcs_lint --list-rules"});
          }
          continue;
        }
        if (form.line_offset < 0) {
          sup.whole_file.insert(rule);
        } else {
          sup.by_line[c.end_line + form.line_offset].insert(rule);
        }
      }
      break;
    }
    if (!matched && bad_annotations) {
      bad_annotations->push_back(
          Finding{"bad-suppression", Severity::kError, rel_path, c.line, 1,
                  "unrecognized hcs-lint comment — expected allow(...), "
                  "allow-next-line(...) or allow-file(...)"});
    }
  }
  return sup;
}

bool is_suppressed(const SuppressionSummary& sup, const Finding& f) {
  if (sup.whole_file.count(f.rule)) return true;
  const auto it = sup.by_line.find(f.line);
  return it != sup.by_line.end() && it->second.count(f.rule);
}

FileSummary build_summary(const LexedFile& file, const std::string& rel_path,
                          const std::function<double()>& now,
                          std::map<std::string, double>* rule_seconds) {
  FileSummary out;
  out.rel_path = rel_path;

  // Per-file findings for every rule: selection and suppression are config,
  // applied at assembly time so summaries stay config-independent.
  run_rules(file, rel_path, /*enabled=*/{}, out.local_findings, now, rule_seconds);
  std::vector<Finding> bad;
  out.suppressions = collect_suppressions(file, rel_path, &bad);
  out.local_findings.insert(out.local_findings.end(), bad.begin(), bad.end());
  std::sort(out.local_findings.begin(), out.local_findings.end());

  const Toks& t = file.tokens;
  const std::vector<FuncExtent> extents = function_extents(t);
  const std::set<std::string> rank_vars = rank_tainted_vars(t);
  for (const NamedFn& fn : named_functions(t, extents)) {
    FunctionSummary fs;
    fs.name = fn.name;
    fs.qualifier = fn.qualifier;
    fs.line = fn.line;
    fs.returns_sync_result = fn.returns_sync_result;
    std::set<std::string> colls;
    for (std::size_t i = fn.fe.open + 1; i < fn.fe.close; ++i) {
      if (!is_ident(t[i])) continue;
      const CallKind kind = call_kind(t, i);
      if (kind == CallKind::kNone) continue;
      if (is_collective_call(t, i)) {
        colls.insert(t[i].text);
        continue;
      }
      if (ignored_callees().count(t[i].text)) continue;
      CallSite cs;
      cs.name = t[i].text;
      cs.method = kind == CallKind::kMethod;
      cs.line = t[i].line;
      cs.col = t[i].col;
      cs.use = classify_use(t, i, fn.fe);
      fs.calls.push_back(std::move(cs));
    }
    fs.direct_colls.assign(colls.begin(), colls.end());
    scan_hazards(t, fn.fe, fs.hazards);
    scan_rank_branches(t, fn.fe, rank_vars, fs.rank_branches);
    out.functions.push_back(std::move(fs));
  }
  return out;
}

}  // namespace hcs::lint
