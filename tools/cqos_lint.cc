// cqos_lint: micro-protocol discipline linter for the CQoS suite.
//
// The composition rules the paper relies on (§3.5) are easy to break
// silently: a handler bound but never unbound leaks across dynamic
// reconfigurations, a typo'd event name is simply never delivered, and a
// blocking wait inside a handler stalls the composite's dispatch thread.
// This tool enforces those invariants mechanically over src/micro/:
//
//   1. balanced-bind  — handlers must be registered via
//      MicroBase::bind_tracked(), never raw CompositeProtocol::bind();
//      shutdown() overrides must call unbind_all()/MicroBase::shutdown().
//   2. event-names    — every string-literal event bound in src/micro must
//      be raised somewhere in src/micro and vice versa (dead handlers /
//      dead raises); ev::k* names must exist in src/cqos/events.h.
//      Standard-vocabulary events and ev::ctl(...) control events are
//      anchored by the runtime (cactus_client/cactus_server/skeleton) and
//      are exempt from the raise-side check.
//   3. no-dispatch-wait — no .wait( / ->wait( call, timed or not, in
//      micro-protocol code: a request that must wait for another one hangs
//      a completion hook on it (Request::when_done) instead.
//   4. cfg-factories  — every protocol named in examples/sample.cfg must
//      map to a factory registered for that side in src/micro/standard.cc.
//   5. manifest-sync  — every class that defines
//      init(cactus::CompositeProtocol&) must define a manifest() in the same
//      file; every event the source binds/raises (statically nameable) must
//      be declared in the manifest via .binds()/.raises(); every event the
//      manifest declares must still be mentioned somewhere in the class's
//      method bodies (stale entries are drift too); and every reg.add()
//      in src/micro/standard.cc must pass a manifest. This pins the effect
//      models the composition verifier (cqos/verify.h) analyzes to what the
//      handlers actually do — drift is a build failure, not a latent
//      misanalysis.
//   6. transport-seam — code above the net/ library (src/ minus src/net/,
//      bench/, examples/) must not construct SimNetwork/TcpTransport
//      directly; deployments go through net::make_transport(TransportConfig)
//      so they stay transport-neutral. Sim-only drivers waive a line with
//      `// cqos-lint: allow-transport-construction`.
//   7. reconfig-seam  — src/ code outside the reconfiguration seam
//      (cactus/composite.*, cqos/reconfig.cc, cqos/endpoint.cc,
//      cqos/config.cc) must not mutate a composite's handler graph
//      directly (.add_protocol / .add_micro_protocol / .extract_protocols /
//      .install call sites): a stack assembled behind the QuiesceGate's
//      back cannot be drained, swapped or rolled back, so mutation goes
//      through QosEndpoint::Handle::reconfigure(). Deliberate bypasses
//      (boot-time installs into a not-yet-serving composite) waive a line
//      with `// cqos-lint: allow-reconfig-seam`.
//
// Usage: cqos_lint --root <repo_root> [--micro <dir>] [--cfg <file>]
//                  [--seam <dir>] [--reconfig-seam <dir>]
//   --micro / --cfg default to src/micro and examples/sample.cfg under
//   the root; --seam / --reconfig-seam replace the default scan roots of
//   the transport-seam / reconfig-seam rules. The overrides exist so the
//   self-test fixtures under tools/lint_fixtures/ can exercise each rule
//   (registered WILL_FAIL).
//
// Exit status: 0 clean, 1 violations found, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

int g_errors = 0;

void fail(const std::string& file, const std::string& rule,
          const std::string& msg) {
  std::cerr << file << ": [" << rule << "] " << msg << "\n";
  ++g_errors;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    std::cerr << "cqos_lint: cannot read " << p << "\n";
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Strip // and /* */ comments and string *contents we do not care about
/// stay intact — we need event-name literals, so strings are preserved.
std::string strip_comments(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool in_line = false, in_block = false, in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    char n = i + 1 < s.size() ? s[i + 1] : '\0';
    if (in_line) {
      if (c == '\n') { in_line = false; out.push_back(c); }
      continue;
    }
    if (in_block) {
      if (c == '*' && n == '/') { in_block = false; ++i; }
      else if (c == '\n') out.push_back(c);  // keep line numbers stable
      continue;
    }
    if (in_str) {
      out.push_back(c);
      if (c == '\\') { if (i + 1 < s.size()) out.push_back(s[++i]); }
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') { in_str = true; out.push_back(c); continue; }
    if (c == '/' && n == '/') { in_line = true; continue; }
    if (c == '/' && n == '*') { in_block = true; ++i; continue; }
    out.push_back(c);
  }
  return out;
}

/// Collapse all whitespace runs to single spaces (multi-line calls become
/// scannable) while keeping a parallel map back to original line numbers.
struct FlatText {
  std::string text;
  std::vector<int> line;  // line[i] = 1-based source line of text[i]
};

FlatText flatten(const std::string& s) {
  FlatText f;
  int ln = 1;
  bool pending_space = false;
  for (char c : s) {
    if (c == '\n') ++ln;
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !f.text.empty()) {
      f.text.push_back(' ');
      f.line.push_back(ln);
    }
    pending_space = false;
    f.text.push_back(c);
    f.line.push_back(ln);
  }
  return f;
}

int line_at(const FlatText& f, std::size_t pos) {
  return pos < f.line.size() ? f.line[pos] : -1;
}

/// Extract the first argument of a call starting right after `(`.
/// Handles nested parens (ev::ctl(kFoo)) and string literals.
std::string first_arg(const std::string& s, std::size_t open_paren) {
  int depth = 0;
  bool in_str = false;
  std::string arg;
  for (std::size_t i = open_paren; i < s.size(); ++i) {
    char c = s[i];
    if (in_str) {
      arg.push_back(c);
      if (c == '\\') { if (i + 1 < s.size()) arg.push_back(s[++i]); }
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') { in_str = true; if (depth > 0) arg.push_back(c); continue; }
    if (c == '(') { if (depth++ > 0) arg.push_back(c); continue; }
    if (c == ')') { if (--depth == 0) break; arg.push_back(c); continue; }
    if (c == ',' && depth == 1) break;
    if (depth > 0) arg.push_back(c);
  }
  // trim
  auto b = arg.find_first_not_of(' ');
  auto e = arg.find_last_not_of(' ');
  if (b == std::string::npos) return "";
  return arg.substr(b, e - b + 1);
}

/// If `expr` is a plain string literal, return its contents; else "".
std::string literal_of(const std::string& expr) {
  if (expr.size() >= 2 && expr.front() == '"' && expr.back() == '"')
    return expr.substr(1, expr.size() - 2);
  return "";
}

bool is_identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Find each occurrence of `needle` in `hay`. When the needle starts with
/// an identifier character, require a non-identifier character before it
/// (so "raise(" does not match "do_raise(" and "bind_tracked(" does not
/// match "rebind_tracked("); needles starting with '.' or '-' are member
/// accesses and are matched as-is.
std::vector<std::size_t> find_calls(const std::string& hay,
                                    const std::string& needle) {
  std::vector<std::size_t> out;
  const bool word_start = is_identifier_char(needle.front());
  std::size_t pos = 0;
  while ((pos = hay.find(needle, pos)) != std::string::npos) {
    if (!word_start || pos == 0 || !is_identifier_char(hay[pos - 1]))
      out.push_back(pos);
    pos += 1;
  }
  return out;
}

struct EventUse {
  std::string file;
  int line;
};

struct Corpus {
  // literal event name -> where bound / raised
  std::map<std::string, std::vector<EventUse>> literal_binds;
  std::map<std::string, std::vector<EventUse>> literal_raises;
  // ev::kFoo symbol -> where used
  std::map<std::string, std::vector<EventUse>> symbol_uses;
};

// ---------------------------------------------------------------------------
// Rule 1: balanced-bind discipline.
// ---------------------------------------------------------------------------
void check_bind_discipline(const std::string& fname, const FlatText& f) {
  // base.h hosts bind_tracked() itself — the one legal raw-bind site.
  if (fs::path(fname).filename() == "base.h") return;

  for (const char* pat : {"proto.bind(", ".protocol().bind(", "proto->bind("}) {
    for (std::size_t pos : find_calls(f.text, pat)) {
      fail(fname + ":" + std::to_string(line_at(f, pos)), "balanced-bind",
           std::string("raw CompositeProtocol::bind() — use "
                       "MicroBase::bind_tracked() so teardown stays "
                       "balanced (matched '") + pat + "')");
    }
  }

  // shutdown() overrides must keep the unbind side of the ledger.
  std::size_t pos = 0;
  while ((pos = f.text.find("::shutdown()", pos)) != std::string::npos) {
    std::size_t body_open = f.text.find('{', pos);
    std::size_t sig_end = f.text.find(';', pos);
    pos += 1;
    if (body_open == std::string::npos) continue;
    if (sig_end != std::string::npos && sig_end < body_open) continue;  // decl
    // Walk the brace-balanced body.
    int depth = 0;
    std::size_t body_close = body_open;
    for (std::size_t i = body_open; i < f.text.size(); ++i) {
      if (f.text[i] == '{') ++depth;
      else if (f.text[i] == '}' && --depth == 0) { body_close = i; break; }
    }
    std::string body = f.text.substr(body_open, body_close - body_open + 1);
    if (body.find("unbind_all(") == std::string::npos &&
        body.find("MicroBase::shutdown(") == std::string::npos) {
      fail(fname + ":" + std::to_string(line_at(f, body_open)),
           "balanced-bind",
           "shutdown() override neither calls unbind_all() nor "
           "MicroBase::shutdown() — tracked handlers would leak");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2 (collection): record bind/raise event names.
// ---------------------------------------------------------------------------
void collect_events(const std::string& fname, const FlatText& f, Corpus& c) {
  auto record = [&](const std::string& needle, bool is_bind) {
    for (std::size_t pos : find_calls(f.text, needle)) {
      std::size_t open = pos + needle.size() - 1;
      std::string arg;
      if (needle.find("bind_tracked") != std::string::npos) {
        // bind_tracked(proto, EVENT, ...) — the event is the SECOND arg;
        // re-anchor extraction just past the first comma.
        std::size_t comma = f.text.find(',', open);
        if (comma == std::string::npos) continue;
        arg = first_arg("(" + f.text.substr(comma + 1), 0);
      } else {
        arg = first_arg(f.text, open);
      }
      EventUse use{fname, line_at(f, pos)};
      std::string lit = literal_of(arg);
      if (!lit.empty()) {
        (is_bind ? c.literal_binds : c.literal_raises)[lit].push_back(use);
      } else if (arg.rfind("ev::ctl(", 0) == 0) {
        // Control events are anchored by the runtime ctl dispatcher.
      } else if (arg.rfind("ev::k", 0) == 0 &&
                 std::all_of(arg.begin() + 4, arg.end(), is_identifier_char)) {
        c.symbol_uses[arg.substr(4)].push_back(use);  // "kFoo"
      } else {
        // Computed name (ternary, variable): can't check statically.
      }
    }
  };
  record("bind_tracked(", /*is_bind=*/true);
  record("raise(", /*is_bind=*/false);
  record("raise_async(", /*is_bind=*/false);
  record("raise_delayed(", /*is_bind=*/false);
}

// ---------------------------------------------------------------------------
// Rule 3: no wait on the dispatch thread, timed or not.
// ---------------------------------------------------------------------------
void check_no_blocking_wait(const std::string& fname, const FlatText& f) {
  for (const char* pat : {".wait(", "->wait("}) {
    for (std::size_t pos : find_calls(f.text, pat)) {
      fail(fname + ":" + std::to_string(line_at(f, pos)), "no-dispatch-wait",
           "wait() in micro-protocol code — handlers run on the composite's "
           "dispatch thread; hang a completion hook on the request "
           "(Request::when_done) instead");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2 (verdicts): cross-check the collected event names.
// ---------------------------------------------------------------------------
std::set<std::string> parse_event_vocab(const fs::path& events_h) {
  // Matches: inline constexpr std::string_view kFoo = "...";
  std::set<std::string> vocab;
  FlatText f = flatten(strip_comments(read_file(events_h)));
  std::size_t pos = 0;
  while ((pos = f.text.find("std::string_view k", pos)) != std::string::npos) {
    std::size_t b = f.text.find('k', pos + 17);
    std::size_t e = b;
    while (e < f.text.size() && is_identifier_char(f.text[e])) ++e;
    vocab.insert(f.text.substr(b, e - b));
    pos = e;
  }
  return vocab;
}

void check_events(const Corpus& c, const std::set<std::string>& vocab) {
  for (const auto& [name, uses] : c.symbol_uses) {
    if (!vocab.count(name)) {
      for (const auto& u : uses)
        fail(u.file + ":" + std::to_string(u.line), "event-names",
             "ev::" + name + " is not declared in src/cqos/events.h");
    }
  }
  for (const auto& [name, uses] : c.literal_binds) {
    if (!c.literal_raises.count(name)) {
      for (const auto& u : uses)
        fail(u.file + ":" + std::to_string(u.line), "event-names",
             "handler bound to \"" + name +
                 "\" but nothing in src/micro raises it (dead handler)");
    }
  }
  for (const auto& [name, uses] : c.literal_raises) {
    if (!c.literal_binds.count(name)) {
      for (const auto& u : uses)
        fail(u.file + ":" + std::to_string(u.line), "event-names",
             "\"" + name +
                 "\" is raised but no handler in src/micro binds it "
                 "(dead raise)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 4: configuration names map to registered factories.
// ---------------------------------------------------------------------------
struct Registry {
  std::set<std::string> client;
  std::set<std::string> server;
};

Registry parse_registry(const fs::path& standard_cc) {
  Registry reg;
  FlatText f = flatten(strip_comments(read_file(standard_cc)));
  std::size_t pos = 0;
  while ((pos = f.text.find("reg.add(", pos)) != std::string::npos) {
    std::size_t open = pos + 7;
    std::string side = first_arg(f.text, open);
    std::size_t q1 = f.text.find('"', open);
    std::size_t q2 = q1 == std::string::npos ? q1 : f.text.find('"', q1 + 1);
    pos = open + 1;
    if (q2 == std::string::npos) continue;
    std::string name = f.text.substr(q1 + 1, q2 - q1 - 1);
    if (side.find("kClient") != std::string::npos) reg.client.insert(name);
    else if (side.find("kServer") != std::string::npos) reg.server.insert(name);
  }
  return reg;
}

void check_cfg(const fs::path& cfg_path, const Registry& reg) {
  std::ifstream in(cfg_path);
  if (!in) {
    std::cerr << "cqos_lint: cannot read " << cfg_path << "\n";
    std::exit(2);
  }
  std::string line;
  int ln = 0;
  const std::set<std::string>* side = nullptr;
  const char* side_name = "";
  std::string pending;  // protocol list may continue across lines
  auto flush = [&](int at_line) {
    if (side == nullptr) { pending.clear(); return; }
    // Split on commas OUTSIDE parameter parens:
    //   "timed_sched(period_ms=5, threshold=8)" is one item.
    std::vector<std::string> items;
    std::string cur;
    int depth = 0;
    for (char ch : pending) {
      if (ch == '(') ++depth;
      else if (ch == ')') { if (depth > 0) --depth; }
      if (ch == ',' && depth == 0) { items.push_back(cur); cur.clear(); }
      else cur.push_back(ch);
    }
    items.push_back(cur);
    for (const std::string& item : items) {
      // strip parameters and whitespace: "timed_sched(period_ms=5..." -> name
      std::string name;
      for (char ch : item) {
        if (ch == '(') break;
        if (!std::isspace(static_cast<unsigned char>(ch))) name.push_back(ch);
      }
      if (name.empty()) continue;
      if (!side->count(name)) {
        fail(cfg_path.string() + ":" + std::to_string(at_line),
             "cfg-factories",
             std::string("protocol '") + name + "' is not registered for "
                 "side '" + side_name + "' in src/micro/standard.cc");
      }
    }
    pending.clear();
  };
  while (std::getline(in, line)) {
    ++ln;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    auto colon = line.find(':');
    std::string head;
    if (colon != std::string::npos) {
      head = line.substr(0, colon);
      head.erase(std::remove_if(head.begin(), head.end(),
                                [](unsigned char ch) {
                                  return std::isspace(ch);
                                }),
                 head.end());
    }
    if (head == "client" || head == "server") {
      flush(ln - 1);
      side = head == "client" ? &reg.client : &reg.server;
      side_name = head == "client" ? "client" : "server";
      pending = line.substr(colon + 1);
    } else {
      pending += line;
    }
    // A list continues iff the (comment-stripped) line ends with ','.
    auto last = pending.find_last_not_of(" \t\r");
    if (last == std::string::npos || pending[last] != ',') {
      flush(ln);
      side = nullptr;
    }
  }
  flush(ln);
}

// ---------------------------------------------------------------------------
// Rule 5: manifest-sync.
// ---------------------------------------------------------------------------
struct MethodDef {
  std::string method;
  std::string params;  // text inside the parameter parens
  std::string body;    // text inside the outer braces
  int line;
};

/// Walk a brace-balanced body starting at `open` ('{'); returns one past the
/// matching close brace, or npos. Braces inside string literals are skipped.
std::size_t body_end(const std::string& s, std::size_t open) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = open; i < s.size(); ++i) {
    char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{') ++depth;
    else if (c == '}' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

/// Qualified method definitions (`X::method(params) ... { body }`) grouped
/// by class name. A definition is distinguished from a call by what follows
/// the balanced parameter list: '{' (possibly after const/noexcept/override)
/// or — for constructors only (X::X) — an initializer list.
std::map<std::string, std::vector<MethodDef>> parse_method_defs(
    const FlatText& f) {
  std::map<std::string, std::vector<MethodDef>> defs;
  const std::string& s = f.text;
  std::size_t pos = 0;
  while ((pos = s.find("::", pos)) != std::string::npos) {
    std::size_t sep = pos;
    pos += 2;
    // Identifier before '::' — skip multi-level qualifications (std::…::)
    // by requiring the class name not itself be preceded by '::'.
    std::size_t cb = sep;
    while (cb > 0 && is_identifier_char(s[cb - 1])) --cb;
    if (cb == sep || (cb >= 2 && s[cb - 1] == ':' && s[cb - 2] == ':')) {
      continue;
    }
    std::string cls = s.substr(cb, sep - cb);
    // Identifier after '::', immediately followed by '('.
    std::size_t me = sep + 2;
    while (me < s.size() && is_identifier_char(s[me])) ++me;
    if (me == sep + 2 || me >= s.size() || s[me] != '(') continue;
    std::string method = s.substr(sep + 2, me - sep - 2);
    // Balanced parameter list.
    int depth = 0;
    bool in_str = false;
    std::size_t close = std::string::npos;
    for (std::size_t i = me; i < s.size(); ++i) {
      char c = s[i];
      if (in_str) {
        if (c == '\\') ++i;
        else if (c == '"') in_str = false;
        continue;
      }
      if (c == '"') in_str = true;
      else if (c == '(') ++depth;
      else if (c == ')' && --depth == 0) { close = i; break; }
    }
    if (close == std::string::npos) continue;
    std::string params = s.substr(me + 1, close - me - 1);
    // What follows decides: definition body, ctor initializer list, or a
    // mere call (rejected).
    std::size_t after = close + 1;
    for (;;) {
      while (after < s.size() && s[after] == ' ') ++after;
      bool skipped = false;
      for (const char* kw : {"const", "noexcept", "override"}) {
        std::size_t n = std::strlen(kw);
        if (s.compare(after, n, kw) == 0 &&
            (after + n >= s.size() || !is_identifier_char(s[after + n]))) {
          after += n;
          skipped = true;
          break;
        }
      }
      if (!skipped) break;
    }
    std::size_t open = std::string::npos;
    if (after < s.size() && s[after] == '{') {
      open = after;
    } else if (after < s.size() && s[after] == ':' && cls == method) {
      // Constructor initializer list: scan to the body's '{' outside parens.
      int pd = 0;
      for (std::size_t i = after + 1; i < s.size(); ++i) {
        char c = s[i];
        if (c == '(') ++pd;
        else if (c == ')') --pd;
        else if (c == '{' && pd == 0) { open = i; break; }
        else if (c == ';' && pd == 0) break;
      }
    }
    if (open == std::string::npos) continue;
    std::size_t end = body_end(s, open);
    if (end == std::string::npos) continue;
    MethodDef def;
    def.method = method;
    def.params = params;
    def.body = s.substr(open + 1, end - open - 2);
    def.line = line_at(f, cb);
    defs[cls].push_back(std::move(def));
    pos = end;
  }
  return defs;
}

/// Statically nameable event expression of a bind/raise call site: the
/// literal or ev::k symbol text, or "" when the name is computed (ternary,
/// variable) or a control event (ev::ctl(...) — runtime-anchored, exempt).
std::string nameable_event(const std::string& arg) {
  if (!literal_of(arg).empty()) return arg;
  if (arg.rfind("ev::ctl(", 0) == 0) return "";
  if (arg.rfind("ev::k", 0) == 0 &&
      std::all_of(arg.begin() + 4, arg.end(), is_identifier_char)) {
    return arg;
  }
  return "";
}

/// Collect the event arguments of `.binds(...)` / `.raises(...)` chains in a
/// manifest() body.
std::set<std::string> manifest_decls(const std::string& body,
                                     const std::string& needle) {
  std::set<std::string> out;
  for (std::size_t pos : find_calls(body, needle)) {
    std::string arg = first_arg(body, pos + needle.size() - 1);
    if (!arg.empty()) out.insert(arg);
  }
  return out;
}

void check_manifest_sync(const std::string& fname, const FlatText& f) {
  for (const auto& [cls, methods] : parse_method_defs(f)) {
    const MethodDef* init = nullptr;
    const MethodDef* manifest = nullptr;
    for (const MethodDef& m : methods) {
      if (m.method == "init" &&
          m.params.find("cactus::CompositeProtocol") != std::string::npos) {
        init = &m;
      }
      if (m.method == "manifest") manifest = &m;
    }
    if (init == nullptr) continue;  // not a micro-protocol class
    if (manifest == nullptr) {
      fail(fname + ":" + std::to_string(init->line), "manifest-sync",
           cls + " defines init(cactus::CompositeProtocol&) but no "
                 "manifest() in this file — every micro-protocol must "
                 "publish its effect model for the composition verifier");
      continue;
    }

    // The class's behavior, excluding the manifest body itself (else the
    // staleness check below would be vacuously satisfied).
    std::string behavior;
    for (const MethodDef& m : methods) {
      if (&m != manifest) behavior += m.body + "\n";
    }
    std::set<std::string> binds = manifest_decls(manifest->body, ".binds(");
    std::set<std::string> raises = manifest_decls(manifest->body, ".raises(");

    // Direction 1: what the source does, the manifest must declare.
    auto require_declared = [&](const std::string& needle, bool is_bind) {
      for (std::size_t pos : find_calls(behavior, needle)) {
        std::size_t open = pos + needle.size() - 1;
        std::string arg;
        if (needle.find("bind_tracked") != std::string::npos) {
          std::size_t comma = behavior.find(',', open);
          if (comma == std::string::npos) continue;
          arg = first_arg("(" + behavior.substr(comma + 1), 0);
        } else {
          arg = first_arg(behavior, open);
        }
        std::string event = nameable_event(arg);
        if (event.empty()) continue;
        const std::set<std::string>& declared = is_bind ? binds : raises;
        if (!declared.count(event)) {
          fail(fname, "manifest-sync",
               cls + (is_bind ? " binds " : " raises ") + event +
                   " but its manifest() does not declare it via " +
                   (is_bind ? ".binds()" : ".raises()") + " — manifest drift");
        }
      }
    };
    require_declared("bind_tracked(", /*is_bind=*/true);
    require_declared("raise(", /*is_bind=*/false);
    require_declared("raise_async(", /*is_bind=*/false);
    require_declared("raise_delayed(", /*is_bind=*/false);

    // Direction 2: what the manifest declares, the source must mention.
    auto require_mentioned = [&](const std::set<std::string>& declared,
                                 const char* what) {
      for (const std::string& event : declared) {
        if (behavior.find(event) == std::string::npos) {
          fail(fname + ":" + std::to_string(manifest->line), "manifest-sync",
               cls + "'s manifest() declares " + std::string(what) + " " +
                   event + " but no method of " + cls +
                   " mentions it — stale manifest entry");
        }
      }
    };
    require_mentioned(binds, "bind of");
    require_mentioned(raises, "raise of");
  }
}

/// Every factory registration in standard.cc must carry a manifest: an
/// add() without one makes the protocol opaque to the verifier, silently
/// weakening every composition it appears in.
void check_registry_manifests(const fs::path& standard_cc) {
  FlatText f = flatten(strip_comments(read_file(standard_cc)));
  std::size_t pos = 0;
  while ((pos = f.text.find("reg.add(", pos)) != std::string::npos) {
    std::size_t open = pos + 7;
    int depth = 0;
    std::size_t close = open;
    for (std::size_t i = open; i < f.text.size(); ++i) {
      char c = f.text[i];
      if (c == '(') ++depth;
      else if (c == ')' && --depth == 0) { close = i; break; }
    }
    std::string call = f.text.substr(open, close - open + 1);
    if (call.find("manifest()") == std::string::npos) {
      std::size_t q1 = call.find('"');
      std::size_t q2 = q1 == std::string::npos ? q1 : call.find('"', q1 + 1);
      std::string name = q2 == std::string::npos
                             ? "?"
                             : call.substr(q1 + 1, q2 - q1 - 1);
      fail(standard_cc.string() + ":" + std::to_string(line_at(f, pos)),
           "manifest-sync",
           "registration of '" + name + "' does not pass a manifest — "
           "use reg.add(side, name, factory, Class::manifest())");
    }
    pos = close;
  }
}

// --- Rule 7: transport-seam ---------------------------------------------------
// Code above the net/ library must not construct a concrete transport
// (SimNetwork, TcpTransport) directly: construction goes through
// net::make_transport(TransportConfig), the single factory, so deployments
// stay transport-neutral (src/net/transport.h). References (parameters,
// pointers, forward declarations, friend declarations) are fine — only
// instantiation is flagged. Sim-specific drivers that legitimately need a
// concrete simulator (virtual-time benches) waive a line with
//   // cqos-lint: allow-transport-construction
// on the same or preceding line.

void check_transport_seam_file(const std::string& fname,
                               const std::string& raw) {
  std::set<int> waived;
  {
    std::istringstream ss(raw);
    std::string line;
    int ln = 1;
    while (std::getline(ss, line)) {
      if (line.find("cqos-lint: allow-transport-construction") !=
          std::string::npos) {
        waived.insert(ln);
        waived.insert(ln + 1);
      }
      ++ln;
    }
  }

  FlatText f = flatten(strip_comments(raw));
  const std::string& t = f.text;
  for (const char* type : {"SimNetwork", "TcpTransport"}) {
    const std::size_t len = std::strlen(type);
    for (std::size_t pos = t.find(type); pos != std::string::npos;
         pos = t.find(type, pos + len)) {
      // Whole-identifier match only.
      if (pos > 0 && is_identifier_char(t[pos - 1])) continue;
      std::size_t after = pos + len;
      if (after < t.size() && is_identifier_char(t[after])) continue;
      int ln = line_at(f, pos);
      if (waived.count(ln) != 0) continue;

      // Skip any namespace qualifier so "new cqos::net::SimNetwork" is
      // classified by what precedes the full qualified name.
      std::size_t q = pos;
      while (q >= 2 && t.compare(q - 2, 2, "::") == 0) {
        std::size_t r = q - 2;
        while (r > 0 && is_identifier_char(t[r - 1])) --r;
        q = r;
      }
      auto preceded_by = [&](const std::string& kw) {
        return q >= kw.size() && t.compare(q - kw.size(), kw.size(), kw) == 0;
      };

      bool violation = false;
      std::string what;
      if (preceded_by("new ")) {
        violation = true;
        what = std::string("new ") + type;
      } else if (preceded_by("make_unique<") || preceded_by("make_shared<")) {
        violation = true;
        what = std::string("make_unique/make_shared<") + type + ">";
      } else if (preceded_by("class ") || preceded_by("struct ")) {
        // Forward / friend declaration: a type mention, not a construction.
      } else {
        // Declaration form: "<Type> ident (..." / "{...}" / ";" constructs
        // an instance (stack variable or default-constructed member).
        // "<Type>&", "<Type>*" and "<Type>>" are references/type args.
        std::size_t p = after;
        while (p < t.size() && t[p] == ' ') ++p;
        if (p < t.size() && (std::isalpha(static_cast<unsigned char>(t[p])) ||
                             t[p] == '_')) {
          std::size_t id_end = p;
          while (id_end < t.size() && is_identifier_char(t[id_end])) ++id_end;
          std::size_t p2 = id_end;
          while (p2 < t.size() && t[p2] == ' ') ++p2;
          if (p2 < t.size() && (t[p2] == '(' || t[p2] == '{' || t[p2] == ';' ||
                                t[p2] == '=')) {
            violation = true;
            what = std::string(type) + " " + t.substr(p, id_end - p);
          }
        }
      }
      if (violation) {
        fail(fname + ":" + std::to_string(ln), "transport-seam",
             "direct construction of " + what +
                 " — build transports via net::make_transport("
                 "TransportConfig); sim-only drivers may waive with "
                 "'// cqos-lint: allow-transport-construction'");
      }
    }
  }
}

void check_transport_seam(const fs::path& root, const fs::path& seam_dir) {
  auto scan_tree = [&](const fs::path& dir, const fs::path& skip) {
    if (!fs::exists(dir)) return;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      const fs::path& p = entry.path();
      if (!skip.empty()) {
        auto rel = fs::relative(p, dir).string();
        if (rel.rfind(skip.string(), 0) == 0) continue;
      }
      auto ext = p.extension();
      if (ext != ".cc" && ext != ".cpp" && ext != ".h") continue;
      check_transport_seam_file(p.string(), read_file(p));
    }
  };
  if (!seam_dir.empty()) {
    scan_tree(seam_dir, {});
    return;
  }
  // The net/ library itself implements the seam; everything above it is in
  // scope. Tests may construct concrete transports freely (they test them).
  scan_tree(root / "src", fs::path("net"));
  scan_tree(root / "bench", {});
  scan_tree(root / "examples", {});
}

// --- Rule 8: reconfig-seam ----------------------------------------------------
// The live-reconfiguration invariant (DESIGN.md §16) only holds if every
// mutation of a composite's micro-protocol stack flows through the seam
// that owns the QuiesceGate: cactus/composite.* (the primitive),
// cqos/config.cc (MicroProtocolRegistry::install), cqos/reconfig.cc (the
// swap engine) and cqos/endpoint.cc (build + Handle::reconfigure). Any
// other src/ call site of the mutation primitives assembles a stack the
// gate cannot drain, swap or roll back. Tests and benches hand-assemble
// composites deliberately and stay out of scope; in-scope boot-time
// installs into a composite that is not serving yet waive a line with
//   // cqos-lint: allow-reconfig-seam
// on the same or preceding line.

void check_reconfig_seam_file(const std::string& fname,
                              const std::string& raw) {
  std::set<int> waived;
  {
    std::istringstream ss(raw);
    std::string line;
    int ln = 1;
    while (std::getline(ss, line)) {
      if (line.find("cqos-lint: allow-reconfig-seam") != std::string::npos) {
        waived.insert(ln);
        waived.insert(ln + 1);
      }
      ++ln;
    }
  }

  FlatText f = flatten(strip_comments(raw));
  const std::string& t = f.text;
  for (const char* method : {"add_protocol", "add_micro_protocol",
                             "extract_protocols", "install"}) {
    const std::size_t len = std::strlen(method);
    for (std::size_t pos = t.find(method); pos != std::string::npos;
         pos = t.find(method, pos + len)) {
      // Whole-identifier match only ("install" must not fire on
      // "reinstall" or "installed").
      if (pos > 0 && is_identifier_char(t[pos - 1])) continue;
      std::size_t after = pos + len;
      if (after < t.size() && is_identifier_char(t[after])) continue;
      // A call site: member access before, argument list after. Plain
      // declarations/definitions and qualified definitions
      // (CompositeProtocol::add_protocol) are type-level mentions.
      std::size_t b = pos;
      while (b > 0 && t[b - 1] == ' ') --b;
      bool member_access =
          (b >= 1 && t[b - 1] == '.') ||
          (b >= 2 && t[b - 2] == '-' && t[b - 1] == '>');
      std::size_t a = after;
      while (a < t.size() && t[a] == ' ') ++a;
      bool called = a < t.size() && t[a] == '(';
      if (!member_access || !called) continue;
      int ln = line_at(f, pos);
      if (waived.count(ln) != 0) continue;
      fail(fname + ":" + std::to_string(ln), "reconfig-seam",
           std::string("direct composite mutation via ") + method +
               "() outside the reconfiguration seam — go through "
               "QosEndpoint::Handle::reconfigure() (or waive a deliberate "
               "boot-time install with "
               "'// cqos-lint: allow-reconfig-seam')");
    }
  }
}

void check_reconfig_seam(const fs::path& root, const fs::path& override_dir) {
  static const std::set<std::string> kSeamFiles = {
      "cactus/composite.h", "cactus/composite.cc", "cqos/reconfig.cc",
      "cqos/endpoint.cc",   "cqos/config.cc",
  };
  auto scan_tree = [&](const fs::path& dir, bool skip_seam) {
    if (!fs::exists(dir)) return;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      const fs::path& p = entry.path();
      auto ext = p.extension();
      if (ext != ".cc" && ext != ".cpp" && ext != ".h") continue;
      if (skip_seam &&
          kSeamFiles.count(fs::relative(p, dir).generic_string()) != 0) {
        continue;
      }
      check_reconfig_seam_file(p.string(), read_file(p));
    }
  };
  if (!override_dir.empty()) {
    scan_tree(override_dir, false);
    return;
  }
  scan_tree(root / "src", true);
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root, micro_dir, cfg_path, seam_dir, reconfig_seam_dir;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto need = [&](const char* flag) -> fs::path {
      if (i + 1 >= argc) {
        std::cerr << "cqos_lint: " << flag << " requires a value\n";
        std::exit(2);
      }
      return fs::path(argv[++i]);
    };
    if (a == "--root") root = need("--root");
    else if (a == "--micro") micro_dir = need("--micro");
    else if (a == "--cfg") cfg_path = need("--cfg");
    else if (a == "--seam") seam_dir = need("--seam");
    else if (a == "--reconfig-seam") reconfig_seam_dir = need("--reconfig-seam");
    else {
      std::cerr << "usage: cqos_lint --root <repo_root> [--micro <dir>] "
                   "[--cfg <file>] [--seam <dir>] [--reconfig-seam <dir>]\n";
      return 2;
    }
  }
  if (root.empty()) {
    std::cerr << "usage: cqos_lint --root <repo_root> [--micro <dir>] "
                 "[--cfg <file>] [--seam <dir>] [--reconfig-seam <dir>]\n";
    return 2;
  }
  if (micro_dir.empty()) micro_dir = root / "src" / "micro";
  if (cfg_path.empty()) cfg_path = root / "examples" / "sample.cfg";

  // Standard-vocabulary events (ev::k*) are raised by the Cactus
  // client/server runtime and the platform skeleton, so they are only
  // checked for existence in events.h; the bidirectional bind/raise check
  // applies to string-literal events local to the micro-protocol suite.
  std::set<std::string> vocab =
      parse_event_vocab(root / "src" / "cqos" / "events.h");

  Corpus corpus;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(micro_dir)) {
    const fs::path& p = entry.path();
    if (p.extension() == ".cc" || p.extension() == ".h") files.push_back(p);
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "cqos_lint: no sources found under " << micro_dir << "\n";
    return 2;
  }

  for (const fs::path& p : files) {
    FlatText f = flatten(strip_comments(read_file(p)));
    std::string fname = p.string();
    check_bind_discipline(fname, f);
    check_no_blocking_wait(fname, f);
    check_manifest_sync(fname, f);
    collect_events(fname, f, corpus);
  }

  check_events(corpus, vocab);
  check_cfg(cfg_path, parse_registry(root / "src" / "micro" / "standard.cc"));
  check_registry_manifests(root / "src" / "micro" / "standard.cc");
  check_transport_seam(root, seam_dir);
  check_reconfig_seam(root, reconfig_seam_dir);

  if (g_errors > 0) {
    std::cerr << "cqos_lint: " << g_errors << " violation(s)\n";
    return 1;
  }
  std::cout << "cqos_lint: " << files.size() << " files clean\n";
  return 0;
}
