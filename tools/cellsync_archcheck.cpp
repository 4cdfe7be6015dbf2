// cellsync_archcheck — the whole-program architecture analyzer.
//
// cellsync_lint holds single lines to repo policy; this tool holds the
// *program shape* to it. The bit-identity promise ("same results for any
// thread count, shard split, or build host") rests on
// three structural invariants that no single-file scan can see, so this
// analyzer machine-checks all three on every run, in CI and as ctests:
//
// Pass 1 — layering (src/layers.manifest is the source of truth):
//   layer-module   every top-level directory under src/ must be declared
//                  in the manifest; a new subsystem (e.g. the serve
//                  daemon) cannot land without declaring its place.
//   layer-upward   an #include from module A into module B is legal only
//                  if B is in A's declared deps (strictly lower layer) or
//                  the target header is a declared cross-cutting seam
//                  (core/telemetry.h, core/trace.h,
//                  core/thread_annotations.h).
//   layer-cycle    the file-level include graph under src/ must be a DAG.
//   header-guard   every header under src/ uses #pragma once (one idiom,
//                  scanner-checkable, no guard-name collisions).
//
// Pass 2 — determinism rule pack (extends the PR 6/9 bit-identity
// contract from tests into policy; src/ only):
//   det-unordered  no std::unordered_{map,set,multimap,multiset}: hashed
//                  iteration order is the canonical way accumulation or
//                  output order silently forks between hosts/libstdc++s.
//   det-reduce     no std::reduce / std::transform_reduce: both are
//                  permitted to reassociate, so FP results depend on the
//                  implementation's tree shape.
//   det-execution  no <execution> / std::execution policies: parallel
//                  algorithms order reductions nondeterministically; all
//                  parallelism goes through the deterministic Worker_pool.
//   det-volatile   no volatile: it pins loads/stores, not FP semantics,
//                  and every historical use here was a misguided attempt
//                  to control rounding.
//
// Pass 3 — build-flag conformance (reads compile_commands.json, which
// the top-level CMakeLists always exports): asserts the build invariants
// statically, so drift is caught at analysis time rather than by a
// bit-identity test three layers downstream:
//   flag-stray-isa no TU carries -march= / -mavx* / -msse* / -mfma — one
//                  stray arch flag quietly forks codegen (and, with FMA
//                  contraction, result bits) per build host.
//   flag-std       every src/ TU compiles at one -std level; a mixed
//                  tree means "the same header" is two different programs.
//
// False-positive hygiene mirrors cellsync_lint: comments and string
// literals are stripped before token matching, and a source line can opt
// out with
//     // cellsync-archcheck: allow(<rule-id>)
// (flag-* rules have no inline escape — compile_commands.json carries no
// comments; the escape hatch for those is a reviewed CMake change.)
//
// Usage:
//   cellsync_archcheck [--compile-commands <json>] [root]
//       scan <root> (default "."); pass 3 runs only when a
//       compile_commands.json is supplied.
//   cellsync_archcheck --self-test
//       run the embedded fixtures: every rule with a violating and a
//       clean case, plus suppression handling.
//
// Exit: 0 clean, 1 findings / self-test failure, 2 usage, I/O, or
// manifest error.
#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Text utilities (same discipline as cellsync_lint)
// ---------------------------------------------------------------------------

/// Blank out C++ comments — and, unless `keep_strings`, string/char
/// literal contents — preserving newlines so line numbers survive.
/// Handles //, /*...*/, '...', "..." with escapes, and
/// R"delim(...)delim" raw strings. The include scanner keeps strings
/// (the target path *is* a string literal); the token rules drop them so
/// messages may name forbidden spellings.
std::string strip_cpp(const std::string& text, bool keep_strings = false) {
    std::string out;
    out.reserve(text.size());
    enum class State { code, line_comment, block_comment, string, chr, raw_string };
    State state = State::code;
    std::string raw_delimiter;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
            case State::code:
                if (c == '/' && next == '/') {
                    state = State::line_comment;
                    out += "  ";
                    ++i;
                } else if (c == '/' && next == '*') {
                    state = State::block_comment;
                    out += "  ";
                    ++i;
                } else if (c == 'R' && next == '"' &&
                           (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                           text[i - 1])) &&
                                       text[i - 1] != '_'))) {
                    const std::size_t open = text.find('(', i + 2);
                    if (open == std::string::npos) {
                        out += c;
                        break;
                    }
                    raw_delimiter = ")";
                    raw_delimiter += text.substr(i + 2, open - (i + 2));
                    raw_delimiter += '"';
                    state = State::raw_string;
                    for (std::size_t j = i; j <= open; ++j) out += ' ';
                    i = open;
                } else if (c == '"') {
                    state = State::string;
                    out += keep_strings ? c : ' ';
                } else if (c == '\'') {
                    state = State::chr;
                    out += keep_strings ? c : ' ';
                } else {
                    out += c;
                }
                break;
            case State::line_comment:
                if (c == '\n') {
                    state = State::code;
                    out += '\n';
                } else {
                    out += ' ';
                }
                break;
            case State::block_comment:
                if (c == '*' && next == '/') {
                    state = State::code;
                    out += "  ";
                    ++i;
                } else {
                    out += c == '\n' ? '\n' : ' ';
                }
                break;
            case State::string:
            case State::chr: {
                const char quote = state == State::string ? '"' : '\'';
                if (c == '\\' && next != '\0') {
                    out += keep_strings ? std::string{c, next} : std::string("  ");
                    ++i;
                } else if (c == quote) {
                    state = State::code;
                    out += keep_strings ? c : ' ';
                } else {
                    out += keep_strings || c == '\n' ? c : ' ';
                }
                break;
            }
            case State::raw_string:
                if (text.compare(i, raw_delimiter.size(), raw_delimiter) == 0) {
                    for (std::size_t j = 0; j < raw_delimiter.size(); ++j) {
                        out += keep_strings ? raw_delimiter[j] : ' ';
                    }
                    i += raw_delimiter.size() - 1;
                    state = State::code;
                } else {
                    out += keep_strings || c == '\n' ? c : ' ';
                }
                break;
        }
    }
    return out;
}

bool is_word_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Whole-word occurrence of `token` in `line` (tokens whose first/last
/// character is not a word character waive that side's boundary).
bool contains_token(const std::string& line, const std::string& token) {
    std::size_t pos = 0;
    while ((pos = line.find(token, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_word_char(line[pos - 1]);
        const std::size_t end = pos + token.size();
        const bool right_ok = end >= line.size() || !is_word_char(line[end]);
        if ((left_ok || !is_word_char(token.front())) &&
            (right_ok || !is_word_char(token.back()))) {
            return true;
        }
        pos += 1;
    }
    return false;
}

/// Does the *raw* line carry the inline escape hatch for `rule`?
bool line_allows(const std::string& raw_line, const std::string& rule) {
    return raw_line.find("cellsync-archcheck: allow(" + rule + ")") !=
           std::string::npos;
}

std::vector<std::string> split_ws(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string word;
    while (in >> word) out.push_back(word);
    return out;
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
    std::string file;
    std::size_t line = 0;  ///< 0 = whole-file / whole-build finding
    std::string rule;
    std::string message;
};

void report(const std::vector<Finding>& findings) {
    for (const Finding& f : findings) {
        if (f.line > 0) {
            std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                         f.rule.c_str(), f.message.c_str());
        } else {
            std::fprintf(stderr, "%s: [%s] %s\n", f.file.c_str(), f.rule.c_str(),
                         f.message.c_str());
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

struct Module_decl {
    std::string name;
    int layer = 0;
    std::set<std::string> deps;
};

struct Manifest {
    std::map<std::string, Module_decl> modules;
    std::set<std::string> seams;  ///< src-relative header paths
};

/// Parse src/layers.manifest. Returns nullopt (with messages in `errors`)
/// on a malformed or self-inconsistent manifest — a broken manifest is an
/// exit-2 configuration error, not a finding.
std::optional<Manifest> parse_manifest(const std::string& text,
                                       std::vector<std::string>& errors) {
    Manifest manifest;
    std::istringstream in(text);
    std::string line;
    std::size_t number = 0;
    while (std::getline(in, line)) {
        ++number;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) line.resize(hash);
        const std::vector<std::string> words = split_ws(line);
        if (words.empty()) continue;
        if (words[0] == "seam") {
            if (words.size() != 2) {
                errors.push_back("line " + std::to_string(number) +
                                 ": expected 'seam <header-path>'");
                continue;
            }
            manifest.seams.insert(words[1]);
        } else if (words[0] == "module") {
            // module <name> layer <n> deps = [<name>...]
            if (words.size() < 5 || words[2] != "layer" || words[4] != "deps" ||
                (words.size() > 5 && words[5] != "=") || words.size() == 5) {
                errors.push_back("line " + std::to_string(number) +
                                 ": expected 'module <name> layer <n> deps = ...'");
                continue;
            }
            Module_decl decl;
            decl.name = words[1];
            const std::string& digits = words[3];
            const auto [ptr, ec] = std::from_chars(
                digits.data(), digits.data() + digits.size(), decl.layer);
            if (ec != std::errc() || ptr != digits.data() + digits.size()) {
                errors.push_back("line " + std::to_string(number) +
                                 ": bad layer number '" + digits + "'");
                continue;
            }
            for (std::size_t i = 6; i < words.size(); ++i) decl.deps.insert(words[i]);
            if (!manifest.modules.emplace(decl.name, decl).second) {
                errors.push_back("line " + std::to_string(number) +
                                 ": duplicate module '" + decl.name + "'");
            }
        } else {
            errors.push_back("line " + std::to_string(number) +
                             ": unknown directive '" + words[0] + "'");
        }
    }
    // Self-consistency: every dep is declared and sits strictly below.
    for (const auto& [name, decl] : manifest.modules) {
        for (const std::string& dep : decl.deps) {
            const auto it = manifest.modules.find(dep);
            if (it == manifest.modules.end()) {
                errors.push_back("module '" + name + "' depends on undeclared '" +
                                 dep + "'");
            } else if (it->second.layer >= decl.layer) {
                errors.push_back("module '" + name + "' (layer " +
                                 std::to_string(decl.layer) + ") depends on '" + dep +
                                 "' (layer " + std::to_string(it->second.layer) +
                                 "): deps must sit strictly lower");
            }
        }
    }
    if (!errors.empty()) return std::nullopt;
    return manifest;
}

// ---------------------------------------------------------------------------
// Pass 1 — layering over an (injectable) source-file set
// ---------------------------------------------------------------------------

struct Source_file {
    std::string path;  ///< repo-relative, '/'-separated (e.g. "src/core/batch.h")
    std::string content;
};

/// "src/<module>/..." -> module name; empty for anything else.
std::string module_of(const std::string& path) {
    if (path.rfind("src/", 0) != 0) return {};
    const std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos) return {};  // src/layers.manifest etc.
    return path.substr(4, slash - 4);
}

/// Extract `#include "..."` targets with their line numbers from
/// comment-stripped text.
std::vector<std::pair<std::size_t, std::string>> quoted_includes(
    const std::string& stripped) {
    std::vector<std::pair<std::size_t, std::string>> out;
    std::istringstream lines(stripped);
    std::string line;
    for (std::size_t number = 1; std::getline(lines, line); ++number) {
        std::size_t pos = line.find('#');
        if (pos == std::string::npos) continue;
        ++pos;
        while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos])))
            ++pos;
        if (line.compare(pos, 7, "include") != 0) continue;
        const std::size_t open = line.find('"', pos + 7);
        if (open == std::string::npos) continue;
        const std::size_t close = line.find('"', open + 1);
        if (close == std::string::npos) continue;
        out.emplace_back(number, line.substr(open + 1, close - open - 1));
    }
    return out;
}

std::vector<Finding> layering_pass(const Manifest& manifest,
                                   const std::vector<Source_file>& files) {
    std::vector<Finding> findings;
    std::set<std::string> known_paths;
    for (const Source_file& f : files) known_paths.insert(f.path);

    // File-level include graph (edges resolved within src/), for cycles.
    std::map<std::string, std::vector<std::string>> graph;

    for (const Source_file& file : files) {
        const std::string module = module_of(file.path);
        if (module.empty()) continue;
        // Comments stripped, strings kept: the include target is a string.
        const std::string stripped = strip_cpp(file.content, /*keep_strings=*/true);

        const auto decl_it = manifest.modules.find(module);
        if (decl_it == manifest.modules.end()) {
            findings.push_back(
                {file.path, 0, "layer-module",
                 "module 'src/" + module +
                     "/' is not declared in src/layers.manifest — every "
                     "subsystem must declare its layer and deps explicitly"});
        }

        // Guard rule: headers must use #pragma once.
        if (file.path.size() > 2 &&
            file.path.compare(file.path.size() - 2, 2, ".h") == 0) {
            bool has_pragma = false;
            std::istringstream lines(stripped);
            std::string line;
            while (std::getline(lines, line)) {
                const std::vector<std::string> words = split_ws(line);
                if (words.size() >= 2 && words[0] == "#pragma" && words[1] == "once") {
                    has_pragma = true;
                    break;
                }
            }
            if (!has_pragma && file.content.find("cellsync-archcheck: "
                                                 "allow(header-guard)") ==
                                   std::string::npos) {
                findings.push_back(
                    {file.path, 1, "header-guard",
                     "header is missing #pragma once (the tree's one guard "
                     "idiom; #ifndef guards invite name collisions and defeat "
                     "this scan)"});
            }
        }

        // Raw lines for suppression lookup.
        std::vector<std::string> raw_lines;
        {
            std::istringstream raw(file.content);
            std::string line;
            while (std::getline(raw, line)) raw_lines.push_back(line);
        }

        for (const auto& [line_number, target] : quoted_includes(stripped)) {
            // Resolve the include to a repo-relative path: quoted includes
            // are either src-relative ("core/batch.h") or same-directory.
            std::string resolved;
            if (target.find('/') != std::string::npos) {
                resolved = "src/" + target;
            } else {
                const std::size_t dir_end = file.path.find_last_of('/');
                resolved = file.path.substr(0, dir_end + 1) + target;
            }
            if (known_paths.count(resolved)) graph[file.path].push_back(resolved);

            const std::string target_module = module_of(resolved);
            if (target_module.empty() || target_module == module) continue;
            const std::string src_relative =
                resolved.rfind("src/", 0) == 0 ? resolved.substr(4) : resolved;
            if (manifest.seams.count(src_relative)) continue;
            if (decl_it == manifest.modules.end()) continue;  // already reported
            const std::string& raw_line = line_number - 1 < raw_lines.size()
                                              ? raw_lines[line_number - 1]
                                              : std::string();
            if (decl_it->second.deps.count(target_module)) continue;
            if (line_allows(raw_line, "layer-upward")) continue;
            const auto target_decl = manifest.modules.find(target_module);
            const std::string direction =
                target_decl == manifest.modules.end()
                    ? "undeclared module"
                    : (target_decl->second.layer >= decl_it->second.layer
                           ? "upward edge"
                           : "undeclared edge");
            findings.push_back(
                {file.path, line_number, "layer-upward",
                 direction + ": module '" + module + "' may not include '" +
                     target + "' — '" + target_module +
                     "' is not in its declared deps (src/layers.manifest)"});
        }
    }

    // Cycle detection: iterative DFS over the file-level graph.
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack_path;
    std::vector<Finding> cycle_findings;
    // Recursive lambda via explicit stack to stay robust on deep chains.
    struct Frame {
        std::string node;
        std::size_t next_child = 0;
    };
    for (const auto& [start, _] : graph) {
        if (color[start] != 0) continue;
        std::vector<Frame> frames{{start, 0}};
        color[start] = 1;
        stack_path.push_back(start);
        while (!frames.empty()) {
            Frame& top = frames.back();
            const auto children = graph.find(top.node);
            if (children == graph.end() ||
                top.next_child >= children->second.size()) {
                color[top.node] = 2;
                stack_path.pop_back();
                frames.pop_back();
                continue;
            }
            const std::string child = children->second[top.next_child++];
            if (color[child] == 1) {
                // Reconstruct the cycle from the grey path.
                std::string description = child;
                bool in_cycle = false;
                for (const std::string& node : stack_path) {
                    if (node == child) in_cycle = true;
                    if (in_cycle && node != child) description += " -> " + node;
                }
                description += " -> " + child;
                cycle_findings.push_back(
                    {child, 0, "layer-cycle",
                     "include cycle: " + description});
            } else if (color[child] == 0) {
                color[child] = 1;
                stack_path.push_back(child);
                frames.push_back({child, 0});
            }
        }
    }
    findings.insert(findings.end(), cycle_findings.begin(), cycle_findings.end());
    return findings;
}

// ---------------------------------------------------------------------------
// Pass 2 — determinism rule pack (src/ only)
// ---------------------------------------------------------------------------

struct Det_rule {
    std::string id;
    std::vector<std::string> tokens;
    std::string policy;
};

const std::vector<Det_rule>& det_rules() {
    static const std::vector<Det_rule> all = {
        {"det-unordered",
         {"std::unordered_map", "std::unordered_set", "std::unordered_multimap",
          "std::unordered_multiset"},
         "hashed iteration order forks between hosts; use std::map/std::set "
         "(or a vector plus the registration-order idiom, see Stream_session)"},
        {"det-reduce",
         {"std::reduce", "std::transform_reduce"},
         "reduce may reassociate FP; accumulate in a fixed order "
         "(std::accumulate or an explicit loop)"},
        {"det-execution",
         {"<execution>", "std::execution"},
         "parallel algorithms order reductions nondeterministically; all "
         "parallelism goes through the deterministic Worker_pool / Task_graph"},
        {"det-volatile",
         {"volatile"},
         "volatile does not control FP semantics and has no sanctioned use "
         "in this tree; express the real constraint (atomics or the "
         "telemetry seam) instead"},
    };
    return all;
}

std::vector<Finding> determinism_pass(const std::vector<Source_file>& files) {
    std::vector<Finding> findings;
    for (const Source_file& file : files) {
        if (file.path.rfind("src/", 0) != 0) continue;
        const std::string stripped = strip_cpp(file.content);
        std::istringstream lines(stripped);
        std::istringstream raw_lines(file.content);
        std::string line;
        std::string raw_line;
        for (std::size_t number = 1; std::getline(lines, line); ++number) {
            std::getline(raw_lines, raw_line);
            for (const Det_rule& rule : det_rules()) {
                if (line_allows(raw_line, rule.id)) continue;
                for (const std::string& token : rule.tokens) {
                    if (contains_token(line, token)) {
                        findings.push_back({file.path, number, rule.id,
                                            "forbidden '" + token +
                                                "' — " + rule.policy});
                        break;
                    }
                }
            }
        }
    }
    return findings;
}

// ---------------------------------------------------------------------------
// Pass 3 — compile_commands.json flag conformance
// ---------------------------------------------------------------------------

/// Minimal JSON reader for compile_commands.json: an array of flat
/// objects whose interesting values are strings. Nested values are
/// skipped structurally; numbers/booleans are consumed and dropped.
struct Json_reader {
    const std::string& text;
    std::size_t pos = 0;
    bool ok = true;

    explicit Json_reader(const std::string& t) : text(t) {}

    void skip_ws() {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }
    bool consume(char c) {
        skip_ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }
    std::string parse_string() {
        skip_ws();
        std::string out;
        if (pos >= text.size() || text[pos] != '"') {
            ok = false;
            return out;
        }
        ++pos;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\' && pos < text.size()) {
                const char e = text[pos++];
                switch (e) {
                    case 'n': out += '\n'; break;
                    case 't': out += '\t'; break;
                    case 'r': out += '\r'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'u':
                        // Compile commands are ASCII in practice; skip the
                        // four hex digits and emit a placeholder.
                        pos = std::min(pos + 4, text.size());
                        out += '?';
                        break;
                    default: out += e; break;
                }
            } else {
                out += c;
            }
        }
        if (pos >= text.size()) {
            ok = false;
            return out;
        }
        ++pos;  // closing quote
        return out;
    }
    /// Consume any value; record it into `out` when it is a string.
    void skip_value(std::string* out) {
        skip_ws();
        if (pos >= text.size()) {
            ok = false;
            return;
        }
        const char c = text[pos];
        if (c == '"') {
            const std::string s = parse_string();
            if (out) *out = s;
        } else if (c == '{') {
            ++pos;
            if (consume('}')) return;
            do {
                parse_string();
                if (!consume(':')) {
                    ok = false;
                    return;
                }
                skip_value(nullptr);
            } while (consume(','));
            if (!consume('}')) ok = false;
        } else if (c == '[') {
            ++pos;
            if (consume(']')) return;
            do {
                skip_value(nullptr);
            } while (consume(','));
            if (!consume(']')) ok = false;
        } else {
            // number / true / false / null
            while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
                   text[pos] != ']' &&
                   !std::isspace(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
    }
};

struct Compile_entry {
    std::string file;
    std::vector<std::string> args;
};

/// Split a shell command the way CMake wrote it: whitespace-separated,
/// honoring double/single quotes and backslash escapes.
std::vector<std::string> split_command(const std::string& command) {
    std::vector<std::string> out;
    std::string current;
    bool in_word = false;
    char quote = '\0';
    for (std::size_t i = 0; i < command.size(); ++i) {
        const char c = command[i];
        if (quote != '\0') {
            if (c == quote) {
                quote = '\0';
            } else if (c == '\\' && quote == '"' && i + 1 < command.size()) {
                current += command[++i];
            } else {
                current += c;
            }
        } else if (c == '"' || c == '\'') {
            quote = c;
            in_word = true;
        } else if (c == '\\' && i + 1 < command.size()) {
            current += command[++i];
            in_word = true;
        } else if (std::isspace(static_cast<unsigned char>(c))) {
            if (in_word) out.push_back(current);
            current.clear();
            in_word = false;
        } else {
            current += c;
            in_word = true;
        }
    }
    if (in_word) out.push_back(current);
    return out;
}

/// Parse compile_commands.json into entries with repo-relative file paths
/// (entries outside `root` — system stubs, generated TUs — keep their raw
/// path and are filtered by the path checks below).
std::optional<std::vector<Compile_entry>> parse_compile_commands(
    const std::string& json, const std::string& root) {
    Json_reader reader(json);
    std::vector<Compile_entry> entries;
    if (!reader.consume('[')) return std::nullopt;
    reader.skip_ws();
    if (reader.consume(']')) return entries;
    do {
        if (!reader.consume('{')) return std::nullopt;
        std::string file;
        std::string command;
        std::vector<std::string> arguments;
        if (!reader.consume('}')) {
            do {
                const std::string key = reader.parse_string();
                if (!reader.consume(':')) return std::nullopt;
                if (key == "file") {
                    reader.skip_value(&file);
                } else if (key == "command") {
                    reader.skip_value(&command);
                } else if (key == "arguments") {
                    // array of strings
                    if (!reader.consume('[')) return std::nullopt;
                    if (!reader.consume(']')) {
                        do {
                            std::string arg;
                            reader.skip_value(&arg);
                            arguments.push_back(arg);
                        } while (reader.consume(','));
                        if (!reader.consume(']')) return std::nullopt;
                    }
                } else {
                    reader.skip_value(nullptr);
                }
            } while (reader.consume(','));
            if (!reader.consume('}')) return std::nullopt;
        }
        if (!reader.ok) return std::nullopt;
        Compile_entry entry;
        entry.args = arguments.empty() ? split_command(command) : arguments;
        // Normalize to a repo-relative '/'-separated path when possible.
        std::filesystem::path p(file);
        if (!root.empty() && p.is_absolute()) {
            const std::filesystem::path rel =
                p.lexically_relative(std::filesystem::path(root));
            const std::string rel_str = rel.generic_string();
            if (!rel_str.empty() && rel_str.rfind("..", 0) != 0) {
                entry.file = rel_str;
            } else {
                entry.file = p.generic_string();
            }
        } else {
            entry.file = p.generic_string();
        }
        entries.push_back(std::move(entry));
    } while (reader.consume(','));
    if (!reader.consume(']')) return std::nullopt;
    return entries;
}

bool is_isa_flag(const std::string& arg) {
    return arg.rfind("-march=", 0) == 0 || arg.rfind("-mavx", 0) == 0 ||
           arg.rfind("-msse", 0) == 0 || arg == "-mfma" ||
           arg.rfind("-mfpmath", 0) == 0 || arg.rfind("-mtune=", 0) == 0;
}

std::vector<Finding> flags_pass(const std::vector<Compile_entry>& entries) {
    std::vector<Finding> findings;

    // flag-stray-isa: no arch flags on any TU.
    for (const Compile_entry& entry : entries) {
        for (const std::string& arg : entry.args) {
            if (is_isa_flag(arg)) {
                findings.push_back(
                    {entry.file, 0, "flag-stray-isa",
                     "TU carries '" + arg +
                         "' — the build targets the baseline ISA everywhere, so "
                         "one binary gives the same bits on every host"});
            }
        }
    }

    // flag-std: one -std level across src/ TUs.
    std::map<std::string, std::vector<std::string>> std_levels;
    for (const Compile_entry& entry : entries) {
        if (entry.file.rfind("src/", 0) != 0) continue;
        for (const std::string& arg : entry.args) {
            if (arg.rfind("-std=", 0) == 0) {
                std_levels[arg].push_back(entry.file);
            }
        }
    }
    if (std_levels.size() > 1) {
        std::string seen;
        for (const auto& [level, files] : std_levels) {
            if (!seen.empty()) seen += ", ";
            seen += level + " (" + std::to_string(files.size()) + " TU" +
                    (files.size() == 1 ? "" : "s") + ", e.g. " + files.front() +
                    ")";
        }
        findings.push_back(
            {"compile_commands.json", 0, "flag-std",
             "src/ TUs compile at mixed -std levels: " + seen +
                 " — one language level per tree, or 'the same header' is "
                 "two different programs"});
    }
    return findings;
}

// ---------------------------------------------------------------------------
// Tree scan driver
// ---------------------------------------------------------------------------

bool read_file(const std::filesystem::path& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream content;
    content << in.rdbuf();
    out = content.str();
    return true;
}

int scan_tree(const std::string& root, const std::string& compile_commands_path) {
    namespace fs = std::filesystem;

    // Manifest.
    std::string manifest_text;
    const fs::path manifest_path = fs::path(root) / "src" / "layers.manifest";
    if (!read_file(manifest_path, manifest_text)) {
        std::fprintf(stderr, "cellsync_archcheck: cannot read '%s'\n",
                     manifest_path.string().c_str());
        return 2;
    }
    std::vector<std::string> manifest_errors;
    const std::optional<Manifest> manifest =
        parse_manifest(manifest_text, manifest_errors);
    if (!manifest) {
        for (const std::string& error : manifest_errors) {
            std::fprintf(stderr, "cellsync_archcheck: src/layers.manifest: %s\n",
                         error.c_str());
        }
        return 2;
    }

    // Source files under src/.
    std::vector<Source_file> files;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(fs::path(root) / "src", ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext != ".h" && ext != ".cpp" && ext != ".inc") continue;
        Source_file file;
        file.path = it->path().lexically_relative(root).generic_string();
        if (!read_file(it->path(), file.content)) {
            std::fprintf(stderr, "cellsync_archcheck: cannot read '%s'\n",
                         it->path().string().c_str());
            return 2;
        }
        files.push_back(std::move(file));
    }
    if (files.empty()) {
        std::fprintf(stderr, "cellsync_archcheck: no sources under '%s/src'\n",
                     root.c_str());
        return 2;
    }
    std::sort(files.begin(), files.end(),
              [](const Source_file& a, const Source_file& b) {
                  return a.path < b.path;
              });

    std::vector<Finding> findings = layering_pass(*manifest, files);
    {
        const std::vector<Finding> det = determinism_pass(files);
        findings.insert(findings.end(), det.begin(), det.end());
    }

    bool flags_ran = false;
    if (!compile_commands_path.empty()) {
        std::string json;
        if (!read_file(compile_commands_path, json)) {
            std::fprintf(stderr, "cellsync_archcheck: cannot read '%s'\n",
                         compile_commands_path.c_str());
            return 2;
        }
        const std::string absolute_root =
            fs::absolute(fs::path(root)).lexically_normal().generic_string();
        const std::optional<std::vector<Compile_entry>> entries =
            parse_compile_commands(json, absolute_root);
        if (!entries) {
            std::fprintf(stderr, "cellsync_archcheck: malformed JSON in '%s'\n",
                         compile_commands_path.c_str());
            return 2;
        }
        const std::vector<Finding> flag_findings = flags_pass(*entries);
        findings.insert(findings.end(), flag_findings.begin(), flag_findings.end());
        flags_ran = true;
    }

    if (!findings.empty()) {
        report(findings);
        std::fprintf(stderr, "cellsync_archcheck: %zu finding(s) in %zu files\n",
                     findings.size(), files.size());
        return 1;
    }
    std::printf(
        "cellsync_archcheck: %zu files clean (layering + determinism%s)\n",
        files.size(), flags_ran ? " + flag conformance" : "");
    if (!flags_ran) {
        std::printf(
            "cellsync_archcheck: note: no --compile-commands given; flag "
            "conformance pass skipped\n");
    }
    return 0;
}

// ---------------------------------------------------------------------------
// Self-test — every rule with a violating and a clean fixture
// ---------------------------------------------------------------------------

const char* const test_manifest =
    "module low  layer 0 deps =\n"
    "module mid  layer 1 deps = low\n"
    "module high layer 2 deps = low mid\n"
    "seam high/seam.h\n";

struct Layer_case {
    const char* name;
    std::vector<Source_file> files;
    const char* expect_rule;  ///< nullptr = must scan clean
};

struct Det_case {
    const char* name;
    const char* path;
    const char* code;
    const char* expect_rule;
};

int self_test() {
    std::size_t failures = 0;
    const auto check = [&failures](const char* name, const char* expect_rule,
                                   const std::vector<Finding>& found) {
        bool pass;
        if (expect_rule == nullptr) {
            pass = found.empty();
        } else {
            pass = found.size() == 1 && found[0].rule == expect_rule;
        }
        if (!pass) {
            const std::string first = found.empty() ? "" : " first=" + found[0].rule;
            std::fprintf(stderr,
                         "self-test FAILED: %s (expected %s, got %zu findings%s)\n",
                         name, expect_rule ? expect_rule : "clean", found.size(),
                         first.c_str());
            ++failures;
        }
    };

    std::vector<std::string> manifest_errors;
    const std::optional<Manifest> manifest =
        parse_manifest(test_manifest, manifest_errors);
    if (!manifest) {
        std::fprintf(stderr, "self-test FAILED: fixture manifest did not parse\n");
        return 1;
    }

    // --- manifest self-consistency ---
    {
        std::vector<std::string> errors;
        const auto bad = parse_manifest(
            "module a layer 1 deps = b\nmodule b layer 1 deps =\n", errors);
        if (bad || errors.empty()) {
            std::fprintf(stderr,
                         "self-test FAILED: same-layer dep accepted by manifest\n");
            ++failures;
        }
    }
    {
        std::vector<std::string> errors;
        const auto bad = parse_manifest("module a layer 0 deps = ghost\n", errors);
        if (bad || errors.empty()) {
            std::fprintf(stderr,
                         "self-test FAILED: undeclared dep accepted by manifest\n");
            ++failures;
        }
    }

    // --- pass 1: layering ---
    const Layer_case layer_cases[] = {
        {"clean downward include",
         {{"src/mid/a.h", "#pragma once\n#include \"low/b.h\"\n"},
          {"src/low/b.h", "#pragma once\n"}},
         nullptr},
        {"upward edge flagged",
         {{"src/low/a.cpp", "#include \"mid/b.h\"\n"},
          {"src/mid/b.h", "#pragma once\n"}},
         "layer-upward"},
        {"undeclared sibling edge flagged",
         {{"src/mid/a.cpp", "#include \"high/c.h\"\n"},
          {"src/high/c.h", "#pragma once\n"}},
         "layer-upward"},
        {"seam reachable from the bottom",
         {{"src/low/a.cpp", "#include \"high/seam.h\"\n"},
          {"src/high/seam.h", "#pragma once\n"}},
         nullptr},
        {"upward suppression honored",
         {{"src/low/a.cpp",
           "#include \"mid/b.h\"  // cellsync-archcheck: allow(layer-upward)\n"},
          {"src/mid/b.h", "#pragma once\n"}},
         nullptr},
        {"include in comment ignored",
         {{"src/low/a.cpp", "// #include \"mid/b.h\"\n"},
          {"src/mid/b.h", "#pragma once\n"}},
         nullptr},
        {"undeclared module flagged",
         {{"src/daemon/a.cpp", "int x;\n"}},
         "layer-module"},
        {"missing pragma once flagged",
         {{"src/low/a.h", "#ifndef GUARD\n#define GUARD\n#endif\n"}},
         "header-guard"},
        {"pragma once clean",
         {{"src/low/a.h", "#pragma once\nint f();\n"}},
         nullptr},
        {"guard suppression honored",
         {{"src/low/a.h",
           "// cellsync-archcheck: allow(header-guard)\n#ifndef G\n#define G\n"
           "#endif\n"}},
         nullptr},
        {"two-file include cycle flagged",
         {{"src/low/a.h", "#pragma once\n#include \"low/b.h\"\n"},
          {"src/low/b.h", "#pragma once\n#include \"low/a.h\"\n"}},
         "layer-cycle"},
        {"diamond is not a cycle",
         {{"src/low/a.h", "#pragma once\n#include \"low/b.h\"\n"
                          "#include \"low/c.h\"\n"},
          {"src/low/b.h", "#pragma once\n#include \"low/d.h\"\n"},
          {"src/low/c.h", "#pragma once\n#include \"low/d.h\"\n"},
          {"src/low/d.h", "#pragma once\n"}},
         nullptr},
        {"same-directory include resolves for cycles",
         {{"src/low/a.h", "#pragma once\n#include \"b.inc\"\n"},
          {"src/low/b.inc", "#include \"low/a.h\"\n"}},
         "layer-cycle"},
    };
    for (const Layer_case& test : layer_cases) {
        check(test.name, test.expect_rule, layering_pass(*manifest, test.files));
    }

    // --- pass 2: determinism ---
    const Det_case det_cases[] = {
        {"unordered_map flagged", "src/core/x.cpp",
         "std::unordered_map<int, int> m;\n", "det-unordered"},
        {"unordered_set flagged", "src/stream/x.cpp",
         "std::unordered_set<std::string> seen;\n", "det-unordered"},
        {"ordered map clean", "src/core/x.cpp", "std::map<int, int> m;\n",
         nullptr},
        {"unordered in comment ignored", "src/core/x.cpp",
         "// std::unordered_map would fork iteration order\n", nullptr},
        {"unordered in string ignored", "src/core/x.cpp",
         "const char* m = \"std::unordered_map is banned\";\n", nullptr},
        {"unordered outside src ignored", "tests/x.cpp",
         "std::unordered_map<int, int> m;\n", nullptr},
        {"unordered suppression honored", "src/core/x.cpp",
         "std::unordered_map<int, int> m;  "
         "// cellsync-archcheck: allow(det-unordered)\n",
         nullptr},
        {"std::reduce flagged", "src/numerics/x.cpp",
         "auto s = std::reduce(v.begin(), v.end());\n", "det-reduce"},
        {"transform_reduce flagged", "src/numerics/x.cpp",
         "auto s = std::transform_reduce(a.begin(), a.end(), b.begin(), 0.0);\n",
         "det-reduce"},
        {"accumulate clean", "src/numerics/x.cpp",
         "auto s = std::accumulate(v.begin(), v.end(), 0.0);\n", nullptr},
        {"execution header flagged", "src/core/x.cpp", "#include <execution>\n",
         "det-execution"},
        {"execution policy flagged", "src/core/x.cpp",
         "std::sort(std::execution::par, v.begin(), v.end());\n",
         "det-execution"},
        {"volatile flagged", "src/numerics/x.cpp", "volatile double sink = x;\n",
         "det-volatile"},
        {"volatile in comment ignored", "src/numerics/x.cpp",
         "// volatile would not fix this\n", nullptr},
    };
    for (const Det_case& test : det_cases) {
        check(test.name, test.expect_rule,
              determinism_pass({{test.path, test.code}}));
    }

    // --- pass 3: flag conformance ---
    const auto entry = [](const char* file, const char* flags) {
        return std::string("{\"directory\":\"/b\",\"command\":\"g++ ") + flags +
               " -c " + file + "\",\"file\":\"" + file + "\"}";
    };
    const std::string plain = entry("src/core/batch.cpp", "-std=gnu++20");

    const auto run_flags = [&](const std::string& json) {
        const auto entries = parse_compile_commands(json, "");
        if (!entries) {
            return std::vector<Finding>{
                {"<fixture>", 0, "json-parse", "fixture JSON did not parse"}};
        }
        return flags_pass(*entries);
    };
    check("baseline flags clean", nullptr, run_flags("[" + plain + "]"));
    check("stray -march flagged", "flag-stray-isa",
          run_flags("[" + entry("src/core/batch.cpp",
                                "-std=gnu++20 -march=native") +
                    "]"));
    check("stray -mavx2 on tests flagged", "flag-stray-isa",
          run_flags("[" + entry("tests/batch_test.cpp", "-std=gnu++20 -mavx2") +
                    "]"));
    check("-mfma on a numerics TU flagged", "flag-stray-isa",
          run_flags("[" + entry("src/numerics/matrix.cpp", "-std=gnu++20 -mfma") +
                    "]"));
    check("mixed -std flagged", "flag-std",
          run_flags("[" + entry("src/core/batch.cpp", "-std=gnu++20") + "," +
                    entry("src/core/design.cpp", "-std=gnu++17") + "]"));
    check("uniform -std clean", nullptr,
          run_flags("[" + entry("src/core/batch.cpp", "-std=gnu++20") + "," +
                    entry("src/core/design.cpp", "-std=gnu++20") + "]"));
    {
        // "arguments" array form (clang tooling emits this) parses too.
        const std::string json =
            "[{\"directory\":\"/b\",\"arguments\":[\"g++\",\"-std=gnu++20\","
            "\"-march=haswell\",\"-c\",\"src/core/batch.cpp\"],"
            "\"file\":\"src/core/batch.cpp\"}]";
        check("arguments-array entry parsed", "flag-stray-isa", run_flags(json));
    }

    if (failures > 0) {
        std::fprintf(stderr, "cellsync_archcheck --self-test: %zu failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("cellsync_archcheck --self-test: all cases passed\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string root = ".";
    std::string compile_commands;
    bool run_self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            run_self_test = true;
        } else if (arg == "--compile-commands") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "cellsync_archcheck: --compile-commands needs a path\n");
                return 2;
            }
            compile_commands = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: cellsync_archcheck [--self-test] "
                "[--compile-commands <json>] [root]\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "cellsync_archcheck: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        } else {
            root = arg;
        }
    }
    return run_self_test ? self_test() : scan_tree(root, compile_commands);
}
