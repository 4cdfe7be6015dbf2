// cellsync_lint — the repo checker.
//
// cellsync promises the same profiles for any thread count or build host.
// Generic tools prove generic properties: clang's -Wthread-safety proves
// the locking discipline, TSan catches the races a run actually
// exercises, clang-tidy flags the usual bug patterns. What
// none of them can know is *this repo's* contracts — the policies and the
// program shape that keep the bit-identity guarantee honest. This checker
// enforces those mechanically, in CI and as ctests. It reads every C++
// and CMake file under src/, tools/, tests/, bench/ and examples/ (plus
// the top-level CMakeLists.txt) once, and runs three kinds of rule.
//
// Token rules (one table; src/-only rules say so):
//   number-parse     No std::stod/strtod/atof/stoul family outside
//                    src/io/csv.cpp (home of the from_chars policy).
//                    Those functions prefix-parse garbage ("1.5junk" ->
//                    1.5), honor the locale, and accept inf/nan — the
//                    exact bug class that silently breaks bit-identity.
//   nondeterminism   No std::rand/srand, no std::random_device, no
//                    time()-based seeding. Every random draw comes from
//                    the deterministic seeded RNG (numerics/rng.h), or
//                    results stop being reproducible bit-for-bit.
//   fast-math        No -ffast-math/-Ofast/-funsafe-math-optimizations
//                    flags and no FP_CONTRACT/float_control/reassociate
//                    pragmas, in sources or CMake files. Value-changing
//                    FP transformations void the bit-identity contract.
//   naked-mutex      No raw std::mutex/std::condition_variable (or
//                    cousins) in src/ outside core/thread_annotations.h.
//                    Library mutexes must be Annotated_mutex so clang's
//                    thread-safety analysis sees every new lock.
//   clock            No direct std::chrono::*_clock::now() / gettimeofday
//                    outside src/core/telemetry.cpp (home of the
//                    telemetry::Clock seam). One seam is one audit point
//                    for the observes-never-perturbs contract: clock
//                    reads feed counters and spans, never numerics.
//                    Duration types (std::chrono::milliseconds etc.)
//                    remain fine — only the clock *reads* are fenced.
//   simd             No raw intrinsics headers, __builtin_cpu_supports,
//                    #pragma GCC target / target_clones, or baseline-ISA
//                    flags (isa_flag_prefixes: -march=, -mavx*, ...)
//                    anywhere, CMake files included. ISA-specific code
//                    either crashes baseline hosts or silently forks the
//                    bit-identity story per build host; the kernels are
//                    plain scalar loops chunked across outputs.
//   det-unordered    (src/) no std::unordered_{map,set,...}: hashed
//                    iteration order is the canonical way accumulation or
//                    output order silently forks between hosts/libstdc++s.
//   det-reduce       (src/) no std::reduce / std::transform_reduce: both
//                    may reassociate, so FP results depend on the
//                    implementation's tree shape.
//   det-execution    (src/) no <execution> / std::execution policies:
//                    parallel algorithms order reductions
//                    nondeterministically; all parallelism goes through
//                    the deterministic Worker_pool.
//   det-volatile     (src/) no volatile: it pins loads/stores, not FP
//                    semantics; every historical use here was a misguided
//                    attempt to control rounding.
//
// Layering (src/layers.manifest is the source of truth; src/ only):
//   layer-module     every top-level directory under src/ must be declared
//                    in the manifest; a new subsystem (e.g. the serve
//                    daemon) cannot land without declaring its place.
//   layer-upward     an #include from module A into module B is legal only
//                    if B is in A's declared deps (strictly lower layer) or
//                    the target header is a declared cross-cutting seam
//                    (core/telemetry.h, core/trace.h,
//                    core/thread_annotations.h).
//   layer-cycle      the file-level include graph under src/ must be a DAG.
//   header-guard     every header under src/ uses #pragma once (one idiom,
//                    scanner-checkable, no guard-name collisions).
//
// Build flags (only with --compile-commands; the top-level CMakeLists
// always exports compile_commands.json), so flag drift is caught at
// analysis time rather than by a bit-identity test three layers down:
//   flag-stray-isa   no TU carries a baseline-ISA flag (the same
//                    isa_flag_prefixes list the simd rule uses) — one
//                    stray arch flag quietly forks codegen (and, with FMA
//                    contraction, result bits) per build host.
//   flag-std         every src/ TU compiles at one -std level; a mixed
//                    tree means "the same header" is two different programs.
//
// False-positive hygiene: comments are stripped before matching, string
// and char literals are stripped for the token rules (so documentation
// and error messages may name the forbidden spellings), and a source line
// can opt out of one rule explicitly with
//     // cellsync-lint: allow(<rule-id>)
// which is greppable and reviewable (header-guard honors it anywhere in
// the header). The fast-math rule keeps string literals because
// pragma/flag spellings live inside quotes. The flag-* rules have no
// inline escape — compile_commands.json carries no comments; the escape
// hatch for those is a reviewed CMake change.
//
// Usage:
//   cellsync_lint [--compile-commands <json>] [root]
//       scan <root> (default "."); the build-flag rules run only when a
//       compile_commands.json is supplied.
//   cellsync_lint --self-test
//       run the embedded fixtures: every rule with a violating and a
//       clean case, suppression handling, and a seeded tree scanned by
//       the same walker the tree scan uses.
//
// Exit: 0 clean, 1 findings / self-test failure, 2 usage, I/O, or
// manifest error.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Source preprocessing
// ---------------------------------------------------------------------------

/// Blank out C++ comments and (optionally) string/char literal contents,
/// preserving every newline so line numbers survive. Handles //, /*...*/,
/// '...', "..." with escapes, and R"delim(...)delim" raw strings. The
/// include scanner keeps strings (the target path *is* a string literal);
/// most token rules drop them so messages may name forbidden spellings.
// gcc 12 -O2 misattributes impossible overlap ranges to the
// raw_delimiter string assembly below (PR105329-style -Wrestrict false
// positive from inlined basic_string internals; it cannot see that
// find()'s result bounds the substring). Scoped suppression, not a code
// change — every rewrite of the assembly (operator+, assign/append,
// operator=) trips the same diagnostic.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
std::string strip_cpp(const std::string& text, bool keep_strings) {
    std::string out;
    out.reserve(text.size());
    enum class State { code, line_comment, block_comment, string, chr, raw_string };
    State state = State::code;
    std::string raw_delimiter;  // ")delim" terminator of the active raw string
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
                        out += c;  // malformed; give up on raw handling
                        break;
                    }
                    // Built by append, not operator+: gcc 12's -Wrestrict
                    // misfires on the char* + string&& insert path here
                    // (it cannot see that `open >= i + 2`).
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
                    state = State::code;
                    for (std::size_t j = 0; j < raw_delimiter.size(); ++j) {
                        out += keep_strings ? raw_delimiter[j] : ' ';
                    }
                    i += raw_delimiter.size() - 1;
                } else {
                    out += keep_strings || c == '\n' ? c : ' ';
                }
                break;
        }
    }
    return out;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Blank out CMake '#' comments (no string subtleties needed for the
/// flags this checker hunts).
std::string strip_cmake(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    bool in_comment = false;
    for (const char c : text) {
        if (c == '\n') {
            in_comment = false;
            out += '\n';
        } else if (in_comment) {
            out += ' ';
        } else if (c == '#') {
            in_comment = true;
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

bool is_word_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Does `token` occur in `line` as a whole word (no identifier characters
/// hugging either end)? A `prefix` only needs the left boundary, so
/// "-mavx" matches "-mavx2".
bool contains_token(const std::string& line, const std::string& token,
                    bool prefix = false) {
    std::size_t pos = 0;
    while ((pos = line.find(token, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_word_char(line[pos - 1]);
        const std::size_t end = pos + token.size();
        const bool right_ok = prefix || end >= line.size() || !is_word_char(line[end]);
        // A token ending in non-word chars (e.g. "time(nullptr)") never
        // needs the right boundary; one starting with '-' never the left.
        if ((left_ok || !is_word_char(token.front())) &&
            (right_ok || !is_word_char(token.back()))) {
            return true;
        }
        pos += 1;
    }
    return false;
}

/// Does `text` (a raw source line, or a whole header for header-guard)
/// carry the one inline escape hatch for `rule`?
bool allows(const std::string& text, const std::string& rule) {
    return text.find("cellsync-lint: allow(" + rule + ")") != std::string::npos;
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
    return out;
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
// Token rules
// ---------------------------------------------------------------------------

enum class File_kind { cpp, cmake };

/// The baseline-ISA policy: compiler flags that fork codegen per build
/// host. Matched as prefixes ("-mavx" covers "-mavx2") by the simd token
/// rule in sources and CMake files, and by flag-stray-isa on every TU of
/// compile_commands.json.
constexpr const char* isa_flag_prefixes[] = {"-march=", "-mtune=", "-mavx",
                                             "-msse",   "-mfma",   "-mfpmath"};

struct Rule {
    std::string id;
    std::vector<std::string> tokens;
    std::string policy;       ///< one-line "use instead" message
    bool keep_strings;        ///< match inside string literals too
    bool cmake_files;         ///< also scan CMake files
    /// Returns true when the rule applies to `relative` (path relative to
    /// the scan root, '/'-separated).
    bool (*applies)(const std::string& relative);
    std::vector<std::string> prefixes = {};  ///< tokens matched as prefixes
};

bool everywhere(const std::string&) { return true; }

bool outside_csv_policy_home(const std::string& relative) {
    return relative != "src/io/csv.cpp";
}

bool library_sources_only(const std::string& relative) {
    return relative.rfind("src/", 0) == 0;
}

bool outside_clock_seam(const std::string& relative) {
    return relative != "src/core/telemetry.cpp";
}

/// This file's own string tables spell every fast-math flag; the other
/// rules strip string literals and hold it like any other source.
bool outside_rule_tables(const std::string& relative) {
    return relative != "tools/cellsync_lint.cpp";
}

const std::vector<Rule>& rules() {
    static const std::vector<Rule> all = {
        {"number-parse",
         {"std::stod", "std::stof", "std::stold", "std::stoul", "std::stoull",
          "std::stoi", "std::stol", "std::stoll", "strtod", "strtof", "strtold",
          "atof", "sscanf"},
         "parse numbers with parse_strict_double / parse_strict_uint64 / "
         "csv_parse_field (io/csv.h): whole-string from_chars, finite only",
         /*keep_strings=*/false, /*cmake_files=*/false, outside_csv_policy_home},
        {"nondeterminism",
         {"std::rand", "srand", "std::random_device", "random_device",
          "time(nullptr)", "time(NULL)", "std::time"},
         "seed the deterministic RNG (numerics/rng.h) from explicit config; "
         "wall-clock or entropy seeding breaks bit-for-bit reproducibility",
         /*keep_strings=*/false, /*cmake_files=*/false, everywhere},
        {"fast-math",
         {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
          "-fassociative-math", "-freciprocal-math", "-ffp-contract=fast",
          "FP_CONTRACT", "float_control", "fp reassociate"},
         "value-changing FP options void the bit-identity contract; keep "
         "IEEE-strict semantics (vectorize across outputs, never within a "
         "reduction)",
         /*keep_strings=*/true, /*cmake_files=*/true, outside_rule_tables},
        {"naked-mutex",
         {"std::mutex", "std::timed_mutex", "std::recursive_mutex",
          "std::shared_mutex", "std::condition_variable", "pthread_mutex_t"},
         "declare Annotated_mutex / Annotated_condition_variable "
         "(core/thread_annotations.h) so clang's -Wthread-safety analysis "
         "covers the new lock",
         /*keep_strings=*/false, /*cmake_files=*/false, library_sources_only},
        {"clock",
         {"steady_clock::now", "system_clock::now", "high_resolution_clock::now",
          "gettimeofday"},
         "read time through telemetry::Clock / telemetry::Stopwatch "
         "(core/telemetry.h) — the single clock seam is the audit point that "
         "keeps clock reads out of numeric results",
         /*keep_strings=*/false, /*cmake_files=*/false, outside_clock_seam},
        {"simd",
         {"immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
          "arm_neon.h", "__builtin_cpu_supports", "#pragma GCC target",
          "target_clones"},
         "no ISA-specific code: write plain loops chunked across independent "
         "outputs (numerics/matrix.cpp) and let the baseline build vectorize "
         "them; a future vector tier must first win on the end-to-end bench",
         /*keep_strings=*/false, /*cmake_files=*/true, everywhere,
         {std::begin(isa_flag_prefixes), std::end(isa_flag_prefixes)}},
        {"det-unordered",
         {"std::unordered_map", "std::unordered_set", "std::unordered_multimap",
          "std::unordered_multiset"},
         "hashed iteration order forks between hosts; use std::map/std::set "
         "(or a vector plus the registration-order idiom, see Stream_session)",
         /*keep_strings=*/false, /*cmake_files=*/false, library_sources_only},
        {"det-reduce",
         {"std::reduce", "std::transform_reduce"},
         "reduce may reassociate FP; accumulate in a fixed order "
         "(std::accumulate or an explicit loop)",
         /*keep_strings=*/false, /*cmake_files=*/false, library_sources_only},
        {"det-execution",
         {"<execution>", "std::execution"},
         "parallel algorithms order reductions nondeterministically; all "
         "parallelism goes through the deterministic Worker_pool::parallel_for",
         /*keep_strings=*/false, /*cmake_files=*/false, library_sources_only},
        {"det-volatile",
         {"volatile"},
         "volatile does not control FP semantics and has no sanctioned use "
         "in this tree; express the real constraint (atomics or the "
         "telemetry seam) instead",
         /*keep_strings=*/false, /*cmake_files=*/false, library_sources_only},
    };
    return all;
}

/// The first of `rule`'s spellings that occurs in `line`, or nullptr.
const std::string* first_match(const std::string& line, const Rule& rule) {
    for (const std::string& token : rule.tokens) {
        if (contains_token(line, token)) return &token;
    }
    for (const std::string& prefix : rule.prefixes) {
        if (contains_token(line, prefix, /*prefix=*/true)) return &prefix;
    }
    return nullptr;
}

/// Run every token rule over one file's contents; `relative` decides
/// which rules apply.
std::vector<Finding> scan_content(const std::string& relative, File_kind kind,
                                  const std::string& content) {
    std::vector<Finding> out;
    const bool cmake = kind == File_kind::cmake;
    const std::vector<std::string> raw_lines = split_lines(content);
    const std::vector<std::string> with_strings =
        split_lines(cmake ? strip_cmake(content) : strip_cpp(content, true));
    const std::vector<std::string> without_strings =
        cmake ? with_strings : split_lines(strip_cpp(content, false));

    for (const Rule& rule : rules()) {
        if ((cmake && !rule.cmake_files) || !rule.applies(relative)) continue;
        const std::vector<std::string>& lines =
            rule.keep_strings ? with_strings : without_strings;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            // Suppressions live in comments, so look for them in the raw
            // line (the stripped line has already blanked them out).
            if (allows(raw_lines[i], rule.id)) continue;
            if (const std::string* token = first_match(lines[i], rule)) {
                out.push_back({relative, i + 1, rule.id,
                               "forbidden '" + *token + "' — " + rule.policy});
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Layering — src/layers.manifest against the #include graph under src/
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

struct Source_file {
    std::string path;  ///< root-relative, '/'-separated (e.g. "src/core/batch.h")
    std::string content;
    File_kind kind = File_kind::cpp;
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
        if (module.empty() || file.kind != File_kind::cpp) continue;
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
            if (!has_pragma && !allows(file.content, "header-guard")) {
                findings.push_back(
                    {file.path, 1, "header-guard",
                     "header is missing #pragma once (the tree's one guard "
                     "idiom; #ifndef guards invite name collisions and defeat "
                     "this scan)"});
            }
        }

        // Raw lines for suppression lookup.
        const std::vector<std::string> raw_lines = split_lines(file.content);

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
            if (allows(raw_line, "layer-upward")) continue;
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
// Build flags — compile_commands.json
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
    return std::any_of(std::begin(isa_flag_prefixes), std::end(isa_flag_prefixes),
                       [&arg](const char* prefix) { return arg.rfind(prefix, 0) == 0; });
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
// Tree walk
// ---------------------------------------------------------------------------

bool read_file(const std::filesystem::path& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream content;
    content << in.rdbuf();
    out = content.str();
    return true;
}

bool is_cpp_file(const std::filesystem::path& path) {
    const std::string ext = path.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".h" ||
           ext == ".hpp" || ext == ".inc";
}

bool is_cmake_file(const std::filesystem::path& path) {
    return path.filename() == "CMakeLists.txt" || path.extension() == ".cmake";
}

/// Every finding for the tree under `root`: the manifest is read, each
/// C++ and CMake file under src/, tools/, tests/, bench/ and examples/
/// (plus the top-level CMakeLists.txt) is read once and run through the
/// token and layering rules, and the flag rules run over
/// `compile_commands_path` when it is set. Returns nullopt after printing
/// the reason on an I/O or manifest error.
std::optional<std::vector<Finding>> check_tree(const std::string& root,
                                               const std::string& compile_commands_path,
                                               std::size_t& files_scanned) {
    namespace fs = std::filesystem;

    std::string manifest_text;
    const fs::path layers_path = fs::path(root) / "src" / "layers.manifest";
    if (!read_file(layers_path, manifest_text)) {
        std::fprintf(stderr, "cellsync_lint: cannot read '%s'\n",
                     layers_path.string().c_str());
        return std::nullopt;
    }
    std::vector<std::string> manifest_errors;
    const std::optional<Manifest> manifest =
        parse_manifest(manifest_text, manifest_errors);
    if (!manifest) {
        for (const std::string& error : manifest_errors) {
            std::fprintf(stderr, "cellsync_lint: src/layers.manifest: %s\n",
                         error.c_str());
        }
        return std::nullopt;
    }

    std::vector<fs::path> paths;
    std::error_code ec;
    if (fs::exists(fs::path(root) / "CMakeLists.txt", ec)) {
        paths.push_back(fs::path(root) / "CMakeLists.txt");
    }
    for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
        for (fs::recursive_directory_iterator it(fs::path(root) / dir, ec), end;
             !ec && it != end; it.increment(ec)) {
            const fs::path& path = it->path();
            if (it->is_regular_file() && (is_cpp_file(path) || is_cmake_file(path))) {
                paths.push_back(path);
            }
        }
    }
    std::vector<Source_file> files;
    for (const fs::path& path : paths) {
        Source_file file;
        file.path = path.lexically_relative(root).generic_string();
        file.kind = is_cmake_file(path) ? File_kind::cmake : File_kind::cpp;
        if (!read_file(path, file.content)) {
            std::fprintf(stderr, "cellsync_lint: cannot read '%s'\n", path.string().c_str());
            return std::nullopt;
        }
        files.push_back(std::move(file));
    }
    std::sort(files.begin(), files.end(),
              [](const Source_file& a, const Source_file& b) { return a.path < b.path; });
    files_scanned = files.size();

    std::vector<Finding> findings;
    for (const Source_file& file : files) {
        const std::vector<Finding> found = scan_content(file.path, file.kind, file.content);
        findings.insert(findings.end(), found.begin(), found.end());
    }
    const std::vector<Finding> layering = layering_pass(*manifest, files);
    findings.insert(findings.end(), layering.begin(), layering.end());

    if (!compile_commands_path.empty()) {
        std::string json;
        if (!read_file(compile_commands_path, json)) {
            std::fprintf(stderr, "cellsync_lint: cannot read '%s'\n",
                         compile_commands_path.c_str());
            return std::nullopt;
        }
        const std::string absolute_root =
            fs::absolute(fs::path(root)).lexically_normal().generic_string();
        const std::optional<std::vector<Compile_entry>> entries =
            parse_compile_commands(json, absolute_root);
        if (!entries) {
            std::fprintf(stderr, "cellsync_lint: malformed JSON in '%s'\n",
                         compile_commands_path.c_str());
            return std::nullopt;
        }
        const std::vector<Finding> flag_findings = flags_pass(*entries);
        findings.insert(findings.end(), flag_findings.begin(), flag_findings.end());
    }
    return findings;
}

int scan_tree(const std::string& root, const std::string& compile_commands_path) {
    std::size_t files_scanned = 0;
    const std::optional<std::vector<Finding>> findings =
        check_tree(root, compile_commands_path, files_scanned);
    if (!findings) return 2;
    if (!findings->empty()) {
        report(*findings);
        std::fprintf(stderr, "cellsync_lint: %zu finding(s) in %zu files scanned\n",
                     findings->size(), files_scanned);
        return 1;
    }
    const bool flags_ran = !compile_commands_path.empty();
    std::printf("cellsync_lint: %zu files clean (token rules + layering%s)\n",
                files_scanned, flags_ran ? " + build flags" : "");
    if (!flags_ran) {
        std::printf("cellsync_lint: note: no --compile-commands given; build-flag "
                    "rules skipped\n");
    }
    return 0;
}

// ---------------------------------------------------------------------------
// Self-test: seeded violations must fail, clean/suppressed code must pass
// ---------------------------------------------------------------------------

struct Token_case {
    const char* name;
    const char* relative;  ///< pretended path (rules are path-scoped)
    File_kind kind;
    const char* code;
    const char* expect_rule;  ///< nullptr = must scan clean
};

struct Layer_case {
    const char* name;
    std::vector<Source_file> files;
    const char* expect_rule;  ///< nullptr = must scan clean
};

const char* const test_manifest =
    "module low  layer 0 deps =\n"
    "module mid  layer 1 deps = low\n"
    "module high layer 2 deps = low mid\n"
    "seam high/seam.h\n";

/// A seeded tree on disk, scanned by check_tree exactly as the tree scan
/// runs it: one violation per walked place, plus one file the walk must
/// not reach. Returns true when exactly the expected (file, rule) pairs
/// come back.
bool walker_finds_every_seeded_file() {
    namespace fs = std::filesystem;
    // Unique per process, so concurrent self-tests never share the tree.
    const fs::path root = fs::temp_directory_path() /
                          ("cellsync_lint_selftest_" + std::to_string(::getpid()));
    const std::vector<std::pair<std::string, std::string>> seeded = {
        {"src/layers.manifest", "module low layer 0 deps =\n"},
        {"src/low/a.h", "#pragma once\nstd::unordered_map<int, int> m;\n"},
        {"src/low/b.inc", "volatile double sink;\n"},
        {"tools/t.cpp", "double d = std::stod(s);\n"},
        {"tests/t.cpp", "int r = std::rand();\n"},
        {"bench/b.cpp", "auto t = std::chrono::steady_clock::now();\n"},
        {"bench/CMakeLists.txt", "add_compile_options(-mavx2)\n"},
        {"examples/e.cpp", "#include <immintrin.h>\n"},
        {"CMakeLists.txt", "add_compile_options(-ffast-math)\n"},
        {"build/generated.cpp", "int r = std::rand();\n"},
    };
    const std::set<std::pair<std::string, std::string>> expected = {
        {"src/low/a.h", "det-unordered"}, {"src/low/b.inc", "det-volatile"},
        {"tools/t.cpp", "number-parse"},  {"tests/t.cpp", "nondeterminism"},
        {"bench/b.cpp", "clock"},         {"bench/CMakeLists.txt", "simd"},
        {"examples/e.cpp", "simd"},       {"CMakeLists.txt", "fast-math"},
    };
    std::error_code ec;
    fs::remove_all(root, ec);
    for (const auto& [path, content] : seeded) {
        fs::create_directories((root / path).parent_path(), ec);
        std::ofstream(root / path, std::ios::binary) << content;
    }
    std::size_t files_scanned = 0;
    const std::optional<std::vector<Finding>> findings =
        check_tree(root.string(), "", files_scanned);
    fs::remove_all(root, ec);
    std::set<std::pair<std::string, std::string>> found;
    if (findings) {
        for (const Finding& f : *findings) found.emplace(f.file, f.rule);
    }
    if (found == expected) return true;
    for (const auto& [file, rule] : found) {
        std::fprintf(stderr, "  seeded tree: found %s [%s]\n", file.c_str(), rule.c_str());
    }
    return false;
}

int self_test() {
    std::size_t cases = 0;
    std::size_t failures = 0;
    const auto check = [&](const char* name, const char* expect_rule,
                           const std::vector<Finding>& found) {
        ++cases;
        const bool pass = expect_rule == nullptr
                              ? found.empty()
                              : found.size() == 1 && found[0].rule == expect_rule;
        if (!pass) {
            const std::string first = found.empty() ? "" : " first=" + found[0].rule;
            std::fprintf(stderr,
                         "self-test FAILED: %s (expected %s, got %zu findings%s)\n",
                         name, expect_rule ? expect_rule : "clean", found.size(),
                         first.c_str());
            ++failures;
        }
    };

    // --- token rules ---
    const Token_case token_cases[] = {
        {"stod flagged", "src/io/table.cpp", File_kind::cpp,
         "double d = std::stod(text);\n", "number-parse"},
        {"strtod flagged in tools", "tools/foo.cpp", File_kind::cpp,
         "double d = strtod(s, &end);\n", "number-parse"},
        {"stoull flagged", "src/population/x.cpp", File_kind::cpp,
         "auto n = std::stoull(v);\n", "number-parse"},
        {"stod in comment ignored", "src/io/table.cpp", File_kind::cpp,
         "// std::stod would prefix-parse here\n", nullptr},
        {"stod in string ignored", "src/io/table.cpp", File_kind::cpp,
         "const char* msg = \"std::stod is banned\";\n", nullptr},
        {"stod allowed in the policy home", "src/io/csv.cpp", File_kind::cpp,
         "double d = std::stod(text);\n", nullptr},
        {"suppression honored", "src/io/table.cpp", File_kind::cpp,
         "double d = std::stod(t);  // cellsync-lint: allow(number-parse)\n",
         nullptr},
        {"rand flagged", "src/numerics/x.cpp", File_kind::cpp,
         "int r = std::rand();\n", "nondeterminism"},
        {"time seeding flagged", "tests/x.cpp", File_kind::cpp,
         "rng.seed(time(nullptr));\n", "nondeterminism"},
        {"random_device flagged", "bench/x.cpp", File_kind::cpp,
         "std::random_device rd;\n", "nondeterminism"},
        {"steady_clock read flagged", "src/numerics/x.cpp", File_kind::cpp,
         "auto t0 = std::chrono::steady_clock::now();\n", "clock"},
        {"system_clock read flagged in bench", "bench/x.cpp", File_kind::cpp,
         "auto t = std::chrono::system_clock::now();\n", "clock"},
        {"gettimeofday flagged", "tools/x.cpp", File_kind::cpp,
         "gettimeofday(&tv, nullptr);\n", "clock"},
        {"clock read allowed in the seam home", "src/core/telemetry.cpp",
         File_kind::cpp, "auto t0 = std::chrono::steady_clock::now();\n", nullptr},
        {"clock suppression honored", "src/numerics/x.cpp", File_kind::cpp,
         "auto t0 = std::chrono::steady_clock::now();  "
         "// cellsync-lint: allow(clock)\n",
         nullptr},
        {"chrono durations are fine", "tests/x.cpp", File_kind::cpp,
         "std::this_thread::sleep_for(std::chrono::milliseconds(100));\n", nullptr},
        {"clock read in comment ignored", "src/numerics/x.cpp", File_kind::cpp,
         "// steady_clock::now() would break the seam here\n", nullptr},
        {"fast-math flag flagged in cmake", "CMakeLists.txt", File_kind::cmake,
         "target_compile_options(cellsync PRIVATE -ffast-math)\n", "fast-math"},
        {"Ofast flagged", "bench/CMakeLists.txt", File_kind::cmake,
         "set(CMAKE_CXX_FLAGS \"-Ofast\")\n", "fast-math"},
        {"fp contract pragma flagged", "src/numerics/x.cpp", File_kind::cpp,
         "#pragma STDC FP_CONTRACT ON\n", "fast-math"},
        {"reassociation pragma flagged", "src/numerics/x.cpp", File_kind::cpp,
         "#pragma clang fp reassociate(on)\n", "fast-math"},
        {"commented cmake flag ignored", "CMakeLists.txt", File_kind::cmake,
         "# never add -ffast-math here\n", nullptr},
        {"naked mutex flagged in src", "src/core/x.h", File_kind::cpp,
         "std::mutex mutex_;\n", "naked-mutex"},
        {"naked condition_variable flagged", "src/core/x.h", File_kind::cpp,
         "std::condition_variable cv_;\n", "naked-mutex"},
        {"condition_variable_any is the wrapper's alias target", "src/core/x.h",
         File_kind::cpp, "std::condition_variable_any cv_;\n", nullptr},
        {"test scaffolding mutex tolerated", "tests/x.cpp", File_kind::cpp,
         "std::mutex checkpoints;\n", nullptr},
        {"annotated wrapper clean", "src/core/x.h", File_kind::cpp,
         "Annotated_mutex mutex_;\nAnnotated_condition_variable cv_;\n", nullptr},
        {"include line clean", "src/core/x.h", File_kind::cpp,
         "#include <mutex>\n#include <condition_variable>\n", nullptr},
        {"intrinsics header flagged", "src/numerics/matrix.cpp",
         File_kind::cpp, "#include <immintrin.h>\n", "simd"},
        {"cpu_supports flagged in core", "src/core/x.cpp", File_kind::cpp,
         "if (__builtin_cpu_supports(\"avx2\")) {}\n", "simd"},
        {"pragma target flagged", "src/numerics/x.cpp", File_kind::cpp,
         "#pragma GCC target(\"avx2\")\n", "simd"},
        {"march flagged in cmake", "CMakeLists.txt", File_kind::cmake,
         "add_compile_options(-march=native)\n", "simd"},
        {"mavx2 flagged in cmake", "bench/CMakeLists.txt", File_kind::cmake,
         "add_compile_options(-mavx2)\n", "simd"},
        {"cpu_supports flagged in numerics too", "src/numerics/matrix.cpp",
         File_kind::cpp, "if (__builtin_cpu_supports(\"fma\")) {}\n", "simd"},
        {"simd suppression honored", "src/core/x.cpp", File_kind::cpp,
         "check(__builtin_cpu_supports(\"avx2\"));  // cellsync-lint: allow(simd)\n",
         nullptr},
        {"intrinsics mention in comment ignored", "src/core/x.cpp", File_kind::cpp,
         "// never include immintrin.h here\n", nullptr},
        {"contract=fast flagged in cmake", "bench/CMakeLists.txt", File_kind::cmake,
         "set_source_files_properties(a.cpp PROPERTIES COMPILE_OPTIONS "
         "\"-ffp-contract=fast\")\n",
         "fast-math"},
        {"contract=off is fine", "CMakeLists.txt", File_kind::cmake,
         "set_source_files_properties(a.cpp PROPERTIES COMPILE_OPTIONS "
         "\"-ffp-contract=off\")\n",
         nullptr},
        {"unordered_map flagged", "src/core/x.cpp", File_kind::cpp,
         "std::unordered_map<int, int> m;\n", "det-unordered"},
        {"unordered_set flagged", "src/stream/x.cpp", File_kind::cpp,
         "std::unordered_set<std::string> seen;\n", "det-unordered"},
        {"ordered map clean", "src/core/x.cpp", File_kind::cpp,
         "std::map<int, int> m;\n", nullptr},
        {"unordered in comment ignored", "src/core/x.cpp", File_kind::cpp,
         "// std::unordered_map would fork iteration order\n", nullptr},
        {"unordered in string ignored", "src/core/x.cpp", File_kind::cpp,
         "const char* m = \"std::unordered_map is banned\";\n", nullptr},
        {"unordered outside src ignored", "tests/x.cpp", File_kind::cpp,
         "std::unordered_map<int, int> m;\n", nullptr},
        {"unordered suppression honored", "src/core/x.cpp", File_kind::cpp,
         "std::unordered_map<int, int> m;  "
         "// cellsync-lint: allow(det-unordered)\n",
         nullptr},
        {"std::reduce flagged", "src/numerics/x.cpp", File_kind::cpp,
         "auto s = std::reduce(v.begin(), v.end());\n", "det-reduce"},
        {"transform_reduce flagged", "src/numerics/x.cpp", File_kind::cpp,
         "auto s = std::transform_reduce(a.begin(), a.end(), b.begin(), 0.0);\n",
         "det-reduce"},
        {"accumulate clean", "src/numerics/x.cpp", File_kind::cpp,
         "auto s = std::accumulate(v.begin(), v.end(), 0.0);\n", nullptr},
        {"execution header flagged", "src/core/x.cpp", File_kind::cpp,
         "#include <execution>\n", "det-execution"},
        {"execution policy flagged", "src/core/x.cpp", File_kind::cpp,
         "std::sort(std::execution::par, v.begin(), v.end());\n",
         "det-execution"},
        {"volatile flagged", "src/numerics/x.cpp", File_kind::cpp,
         "volatile double sink = x;\n", "det-volatile"},
        {"volatile in comment ignored", "src/numerics/x.cpp", File_kind::cpp,
         "// volatile would not fix this\n", nullptr},
    };
    for (const Token_case& test : token_cases) {
        check(test.name, test.expect_rule,
              scan_content(test.relative, test.kind, test.code));
    }

    // --- layering: manifest self-consistency ---
    const std::pair<const char*, const char*> bad_manifests[] = {
        {"same-layer dep accepted by manifest",
         "module a layer 1 deps = b\nmodule b layer 1 deps =\n"},
        {"undeclared dep accepted by manifest", "module a layer 0 deps = ghost\n"},
    };
    for (const auto& [name, text] : bad_manifests) {
        ++cases;
        std::vector<std::string> errors;
        if (parse_manifest(text, errors) || errors.empty()) {
            std::fprintf(stderr, "self-test FAILED: %s\n", name);
            ++failures;
        }
    }

    // --- layering: the include graph ---
    std::vector<std::string> manifest_errors;
    const std::optional<Manifest> manifest =
        parse_manifest(test_manifest, manifest_errors);
    if (!manifest) {
        std::fprintf(stderr, "self-test FAILED: fixture manifest did not parse\n");
        return 1;
    }
    const Layer_case layer_cases[] = {
        {"clean downward include",
         {{"src/mid/a.h", "#pragma once\n#include \"low/b.h\"\n"},
          {"src/low/b.h", "#pragma once\n"}}, nullptr},
        {"upward edge flagged",
         {{"src/low/a.cpp", "#include \"mid/b.h\"\n"}, {"src/mid/b.h", "#pragma once\n"}},
         "layer-upward"},
        {"undeclared sibling edge flagged",
         {{"src/mid/a.cpp", "#include \"high/c.h\"\n"}, {"src/high/c.h", "#pragma once\n"}},
         "layer-upward"},
        {"seam reachable from the bottom",
         {{"src/low/a.cpp", "#include \"high/seam.h\"\n"},
          {"src/high/seam.h", "#pragma once\n"}}, nullptr},
        {"upward suppression honored",
         {{"src/low/a.cpp", "#include \"mid/b.h\"  // cellsync-lint: allow(layer-upward)\n"},
          {"src/mid/b.h", "#pragma once\n"}}, nullptr},
        {"include in comment ignored",
         {{"src/low/a.cpp", "// #include \"mid/b.h\"\n"}, {"src/mid/b.h", "#pragma once\n"}},
         nullptr},
        {"undeclared module flagged", {{"src/daemon/a.cpp", "int x;\n"}}, "layer-module"},
        {"missing pragma once flagged",
         {{"src/low/a.h", "#ifndef GUARD\n#define GUARD\n#endif\n"}}, "header-guard"},
        {"pragma once clean", {{"src/low/a.h", "#pragma once\nint f();\n"}}, nullptr},
        {"guard suppression honored",
         {{"src/low/a.h",
           "// cellsync-lint: allow(header-guard)\n#ifndef G\n#define G\n#endif\n"}},
         nullptr},
        {"two-file include cycle flagged",
         {{"src/low/a.h", "#pragma once\n#include \"low/b.h\"\n"},
          {"src/low/b.h", "#pragma once\n#include \"low/a.h\"\n"}}, "layer-cycle"},
        {"diamond is not a cycle",
         {{"src/low/a.h", "#pragma once\n#include \"low/b.h\"\n#include \"low/c.h\"\n"},
          {"src/low/b.h", "#pragma once\n#include \"low/d.h\"\n"},
          {"src/low/c.h", "#pragma once\n#include \"low/d.h\"\n"},
          {"src/low/d.h", "#pragma once\n"}}, nullptr},
        {"same-directory include resolves for cycles",
         {{"src/low/a.h", "#pragma once\n#include \"b.inc\"\n"},
          {"src/low/b.inc", "#include \"low/a.h\"\n"}}, "layer-cycle"},
    };
    for (const Layer_case& test : layer_cases) {
        check(test.name, test.expect_rule, layering_pass(*manifest, test.files));
    }

    // --- build flags ---
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

    // --- the tree walk ---
    ++cases;
    if (!walker_finds_every_seeded_file()) {
        std::fprintf(stderr, "self-test FAILED: seeded tree scan\n");
        ++failures;
    }

    if (failures > 0) {
        std::fprintf(stderr, "cellsync_lint --self-test: %zu of %zu cases failed\n",
                     failures, cases);
        return 1;
    }
    std::printf("cellsync_lint --self-test: %zu cases passed\n", cases);
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
                std::fprintf(stderr, "cellsync_lint: --compile-commands needs a path\n");
                return 2;
            }
            compile_commands = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: cellsync_lint [--self-test] [--compile-commands <json>] [root]\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "cellsync_lint: unknown option '%s'\n", arg.c_str());
            return 2;
        } else {
            root = arg;
        }
    }
    return run_self_test ? self_test() : scan_tree(root, compile_commands);
}
