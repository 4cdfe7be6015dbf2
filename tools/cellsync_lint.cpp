// cellsync_lint — the repo-specific invariant scanner.
//
// Generic tools prove generic properties: clang's -Wthread-safety proves
// the locking discipline, TSan catches the races a run actually
// exercises, clang-tidy flags the usual bug patterns. What none of them
// can know is *this repo's* contracts — the policies that keep the
// bit-identity guarantee honest. This scanner enforces those
// mechanically on every source file, in CI and as a ctest:
//
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
//                    #pragma GCC target / target_clones, or -march=
//                    flags anywhere. ISA-specific code either crashes
//                    baseline hosts or silently forks the bit-identity
//                    story per build host; the kernels are plain scalar
//                    loops chunked across outputs.
//
// False-positive hygiene: comments are stripped before matching, string
// and char literals are stripped for the token rules (so documentation
// and error messages may name the forbidden spellings), and a line can
// opt out explicitly with
//     // cellsync-lint: allow(<rule-id>)
// which is greppable and reviewable. The fast-math rule keeps string
// literals because pragma/flag spellings live inside quotes.
//
// Usage:
//   cellsync_lint [root]      scan <root> (default ".") — src/, tools/,
//                             tests/, bench/, examples/, CMakeLists.txt
//   cellsync_lint --self-test run the embedded seeded-violation suite
//                             (proves the scanner still fails on each
//                             violation class and honors suppressions)
//
// Exit: 0 clean, 1 violations found / self-test failure, 2 usage or I/O
// error.
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Source preprocessing
// ---------------------------------------------------------------------------

/// Blank out C++ comments and (optionally) string/char literal contents,
/// preserving every newline so line numbers survive. Handles //, /*...*/,
/// '...', "..." with escapes, and R"delim(...)delim" raw strings.
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
/// flags this lint hunts).
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
/// hugging either end)?
bool contains_token(const std::string& line, const std::string& token) {
    std::size_t pos = 0;
    while ((pos = line.find(token, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_word_char(line[pos - 1]);
        const std::size_t end = pos + token.size();
        const bool right_ok = end >= line.size() || !is_word_char(line[end]);
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

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

enum class File_kind { cpp, cmake };

struct Rule {
    std::string id;
    std::vector<std::string> tokens;
    std::string policy;       ///< one-line "use instead" message
    bool keep_strings;        ///< match inside string literals too
    bool cmake_files;         ///< also scan CMake files
    /// Returns true when the rule applies to `relative` (path relative to
    /// the scan root, '/'-separated).
    bool (*applies)(const std::string& relative);
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
         /*keep_strings=*/true, /*cmake_files=*/true, everywhere},
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
          "target_clones", "-march="},
         "no ISA-specific code: write plain loops chunked across independent "
         "outputs (numerics/matrix.cpp) and let the baseline build vectorize "
         "them; a future vector tier must first win on the end-to-end bench",
         /*keep_strings=*/false, /*cmake_files=*/true, everywhere},
    };
    return all;
}

struct Violation {
    std::string file;
    std::size_t line = 0;
    std::string rule;
    std::string token;
    std::string policy;
};

/// Scan one file's contents; `relative` decides which rules apply.
std::vector<Violation> scan_content(const std::string& relative, File_kind kind,
                                    const std::string& content) {
    std::vector<Violation> out;
    // The scanner's own source defines the forbidden spellings; linting it
    // would only test the stripper's opinion of its own token table.
    if (relative == "tools/cellsync_lint.cpp") return out;

    std::string with_strings;
    std::string without_strings;
    if (kind == File_kind::cmake) {
        with_strings = strip_cmake(content);
        without_strings = with_strings;
    } else {
        with_strings = strip_cpp(content, /*keep_strings=*/true);
        without_strings = strip_cpp(content, /*keep_strings=*/false);
    }

    for (const Rule& rule : rules()) {
        if (kind == File_kind::cmake && !rule.cmake_files) continue;
        if (!rule.applies(relative)) continue;
        const std::string& text = rule.keep_strings ? with_strings : without_strings;
        std::istringstream lines(text);
        std::istringstream raw_lines(content);
        std::string line;
        std::string raw_line;
        for (std::size_t number = 1; std::getline(lines, line); ++number) {
            std::getline(raw_lines, raw_line);
            // Suppressions live in comments, so look for them in the raw
            // line (the stripped line has already blanked them out).
            if (raw_line.find("cellsync-lint: allow(" + rule.id + ")") !=
                std::string::npos) {
                continue;
            }
            for (const std::string& token : rule.tokens) {
                if (contains_token(line, token)) {
                    out.push_back({relative, number, rule.id, token, rule.policy});
                    break;  // one report per line per rule
                }
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Repo walk
// ---------------------------------------------------------------------------

bool is_cpp_file(const std::filesystem::path& path) {
    const std::string ext = path.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".h" ||
           ext == ".hpp";
}

bool is_cmake_file(const std::filesystem::path& path) {
    return path.filename() == "CMakeLists.txt" || path.extension() == ".cmake";
}

int scan_tree(const std::string& root) {
    namespace fs = std::filesystem;
    std::vector<std::pair<std::string, File_kind>> files;
    for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
        const fs::path base = fs::path(root) / dir;
        std::error_code ec;
        for (fs::recursive_directory_iterator it(base, ec), end; !ec && it != end;
             it.increment(ec)) {
            if (!it->is_regular_file()) continue;
            const fs::path& path = it->path();
            if (is_cpp_file(path)) {
                files.emplace_back(path.string(), File_kind::cpp);
            } else if (is_cmake_file(path)) {
                files.emplace_back(path.string(), File_kind::cmake);
            }
        }
    }
    {
        const fs::path top = fs::path(root) / "CMakeLists.txt";
        std::error_code ec;
        if (fs::exists(top, ec)) files.emplace_back(top.string(), File_kind::cmake);
    }
    if (files.empty()) {
        std::fprintf(stderr, "cellsync_lint: nothing to scan under '%s'\n",
                     root.c_str());
        return 2;
    }

    std::size_t violations = 0;
    for (const auto& [file, kind] : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "cellsync_lint: cannot read '%s'\n", file.c_str());
            return 2;
        }
        std::ostringstream content;
        content << in.rdbuf();
        std::string relative = fs::path(file).lexically_relative(root).generic_string();
        for (const Violation& v : scan_content(relative, kind, content.str())) {
            std::fprintf(stderr, "%s:%zu: [%s] forbidden '%s'\n    policy: %s\n",
                         v.file.c_str(), v.line, v.rule.c_str(), v.token.c_str(),
                         v.policy.c_str());
            ++violations;
        }
    }
    if (violations > 0) {
        std::fprintf(stderr, "cellsync_lint: %zu violation(s) in %zu files scanned\n",
                     violations, files.size());
        return 1;
    }
    std::printf("cellsync_lint: %zu files clean\n", files.size());
    return 0;
}

// ---------------------------------------------------------------------------
// Self-test: seeded violations must fail, clean/suppressed code must pass
// ---------------------------------------------------------------------------

struct Self_case {
    const char* name;
    const char* relative;  ///< pretended path (rules are path-scoped)
    File_kind kind;
    const char* code;
    const char* expect_rule;  ///< nullptr = must scan clean
};

int self_test() {
    const Self_case cases[] = {
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
        {"intrinsics header flagged outside the seam", "src/numerics/matrix.cpp",
         File_kind::cpp, "#include <immintrin.h>\n", "simd"},
        {"cpu_supports flagged outside the seam", "src/core/x.cpp", File_kind::cpp,
         "if (__builtin_cpu_supports(\"avx2\")) {}\n", "simd"},
        {"pragma target flagged", "src/numerics/x.cpp", File_kind::cpp,
         "#pragma GCC target(\"avx2\")\n", "simd"},
        {"march flagged in cmake", "CMakeLists.txt", File_kind::cmake,
         "add_compile_options(-march=native)\n", "simd"},
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
         "\"-mavx2;-ffp-contract=off\")\n",
         nullptr},
    };

    std::size_t failures = 0;
    for (const Self_case& test : cases) {
        const std::vector<Violation> found =
            scan_content(test.relative, test.kind, test.code);
        bool ok;
        if (test.expect_rule == nullptr) {
            ok = found.empty();
        } else {
            ok = found.size() == 1 && found[0].rule == test.expect_rule;
        }
        if (!ok) {
            const std::string first = found.empty() ? "" : " first=" + found[0].rule;
            std::fprintf(stderr, "self-test FAILED: %s (expected %s, got %zu hits%s)\n",
                         test.name, test.expect_rule ? test.expect_rule : "clean",
                         found.size(), first.c_str());
            ++failures;
        }
    }
    if (failures > 0) {
        std::fprintf(stderr, "cellsync_lint --self-test: %zu failure(s)\n", failures);
        return 1;
    }
    std::printf("cellsync_lint --self-test: %zu cases passed\n",
                sizeof(cases) / sizeof(cases[0]));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string root = ".";
    bool run_self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            run_self_test = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: cellsync_lint [--self-test] [root]\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "cellsync_lint: unknown option '%s'\n", arg.c_str());
            return 2;
        } else {
            root = arg;
        }
    }
    return run_self_test ? self_test() : scan_tree(root);
}
