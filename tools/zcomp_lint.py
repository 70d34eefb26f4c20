#!/usr/bin/env python3
"""Project-specific static checks for the zcomp tree.

Rules
-----
cmake-registration  every .cc/.cpp is referenced by a CMakeLists.txt
                    (same directory or an ancestor), so sources cannot
                    silently drop out of the build.
header-guard        every .hh uses either #pragma once or a
                    well-formed #ifndef/#define guard whose macro is
                    derived from the path (ZCOMP_<DIR>_<FILE>_HH).
using-namespace     no `using namespace` at header scope; it leaks
                    into every includer.
raw-new             no raw `new` / `delete` outside explicitly
                    annotated ownership-handoff sites; everything else
                    uses containers or smart pointers.
rng                 no rand()/srand()/std::mt19937/... - all
                    randomness flows through common/rng.hh so studies
                    stay reproducible and seedable.
catch-swallow       no `catch (...)` whose body neither rethrows,
                    captures std::current_exception, nor logs - silent
                    swallows hide real faults from the fault-injection
                    and retry machinery.
simd-isolation      no direct <immintrin.h>/<x86intrin.h> include
                    outside src/common/simd.cc - everything else goes
                    through the runtime-dispatched common/simd.hh API
                    so the rest of the tree stays baseline-ISA and the
                    scalar/SIMD differential tests cover every vector
                    code path.
raw-mutex           no std::mutex / std::lock_guard / std::
                    condition_variable etc. outside
                    src/common/annotate.hh - all locking goes through
                    the capability-annotated zcomp::Mutex/LockGuard/
                    CondVar wrappers so clang's -Wthread-safety can
                    prove the lock discipline of every critical
                    section.
unordered-iteration no range-for / .begin() iteration over
                    std::unordered_{map,set} in src/ or bench/ - the
                    hash order is implementation- and run-dependent,
                    so any iteration feeding stats, reports, metrics,
                    or traces silently breaks the byte-identical
                    output contract. Probing (find/count/at/emplace)
                    is fine; iterate an ordered mirror or switch the
                    container.
wall-clock          reads of wall/monotonic clocks (chrono clocks'
                    now(), time(), gettimeofday, ...) confined to the
                    host-domain allowlist (bench/tools/tests harness
                    code and the report/metrics/trace host stamps).
                    Simulated time comes from the event queue;
                    sim-domain code reading a host clock is
                    nondeterminism by construction.
raw-rand            no C-library randomness (drand48 family, random(),
                    rand_r, arc4random*, getentropy) anywhere outside
                    common/rng.hh; complements the `rng` rule (which
                    bans rand()/std:: engines) so every random draw is
                    seeded and reproducible.
process-isolation   no raw process primitives (fork/exec*/kill/
                    waitpid/popen/system/...) outside
                    src/common/subprocess.{hh,cc} - all child
                    processes go through the Subprocess wrapper so
                    every child is reaped, deadline-bounded, and
                    status-decoded; stray fork/kill calls are how
                    zombies and orphaned grandchildren happen.
                    Member calls (p.kill(), proc->kill()) are fine.

A finding on line N is suppressed by a comment
    // zcomp-lint: allow(<rule>)
on line N or N-1.

Usage:
    tools/zcomp_lint.py [--root DIR]     lint the tree (exit 1 on findings)
    tools/zcomp_lint.py --self-test      run the built-in fixture tests
    tools/zcomp_lint.py --github         also emit GitHub workflow
                                         ::error annotations (auto when
                                         GITHUB_ACTIONS is set)
"""

import argparse
import os
import re
import sys
import tempfile

SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTS = (".cc", ".cpp")
HEADER_EXTS = (".hh",)

SUPPRESS_RE = re.compile(r"zcomp-lint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, rule, path, line, message, col=0):
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col          # 1-based; 0 = whole line
        self.message = message

    def __str__(self):
        if self.col:
            return "%s:%d:%d: [%s] %s" % (self.path, self.line,
                                          self.col, self.rule,
                                          self.message)
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)

    def github(self):
        """GitHub workflow-command annotation (shows inline in PRs)."""
        loc = "file=%s,line=%d" % (self.path, self.line)
        if self.col:
            loc += ",col=%d" % self.col
        msg = self.message.replace("%", "%25").replace("\n", "%0A")
        return "::error %s,title=zcomp-lint(%s)::%s" % (
            loc, self.rule, msg)


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def suppressed_lines(lines, rule):
    """1-based line numbers where `rule` findings are allowed."""
    out = set()
    for i, line in enumerate(lines, start=1):
        for m in SUPPRESS_RE.finditer(line):
            if m.group(1) == rule:
                out.add(i)
                out.add(i + 1)
    return out


def strip_comments_and_strings(lines):
    """Blank out comments and string/char literals, keeping line
    structure so findings still point at the right line."""
    text = "\n".join(lines)
    out = []
    i = 0
    n = len(text)
    state = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # inside a literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out).splitlines()


def iter_files(root, exts):
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d != "build"]
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


# ------------------------------------------------------------- rules


def check_cmake_registration(root, findings):
    for path in iter_files(root, SOURCE_EXTS):
        name = os.path.basename(path)
        stem = os.path.splitext(name)[0]
        pat = re.compile(r"\b%s\b" % re.escape(stem))
        registered = False
        d = os.path.dirname(path)
        while True:
            cml = os.path.join(d, "CMakeLists.txt")
            if os.path.isfile(cml):
                if pat.search("\n".join(read_lines(cml))):
                    registered = True
                    break
            if os.path.samefile(d, root):
                break
            d = os.path.dirname(d)
        if not registered:
            findings.append(Finding(
                "cmake-registration", relpath(root, path), 1,
                "%s is not referenced by any CMakeLists.txt" % name))


def guard_macro_for(root, path):
    rel = relpath(root, path)
    if rel.startswith("src/"):
        rel = rel[len("src/"):]
    macro = re.sub(r"[^A-Za-z0-9]", "_", rel[:-len(".hh")]).upper()
    return "ZCOMP_%s_HH" % macro


def check_header_guard(root, findings):
    for path in iter_files(root, HEADER_EXTS):
        lines = read_lines(path)
        text = "\n".join(lines)
        if re.search(r"^\s*#\s*pragma\s+once\b", text, re.M):
            continue
        want = guard_macro_for(root, path)
        m = re.search(r"^\s*#\s*ifndef\s+(\w+)", text, re.M)
        rel = relpath(root, path)
        if not m:
            findings.append(Finding(
                "header-guard", rel, 1,
                "no #pragma once or #ifndef include guard"))
            continue
        got = m.group(1)
        lineno = text[:m.start()].count("\n") + 1
        if got != want:
            findings.append(Finding(
                "header-guard", rel, lineno,
                "guard %s does not match path (want %s)" % (got, want)))
        elif not re.search(r"^\s*#\s*define\s+%s\b" % re.escape(got),
                           text, re.M):
            findings.append(Finding(
                "header-guard", rel, lineno,
                "guard %s has no matching #define" % got))


def check_using_namespace(root, findings):
    for path in iter_files(root, HEADER_EXTS):
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "using-namespace")
        for i, line in enumerate(strip_comments_and_strings(lines),
                                 start=1):
            m = re.search(r"\busing\s+namespace\b", line)
            if m and i not in allowed:
                findings.append(Finding(
                    "using-namespace", relpath(root, path), i,
                    "using namespace in a header leaks into includers",
                    m.start() + 1))


NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"(?<![\w.=])\bdelete\b(?!\s*[;,)\]]*\s*$|\s*\[)")


def check_raw_new(root, findings):
    for path in iter_files(root, SOURCE_EXTS + HEADER_EXTS):
        if not relpath(root, path).startswith("src/"):
            continue        # tests/benches may allocate as they like
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "raw-new")
        for i, line in enumerate(strip_comments_and_strings(lines),
                                 start=1):
            if i in allowed:
                continue
            # `= delete` / `= delete;` declarations are fine.
            code = re.sub(r"=\s*delete\b", "", line)
            m = NEW_RE.search(code)
            if m:
                findings.append(Finding(
                    "raw-new", relpath(root, path), i,
                    "raw new; use containers/smart pointers or "
                    "annotate the ownership handoff", m.start() + 1))
            else:
                m = re.search(r"\bdelete\b", code)
                if m:
                    findings.append(Finding(
                        "raw-new", relpath(root, path), i,
                        "raw delete; use containers/smart pointers "
                        "or annotate the ownership handoff",
                        m.start() + 1))


RNG_RE = re.compile(
    r"\b(s?rand)\s*\(|\bstd\s*::\s*(mt19937(_64)?|minstd_rand0?|"
    r"default_random_engine|random_device)\b")


def check_rng(root, findings):
    for path in iter_files(root, SOURCE_EXTS + HEADER_EXTS):
        rel = relpath(root, path)
        if rel.startswith("src/common/rng."):
            continue        # the sanctioned RNG implementation
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "rng")
        for i, line in enumerate(strip_comments_and_strings(lines),
                                 start=1):
            m = RNG_RE.search(line)
            if m and i not in allowed:
                findings.append(Finding(
                    "rng", rel, i,
                    "unseeded/ad-hoc RNG; use common/rng.hh so runs "
                    "stay reproducible", m.start() + 1))


CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
# A catch-all body is fine if it rethrows, keeps the exception, or at
# least reports it somewhere a human or the retry loop can see.
CATCH_EVIDENCE_RE = re.compile(
    r"\b(throw|current_exception|rethrow_exception|abort|exit|"
    r"warn|inform|fatal|panic|fprintf|printf|cerr|clog|log)\b")


def check_catch_swallow(root, findings):
    for path in iter_files(root, SOURCE_EXTS + HEADER_EXTS):
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "catch-swallow")
        text = "\n".join(strip_comments_and_strings(lines))
        for m in CATCH_ALL_RE.finditer(text):
            lineno = text[:m.start()].count("\n") + 1
            if lineno in allowed:
                continue
            open_brace = text.find("{", m.end())
            if open_brace < 0:
                continue
            depth = 0
            end = -1
            for j in range(open_brace, len(text)):
                if text[j] == "{":
                    depth += 1
                elif text[j] == "}":
                    depth -= 1
                    if depth == 0:
                        end = j
                        break
            body = text[open_brace + 1:end] if end >= 0 \
                else text[open_brace + 1:]
            if not CATCH_EVIDENCE_RE.search(body):
                col = m.start() - text.rfind("\n", 0, m.start())
                findings.append(Finding(
                    "catch-swallow", relpath(root, path), lineno,
                    "catch (...) swallows the exception silently; "
                    "rethrow, keep current_exception, or log it",
                    col))


INTRIN_RE = re.compile(
    r"^\s*#\s*include\s*[<\"]\s*(immintrin|x86intrin|xmmintrin|"
    r"emmintrin|pmmintrin|tmmintrin|smmintrin|nmmintrin|wmmintrin|"
    r"avxintrin|avx2intrin|avx512\w*intrin|arm_neon)\s*\.h\s*[>\"]")
SIMD_HOME = "src/common/simd.cc"


def check_simd_isolation(root, findings):
    for path in iter_files(root, SOURCE_EXTS + HEADER_EXTS):
        rel = relpath(root, path)
        if rel == SIMD_HOME:
            continue        # the one sanctioned home for intrinsics
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "simd-isolation")
        for i, line in enumerate(strip_comments_and_strings(lines),
                                 start=1):
            m = INTRIN_RE.search(line)
            if m and i not in allowed:
                findings.append(Finding(
                    "simd-isolation", rel, i,
                    "vector intrinsics header outside %s; use the "
                    "dispatched common/simd.hh API" % SIMD_HOME,
                    m.start() + 1))


MUTEX_HOME = "src/common/annotate.hh"
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b")


def check_raw_mutex(root, findings):
    for path in iter_files(root, SOURCE_EXTS + HEADER_EXTS):
        rel = relpath(root, path)
        if rel == MUTEX_HOME:
            continue    # the annotated wrappers' own implementation
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "raw-mutex")
        for i, line in enumerate(strip_comments_and_strings(lines),
                                 start=1):
            m = RAW_MUTEX_RE.search(line)
            if m and i not in allowed:
                findings.append(Finding(
                    "raw-mutex", rel, i,
                    "std::%s outside %s; use zcomp::Mutex/LockGuard/"
                    "CondVar so -Wthread-safety covers the critical "
                    "section" % (m.group(1), MUTEX_HOME),
                    m.start() + 1))


# Host-domain code that is allowed to read wall clocks: the bench /
# tools / tests harness layer, and the host-timestamp fields of the
# telemetry sinks (report wallMillis, metrics hostMs, trace-span
# timestamps). None of these feed the deterministic study stdout.
WALL_CLOCK_ALLOWED_PREFIXES = (
    "bench/", "tools/", "tests/", "examples/",
    "src/common/metrics.", "src/common/report.",
    "src/common/trace_writer.", "src/common/result_cache.",
    # Process supervision is host-domain by nature: grace windows,
    # hard deadlines, and heartbeat ages are wall-clock quantities.
    "src/common/subprocess.", "src/common/sweep_supervisor.",
)
WALL_CLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*"
    r"(?:system_clock|steady_clock|high_resolution_clock)\b|"
    r"\b(?:system_clock|steady_clock|high_resolution_clock)"
    r"\s*::\s*now\b|"
    # time() always takes an argument, so requiring one skips
    # declarations/calls of simulated-time accessors like
    # `double time() const`.
    r"(?<![\w.>:])(?:std\s*::\s*)?time\s*\(\s*"
    r"(?:NULL\b|nullptr\b|0\b|&)|"
    r"\b(?:gettimeofday|clock_gettime|timespec_get|ftime)\s*\(")


def check_wall_clock(root, findings):
    for path in iter_files(root, SOURCE_EXTS + HEADER_EXTS):
        rel = relpath(root, path)
        if rel.startswith(WALL_CLOCK_ALLOWED_PREFIXES):
            continue
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "wall-clock")
        for i, line in enumerate(strip_comments_and_strings(lines),
                                 start=1):
            m = WALL_CLOCK_RE.search(line)
            if m and i not in allowed:
                findings.append(Finding(
                    "wall-clock", rel, i,
                    "wall-clock read in sim-domain code; simulated "
                    "time comes from the event queue (host stamps "
                    "belong in the allowlisted telemetry sinks)",
                    m.start() + 1))


RNG_HOME_PREFIX = "src/common/rng."
RAW_RAND_RE = re.compile(
    r"(?<![\w.:>])(?:drand48|erand48|lrand48|nrand48|mrand48|"
    r"jrand48|srand48|seed48|lcong48|rand_r|random|srandom|"
    r"initstate|arc4random(?:_buf|_uniform)?|getentropy)\s*\(")


def check_raw_rand(root, findings):
    for path in iter_files(root, SOURCE_EXTS + HEADER_EXTS):
        rel = relpath(root, path)
        if rel.startswith(RNG_HOME_PREFIX):
            continue    # the sanctioned RNG implementation
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "raw-rand")
        for i, line in enumerate(strip_comments_and_strings(lines),
                                 start=1):
            m = RAW_RAND_RE.search(line)
            if m and i not in allowed:
                findings.append(Finding(
                    "raw-rand", rel, i,
                    "C-library randomness; draw from common/rng.hh "
                    "so every sequence is seeded and reproducible",
                    m.start() + 1))


UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")


def unordered_decl_names(text):
    """Names declared (variable, member, parameter) with an
    unordered-container type, found by bracket-matching the template
    argument list and reading the declarator(s) after it."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(text):
        depth = 1
        j = m.end()
        while j < len(text) and depth:
            if text[j] == "<":
                depth += 1
            elif text[j] == ">":
                depth -= 1
            j += 1
        # Declarators up to the statement end: `x;`, `x = ...`,
        # `x, y;`, `&x)`, `x{...}`. A '(' right after an identifier
        # is a function returning the container - not a name whose
        # iteration we could see anyway.
        tail = text[j:]
        end = len(tail)
        for stop in ";={(":
            k = tail.find(stop)
            if 0 <= k < end:
                end = k
        for dm in re.finditer(r"[A-Za-z_]\w*", tail[:end]):
            if dm.group(0) not in ("const", "constexpr", "static",
                                   "mutable", "inline"):
                names.add(dm.group(0))
    return names


def check_unordered_iteration(root, findings):
    """Iterating an unordered container exposes its hash order, which
    varies across libraries and runs; in src/ and bench/ that order
    must never reach stats, reports, metrics, traces, or stdout.
    Lookup-only use (find/count/at/emplace) is fine."""
    for path in iter_files(root, SOURCE_EXTS + HEADER_EXTS):
        rel = relpath(root, path)
        if not rel.startswith(("src/", "bench/")):
            continue
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "unordered-iteration")
        stripped = strip_comments_and_strings(lines)
        text = "\n".join(stripped)
        names = unordered_decl_names(text)
        if not names:
            continue
        pat = "|".join(re.escape(n) for n in sorted(names))
        iter_re = re.compile(
            # range-for whose range expression is a tracked name...
            r"for\s*\([^;()]*:\s*&?\s*(?:%s)\s*\)|"
            # ...or an explicit iterator walk off a tracked name.
            r"\b(?:%s)\s*\.\s*c?r?begin\s*\(" % (pat, pat))
        for m in iter_re.finditer(text):
            lineno = text[:m.start()].count("\n") + 1
            if lineno in allowed:
                continue
            col = m.start() - text.rfind("\n", 0, m.start())
            findings.append(Finding(
                "unordered-iteration", rel, lineno,
                "iteration over an unordered container leaks hash "
                "order into sim-domain code; use an ordered "
                "container or probe with find()/at() only", col))


# The one sanctioned home for raw process plumbing: the Subprocess
# wrapper's own header and implementation.
SUBPROCESS_HOME_PREFIX = "src/common/subprocess."
RAW_PROCESS_RE = re.compile(
    # Either a globally-qualified call (::kill) or a plain call that
    # is not a member access (p.kill() / proc->kill() are the
    # sanctioned wrapper API, not a raw primitive).
    r"(?:(?<=::)|(?<![\w.:>]))"
    r"(vfork|fork|execvpe|execvp|execve|execv|execlp|execle|execl|"
    r"posix_spawnp|posix_spawn|killpg|kill|waitpid|wait4|wait3|"
    r"popen|system)\s*\(")


def check_process_isolation(root, findings):
    """A raw fork/exec/kill/waitpid anywhere else bypasses the
    Subprocess wrapper's guarantees (O_CLOEXEC pipes, non-blocking
    reads, SIGTERM->SIGKILL escalation, guaranteed reap) and is how
    zombies and orphaned grandchildren get minted."""
    for path in iter_files(root, SOURCE_EXTS + HEADER_EXTS):
        rel = relpath(root, path)
        if rel.startswith(SUBPROCESS_HOME_PREFIX):
            continue
        lines = read_lines(path)
        allowed = suppressed_lines(lines, "process-isolation")
        for i, line in enumerate(strip_comments_and_strings(lines),
                                 start=1):
            m = RAW_PROCESS_RE.search(line)
            if m and i not in allowed:
                findings.append(Finding(
                    "process-isolation", rel, i,
                    "raw %s(); spawn/signal/reap through "
                    "common/subprocess.hh so every child is reaped, "
                    "deadline-bounded and status-decoded"
                    % m.group(1), m.start() + 1))


ALL_RULES = [
    check_cmake_registration,
    check_header_guard,
    check_using_namespace,
    check_raw_new,
    check_rng,
    check_catch_swallow,
    check_simd_isolation,
    check_raw_mutex,
    check_wall_clock,
    check_raw_rand,
    check_unordered_iteration,
    check_process_isolation,
]


def run_lint(root):
    findings = []
    for rule in ALL_RULES:
        rule(root, findings)
    return findings


# --------------------------------------------------------- self-test


def write(path, content):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def self_test():
    """Lint a fixture tree seeded with one violation per rule and a
    clean file; every rule must fire exactly where expected."""
    with tempfile.TemporaryDirectory() as root:
        write(os.path.join(root, "src", "CMakeLists.txt"),
              "add_library(x STATIC clean.cc raw_new.cc\n"
              "    bad_rng.cc annotated.cc catch_swallow.cc\n"
              "    stray_intrin.cc common/simd.cc\n"
              "    raw_mutex.cc wall_clock.cc raw_rand.cc\n"
              "    unordered_iter.cc proc_raw.cc common/subprocess.cc)\n")
        write(os.path.join(root, "bench", "CMakeLists.txt"),
              "add_executable(timer timer.cc)\n")
        write(os.path.join(root, "src", "clean.cc"),
              '#include "clean.hh"\n'
              "// new Widget in a comment is fine\n"
              'const char *s = "no new Widget here either";\n')
        write(os.path.join(root, "src", "clean.hh"),
              "#ifndef ZCOMP_CLEAN_HH\n#define ZCOMP_CLEAN_HH\n"
              "class C { C(const C &) = delete; };\n"
              "#endif\n")
        write(os.path.join(root, "src", "orphan.cc"), "int x;\n")
        write(os.path.join(root, "src", "bad_guard.hh"),
              "#ifndef WRONG_NAME_HH\n#define WRONG_NAME_HH\n#endif\n")
        write(os.path.join(root, "src", "no_guard.hh"), "int y;\n")
        write(os.path.join(root, "src", "leaky.hh"),
              "#pragma once\nusing namespace std;\n")
        write(os.path.join(root, "src", "raw_new.cc"),
              "int *p = new int(3);\n"
              "void g(int *q) { delete q; }\n")
        write(os.path.join(root, "src", "annotated.cc"),
              "// zcomp-lint: allow(raw-new)\n"
              "int *p = new int(3);\n")
        write(os.path.join(root, "src", "bad_rng.cc"),
              "#include <random>\n"
              "std::mt19937 gen;\n"
              "int r() { return rand(); }\n")
        write(os.path.join(root, "src", "catch_swallow.cc"),
              "void swallows() {\n"
              "    try { work(); } catch (...) {\n"
              "        int cleanup = 0;\n"          # silent: flagged
              "        (void)cleanup;\n"
              "    }\n"
              "}\n"
              "void rethrows() {\n"
              "    try { work(); } catch (...) { throw; }\n"
              "}\n"
              "void keeps() {\n"
              "    try { work(); } catch (...) {\n"
              "        e = std::current_exception();\n"
              "    }\n"
              "}\n"
              "void logs() {\n"
              "    try { work(); } catch (...) {\n"
              '        warn("cell fault");\n'
              "    }\n"
              "}\n"
              "void annotated() {\n"
              "    // zcomp-lint: allow(catch-swallow)\n"
              "    try { work(); } catch (...) {}\n"
              "}\n")

        write(os.path.join(root, "src", "stray_intrin.cc"),
              "// #include <immintrin.h> in a comment is fine\n"
              "#include <immintrin.h>\n"
              "#include <x86intrin.h>\n"
              "// zcomp-lint: allow(simd-isolation)\n"
              "#include <emmintrin.h>\n")
        write(os.path.join(root, "src", "common", "simd.cc"),
              "#include <immintrin.h>\n")
        write(os.path.join(root, "src", "raw_mutex.cc"),
              "std::mutex rawMu;\n"                       # flagged
              "void f() { zcomp::LockGuard lk(m); }\n"           # fine
              "std::condition_variable rawCv;\n"          # flagged
              "// zcomp-lint: allow(raw-mutex)\n"
              "std::unique_lock<std::mutex> special;\n"   # suppressed
              "zcomp::Mutex fine;\n")
        # The wrappers' own implementation file is exempt.
        write(os.path.join(root, "src", "common", "annotate.hh"),
              "#pragma once\n"
              "std::mutex mu_;\n"
              "std::condition_variable cv_;\n")
        write(os.path.join(root, "src", "wall_clock.cc"),
              "auto t0 = std::chrono::steady_clock::now();\n"  # flagged
              "double t1 = time(nullptr);\n"                   # flagged
              "double simNow = core->time();\n"         # member: fine
              "// zcomp-lint: allow(wall-clock)\n"
              "auto t2 = std::chrono::system_clock::now();\n"
              "void stamp(struct timeval *tv)"
              " { gettimeofday(tv, 0); }\n")                   # flagged
        # bench/ is host-domain: wall clocks are allowed there.
        write(os.path.join(root, "bench", "timer.cc"),
              "auto t0 = std::chrono::steady_clock::now();\n")
        write(os.path.join(root, "src", "raw_rand.cc"),
              "double d = drand48();\n"                        # flagged
              "int r(unsigned *s) { return rand_r(s); }\n"     # flagged
              "void io(S &s) { s.setstate(failbit); }\n"  # member: fine
              "// zcomp-lint: allow(raw-rand)\n"
              "uint32_t a = arc4random();\n")            # suppressed
        write(os.path.join(root, "src", "unordered_iter.cc"),
              "std::unordered_map<const T *, Scan> memo;\n"
              "std::map<std::string, int> ordered;\n"
              "void probe() { auto it = memo.find(k); }\n"  # probe: ok
              "void leak() {\n"
              "    for (auto &kv : memo)\n"                    # flagged
              "        use(kv);\n"
              "    for (auto it = memo.begin(); it != memo.end();\n"
              "         ++it)\n"                # .begin(): flagged (l7)
              "        use(*it);\n"
              "    for (auto &kv : ordered)\n"             # ordered: ok
              "        use(kv);\n"
              "    // zcomp-lint: allow(unordered-iteration)\n"
              "    for (auto &kv : memo)\n"                # suppressed
              "        use(kv);\n"
              "}\n")

        write(os.path.join(root, "src", "proc_raw.cc"),
              "// fork() in a comment is fine\n"
              "int pid = fork();\n"                         # flagged
              "void run() { execv(path, argv); }\n"         # flagged
              "void reap() { waitpid(pid, &st, 0); }\n"     # flagged
              "void stop() { ::kill(pid, 9); }\n"           # flagged
              "void fine(Subprocess &p) { p.kill(); }\n"    # member ok
              "void also(Subprocess *p) { p->kill(); }\n"   # member ok
              "void forked() { workForked(); }\n"     # substring: fine
              "// zcomp-lint: allow(process-isolation)\n"
              "int pg = killpg(pgid, 9);\n")               # suppressed
        # The wrapper's own implementation is the sanctioned home.
        write(os.path.join(root, "src", "common", "subprocess.cc"),
              "pid_t child = fork();\n"
              "void go() { execve(p, a, e); }\n"
              "void reap() { waitpid(child, &st, 0); }\n")

        findings = run_lint(root)
        got = {(f.rule, f.path, f.line) for f in findings}
        want = {
            ("cmake-registration", "src/orphan.cc", 1),
            ("header-guard", "src/bad_guard.hh", 1),
            ("header-guard", "src/no_guard.hh", 1),
            ("using-namespace", "src/leaky.hh", 2),
            ("raw-new", "src/raw_new.cc", 1),
            ("raw-new", "src/raw_new.cc", 2),
            ("rng", "src/bad_rng.cc", 2),
            ("rng", "src/bad_rng.cc", 3),
            ("catch-swallow", "src/catch_swallow.cc", 2),
            ("simd-isolation", "src/stray_intrin.cc", 2),
            ("simd-isolation", "src/stray_intrin.cc", 3),
            ("raw-mutex", "src/raw_mutex.cc", 1),
            ("raw-mutex", "src/raw_mutex.cc", 3),
            ("wall-clock", "src/wall_clock.cc", 1),
            ("wall-clock", "src/wall_clock.cc", 2),
            ("wall-clock", "src/wall_clock.cc", 6),
            ("raw-rand", "src/raw_rand.cc", 1),
            ("raw-rand", "src/raw_rand.cc", 2),
            ("unordered-iteration", "src/unordered_iter.cc", 5),
            ("unordered-iteration", "src/unordered_iter.cc", 7),
            ("process-isolation", "src/proc_raw.cc", 2),
            ("process-isolation", "src/proc_raw.cc", 3),
            ("process-isolation", "src/proc_raw.cc", 4),
            ("process-isolation", "src/proc_raw.cc", 5),
        }
        ok = True
        for item in sorted(want - got):
            print("self-test: MISSING expected finding %s:%d [%s]"
                  % (item[1], item[2], item[0]))
            ok = False
        for item in sorted(got - want):
            print("self-test: UNEXPECTED finding %s:%d [%s]"
                  % (item[1], item[2], item[0]))
            ok = False
        print("self-test: %s (%d findings)"
              % ("PASS" if ok else "FAIL", len(findings)))
        return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: the tool's repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixture tests")
    ap.add_argument("--github", action="store_true",
                    default=bool(os.environ.get("GITHUB_ACTIONS")),
                    help="also emit ::error workflow annotations "
                         "(default when GITHUB_ACTIONS is set)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = run_lint(root)
    for f in findings:
        print(f)
        if args.github:
            print(f.github())
    if findings:
        print("zcomp_lint: %d finding(s)" % len(findings))
        return 1
    print("zcomp_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
