#!/usr/bin/env python3
"""Project-specific lint for the simulator source tree.

Enforces repo invariants that clang-tidy cannot express (see
DESIGN.md §11 for the rationale behind each rule):

  unordered-iter   no iteration over std::unordered_map/unordered_set
                   in sim code — iteration order is libstdc++-version
                   dependent and would break run-to-run determinism.
                   Lookups are fine; range-for / begin() / iterators
                   are not.
  raw-new-delete   no raw `new` / `delete` in src/: event and MSHR
                   allocation goes through the pools (common/pool.hh),
                   everything else through containers or unique_ptr.
  std-function     no std::function on the hot path: the event kernel
                   uses InlineFn (fixed-size, no heap) — std::function
                   type-erases through an allocation.
  raw-random       no rand()/srand()/random_device/std::time/mt19937
                   outside common/rng.hh: all randomness must flow
                   from the seeded, reproducible Rng.
  std-io           no std::cout/cerr/printf in library code (src/):
                   output goes through common/logging.hh so --quiet
                   and test harnesses can silence it. Benches, tests
                   and tools are exempt.

A line may opt out with an adjacent justification comment, on the
same line or the line above:

    // lint: allow(unordered-iter) — commutative fold.

Usage:
  tools/lint_sim.py [--root DIR]        lint src/ (exit 1 on findings)
  tools/lint_sim.py --self-test         verify the rules against the
                                        fixtures in tools/lint_fixtures
  tools/lint_sim.py FILE...             lint specific files
"""

import argparse
import pathlib
import re
import sys

# Files whose whole job is an exemption (path suffixes, '/'-joined).
STD_IO_ALLOWED = (
    "common/logging.cc",    # the logging sink itself
    "analysis/report.cc",   # report emission is user-facing output
)
RAW_RANDOM_ALLOWED = (
    "common/rng.hh",        # the one sanctioned wrapper
    "telemetry/manifest.cc",  # wall-clock run stamp, not sim state
)

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)")

# Each rule: (name, regex, explanation). Regexes run on
# comment-stripped lines, so matches in comments never fire.
RULES = [
    (
        "raw-new-delete",
        re.compile(r"(^|[^\w.])(new\s+[A-Za-z_:][\w:<>]*\s*[({[]|"
                   r"delete\s+[A-Za-z_(]|delete\[\])"),
        "raw new/delete; use the pools (common/pool.hh), containers "
        "or std::unique_ptr",
    ),
    (
        "std-function",
        re.compile(r"\bstd\s*::\s*function\s*<"),
        "std::function allocates and type-erases; use InlineFn "
        "(common/inline_fn.hh) or a template parameter",
    ),
    (
        "raw-random",
        re.compile(r"\b(?:std\s*::\s*)?(?:rand|srand)\s*\(|"
                   r"\bstd\s*::\s*(?:random_device|mt19937(?:_64)?|"
                   r"time)\b|[^\w.]time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
        "unseeded/global randomness or wall-clock time; use "
        "spp::Rng (common/rng.hh) so runs stay reproducible",
    ),
    (
        "std-io",
        re.compile(r"\bstd\s*::\s*(?:cout|cerr)\b|"
                   r"(?:^|[^\w.])(?:std\s*::\s*)?"
                   r"(?:printf|fprintf|puts)\s*\("),
        "direct console I/O in library code; route through "
        "common/logging.hh",
    ),
]

# unordered-iter is type-directed, not purely lexical: pass 1 collects
# every identifier declared as std::unordered_map/unordered_set across
# ALL linted files (members like `dir_` are declared in headers but
# iterated in .cc files), then pass 2 flags range-for or begin() over
# those names. Lookups — find/count/operator[]/`it != m.end()` — never
# match, and a vector<unordered_map<...>> member is not collected (the
# outer iteration is deterministic): the unordered token must open the
# declared type. A line that opens such a type without declaring a
# name is joined with the lines after it, up to DECL_MAX_LINES, so a
# declaration wrapped across lines is collected too.
UNORDERED_TYPE = (r"^\s*(?:static\s+|const\s+|mutable\s+)*"
                  r"(?:std\s*::\s*)?unordered_(?:map|set)\s*<")
UNORDERED_OPEN_RE = re.compile(UNORDERED_TYPE)
UNORDERED_DECL_RE = re.compile(
    UNORDERED_TYPE + r".*>\s*&?(\w+)\s*[;={(,]")
DECL_MAX_LINES = 4
UNORDERED_ITER_WHY = (
    "iteration over an unordered container (nondeterministic order); "
    "iterate a sorted copy or a deterministic container"
)


def collect_unordered_names(paths):
    names = set()
    for path in paths:
        try:
            raw = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        in_block = False
        held = []  # Lines of a declaration still open.
        for raw_line in raw.splitlines():
            code, in_block = strip_comments_and_strings(
                raw_line, in_block)
            if held:
                held.append(code)
                code = " ".join(held)
            m = UNORDERED_DECL_RE.search(code)
            if m:
                names.add(m.group(1))
                held = []
            elif (UNORDERED_OPEN_RE.search(code) and ";" not in code
                  and len(held) < DECL_MAX_LINES):
                held = held or [code]
            else:
                held = []
    return names


def unordered_iter_regex(names):
    if not names:
        return None
    alt = "|".join(sorted(re.escape(n) for n in names))
    return re.compile(
        r"\bfor\s*\([^;)]*:[^)]*\b(?:%s)\b\s*\)|"
        r"\b(?:%s)\b\s*\.\s*(?:begin|cbegin)\s*\(" % (alt, alt))


def strip_comments_and_strings(line, in_block):
    """Blank out string/char literals and comments, preserving length
    where convenient. Returns (code, in_block)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if in_block:
            j = line.find("*/", i)
            if j < 0:
                return "".join(out), True
            i = j + 2
            in_block = False
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block


def allowed_rules(raw_line, prev_raw_line):
    """Rules suppressed for this line by lint: allow annotations."""
    names = set()
    for text in (raw_line, prev_raw_line):
        if text:
            names.update(ALLOW_RE.findall(text))
    return names


def path_exempt(rule, rel):
    posix = rel.replace("\\", "/")
    if rule == "std-io":
        return posix.endswith(STD_IO_ALLOWED)
    if rule == "raw-random":
        return posix.endswith(RAW_RANDOM_ALLOWED)
    return False


def lint_file(path, rel, findings, iter_rx=None):
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        findings.append((rel, 0, "io", str(e)))
        return
    rules = list(RULES)
    if iter_rx is not None:
        rules.append(("unordered-iter", iter_rx, UNORDERED_ITER_WHY))
    in_block = False
    prev_raw = ""
    for lineno, raw_line in enumerate(raw.splitlines(), 1):
        code, in_block = strip_comments_and_strings(raw_line, in_block)
        allows = allowed_rules(raw_line, prev_raw)
        prev_raw = raw_line
        if not code.strip():
            continue
        for name, rx, why in rules:
            if name in allows or path_exempt(name, rel):
                continue
            if rx.search(code):
                findings.append((rel, lineno, name, why))


def iter_sources(root):
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".cc", ".hh", ".cpp", ".h"):
            yield path


def run_lint(paths, root):
    iter_rx = unordered_iter_regex(collect_unordered_names(paths))
    findings = []
    for path in paths:
        try:
            rel = str(path.relative_to(root))
        except ValueError:
            rel = str(path)
        lint_file(path, rel, findings, iter_rx)
    for rel, lineno, name, why in findings:
        print(f"{rel}:{lineno}: [{name}] {why}")
    return findings


# A fixture line that must trip a rule ends in a comment naming it.
FIXTURE_MARK_RE = re.compile(r"//\s*([a-z-]+)\s*$")


def self_test(root):
    """The fixture pair proves every rule both fires and can pass:
    each line of violations.cc marked `// <rule>` must trip that rule,
    and every rule must have such a line."""
    fixtures = root / "tools" / "lint_fixtures"
    vio = fixtures / "violations.cc"
    cln = fixtures / "clean.cc"
    iter_rx = unordered_iter_regex(
        collect_unordered_names([vio, cln]))

    bad = []
    lint_file(vio, "violations.cc", bad, iter_rx)
    hit = {(lineno, name) for (_, lineno, name, _) in bad}
    expected = {name for (name, _, _) in RULES} | {"unordered-iter"}
    marked = set()
    for lineno, text in enumerate(
            vio.read_text(encoding="utf-8").splitlines(), 1):
        m = FIXTURE_MARK_RE.search(text)
        if m and m.group(1) in expected:
            marked.add((lineno, m.group(1)))
    ok = True
    for lineno, name in sorted(marked - hit):
        print(f"self-test: rule '{name}' did not fire on "
              f"lint_fixtures/violations.cc:{lineno}")
        ok = False
    for name in sorted(expected - {name for (_, name) in marked}):
        print(f"self-test: no line of lint_fixtures/violations.cc is "
              f"marked '// {name}'")
        ok = False

    clean = []
    lint_file(cln, "clean.cc", clean, iter_rx)
    for rel, lineno, name, _ in clean:
        print(f"self-test: false positive [{name}] at "
              f"{rel}:{lineno} in lint_fixtures/clean.cc")
        ok = False

    print("self-test: " + ("PASS" if ok else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repo root (default: this script's ../..)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("files", nargs="*")
    args = ap.parse_args()

    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parent.parent

    if args.self_test:
        sys.exit(0 if self_test(root) else 1)

    paths = [pathlib.Path(f) for f in args.files] or \
        list(iter_sources(root))
    findings = run_lint(paths, root)
    if findings:
        print(f"{len(findings)} finding(s)")
        sys.exit(1)
    print(f"lint_sim: {len(paths)} files clean")


if __name__ == "__main__":
    main()
