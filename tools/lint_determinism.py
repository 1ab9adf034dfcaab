#!/usr/bin/env python3
"""Project-specific determinism linter.

The repo's central claim (docs/ARCHITECTURE.md, "Determinism
invariants") is that every optimisation layer is bitwise invisible:
threads=1 == threads=N, tracestore on == off,
profile on == off, and all randomness a pure function of explicit
seeds.  Runtime diff tests enforce that claim end to end; this linter
enforces the *source patterns* that keep it true, so a violation is
caught at review time instead of as a flaky golden diff three PRs
later.

Rules (each maps to a numbered invariant in docs/ARCHITECTURE.md):

  obs-only-wallclock   Invariants 6+9 (observer/telemetry
                       invariance).  Wall-clock reads (time(),
                       clock(), std::chrono clocks, gettimeofday,
                       clock_gettime, ...) are banned in src/ outside
                       the observability layer src/obs/: host time
                       must never feed simulated state, so every
                       clock read lives behind the telemetry API (or
                       carries a reviewed waiver).
  raw-rng              Invariant 7 (sampling purity).  rand()/srand(),
                       std::random_device, drand48 and friends are
                       banned everywhere in src/: all randomness flows
                       through the seeded generators in common/rng.hh
                       as a pure function of explicit seeds.
  unordered-iter       Invariant 2 (thread-count invariance).
                       Files that fold reductions or write stats
                       output must not iterate unordered_map/
                       unordered_set: bucket order is
                       implementation-defined and can leak into
                       output ordering.
  ptr-key-order        Invariant 2 (thread-count invariance).
                       std::map/std::set keyed by pointer iterate in
                       *address* order, which varies run to run under
                       ASLR and across allocators.
  float-accum-unordered  Invariant 2.  Floating-point accumulation
                       (+=, -=) inside a loop over an unordered
                       container commits to an unspecified summation
                       order; FP addition is not associative.

Escape hatch: a line (or the line directly above it) carrying

    // lint-determinism: allow(<rule-id>) <reason>

is waived, but the reason is mandatory — an allow() without one is
itself an error, so every waiver in the tree is explained.

Usage:
    lint_determinism.py [--root DIR]     lint DIR/src (default: repo)
    lint_determinism.py --self-test      seed one violation per rule
                                         into a temp tree and assert
                                         the linter catches each
"""

import argparse
import os
import re
import sys
import tempfile

# --------------------------------------------------------------- rules

# Identifier-boundary guard: "time(" must not match "cycleTime(".
def _call(name):
    return r"(?<![A-Za-z0-9_])" + name + r"\s*\("


WALLCLOCK_PATTERNS = [
    re.compile(p)
    for p in [
        r"steady_clock",
        r"system_clock",
        r"high_resolution_clock",
        r"gettimeofday",
        r"clock_gettime",
        _call("time"),
        _call("clock"),
        _call("localtime"),
        _call("gmtime"),
        _call("strftime"),
        _call("asctime"),
        _call("ctime"),
    ]
]

RAW_RNG_PATTERNS = [
    re.compile(p)
    for p in [
        _call("rand"),
        _call("srand"),
        r"random_device",
        r"(?<![A-Za-z0-9_])drand48",
        r"(?<![A-Za-z0-9_])lrand48",
        r"(?<![A-Za-z0-9_])rand_r",
    ]
]

# map/set (and multi variants) whose KEY slot contains a pointer:
# everything before the first ',' or the closing '>'.
PTR_KEY_PATTERN = re.compile(
    r"(?<![A-Za-z0-9_])(?:std\s*::\s*)?(?:multi)?(?:map|set)\s*<"
    r"[^,<>]*\*\s*[,>]"
)

UNORDERED_DECL_PATTERN = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*"
    r"(?:&\s*)?([A-Za-z_][A-Za-z0-9_]*)\s*[;({=]"
)

FLOAT_DECL_PATTERN = re.compile(
    r"(?<![A-Za-z0-9_])(?:double|float)\s+([A-Za-z_][A-Za-z0-9_]*)"
)

# Files whose job is folding reductions or writing stats/report
# output — the surfaces where iteration order becomes output order.
REDUCTION_FILE_PATTERNS = [
    re.compile(p)
    for p in [
        r"(^|/)sim/[^/]+\.(cc|hh)$",
        r"(^|/)common/stats\.(cc|hh)$",
        r"(^|/)common/table\.(cc|hh)$",
        r"(^|/)variation/population\.(cc|hh)$",
    ]
]

ALLOW_PATTERN = re.compile(
    r"//\s*lint-determinism:\s*allow\(([a-z-]+)\)\s*(.*)$"
)

RULE_IDS = [
    "obs-only-wallclock",
    "raw-rng",
    "unordered-iter",
    "ptr-key-order",
    "float-accum-unordered",
]


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (
            self.path,
            self.line,
            self.rule,
            self.message,
        )


def is_reduction_file(relpath):
    rel = relpath.replace(os.sep, "/")
    return any(p.search(rel) for p in REDUCTION_FILE_PATTERNS)


def strip_strings(line):
    """Blank out string/char literal contents so tokens inside
    don't trip patterns (e.g. a help string mentioning 'rand(')."""
    out = []
    quote = None
    prev = ""
    for ch in line:
        if quote:
            if ch == quote and prev != "\\":
                quote = None
                out.append(ch)
            else:
                out.append(" ")
            prev = "" if prev == "\\" else ch
        else:
            if ch in "\"'":
                quote = ch
            out.append(ch)
            prev = ch
    return "".join(out)


def code_only_lines(lines):
    """Lines with string literals blanked and //-comments and
    /* */-blocks (possibly spanning lines) removed."""
    out = []
    in_block = False
    for line in lines:
        line = strip_strings(line)
        code = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                code.append(line[i])
                i += 1
        out.append("".join(code))
    return out


def loop_body_ranges(code_lines, loop_vars):
    """Ranges (start, end) of `for (...: var)` bodies iterating any
    name in loop_vars.  Brace-matched; good enough for lint."""
    ranges = []
    for i, code in enumerate(code_lines):
        m = re.search(r"for\s*\(.*:\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)",
                      code)
        if not m or m.group(1) not in loop_vars:
            continue
        depth = 0
        opened = False
        for j in range(i, min(i + 200, len(code_lines))):
            for ch in code_lines[j]:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if opened and depth <= 0:
                ranges.append((i, j))
                break
        else:
            ranges.append((i, min(i + 200, len(code_lines)) - 1))
    return ranges


def lint_file(path, relpath, text):
    lines = text.splitlines()
    code_lines = code_only_lines(lines)
    violations = []
    allows = {}  # line index -> (rule, reason)
    for i, line in enumerate(lines):
        m = ALLOW_PATTERN.search(line)
        if m:
            allows[i] = (m.group(1), m.group(2).strip())

    def waived(idx, rule):
        """allow() on the flagged line or the line above."""
        for j in (idx, idx - 1):
            if j in allows and allows[j][0] == rule:
                if not allows[j][1]:
                    violations.append(Violation(
                        relpath, j + 1, rule,
                        "allow() without a reason — every waiver "
                        "must be explained"))
                return True
        return False

    def flag(idx, rule, message):
        if not waived(idx, rule):
            violations.append(
                Violation(relpath, idx + 1, rule, message))

    rel = relpath.replace(os.sep, "/")
    # The observability layer is the one place allowed to read host
    # clocks; everything else goes through its API or a waiver.
    obs_exempt = "/obs/" in ("/" + rel)

    unordered_vars = set()
    float_vars = set()
    for code in code_lines:
        for m in UNORDERED_DECL_PATTERN.finditer(code):
            unordered_vars.add(m.group(1))
        for m in FLOAT_DECL_PATTERN.finditer(code):
            float_vars.add(m.group(1))

    for i, code in enumerate(code_lines):
        if not code.strip():
            continue

        if not obs_exempt:
            for pat in WALLCLOCK_PATTERNS:
                if pat.search(code):
                    flag(i, "obs-only-wallclock",
                         "wall-clock read in simulation code "
                         "(invariants 6+9: host time must never "
                         "feed simulated state); only src/obs/ may "
                         "read clocks")
                    break

        for pat in RAW_RNG_PATTERNS:
            if pat.search(code):
                flag(i, "raw-rng",
                     "non-seeded randomness (invariant 7: all draws "
                     "must be pure functions of explicit seeds); use "
                     "common/rng.hh")
                break

        if PTR_KEY_PATTERN.search(code):
            flag(i, "ptr-key-order",
                 "pointer-keyed ordered container iterates in "
                 "address order, which varies across runs "
                 "(invariant 2); key by a stable id instead")

        if is_reduction_file(relpath) and unordered_vars:
            m = re.search(
                r"for\s*\(.*:\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)", code)
            it = re.search(
                r"([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*(?:begin|end|"
                r"cbegin|cend)\s*\(", code)
            name = (m.group(1) if m else
                    it.group(1) if it else None)
            if name in unordered_vars:
                flag(i, "unordered-iter",
                     "iteration over unordered container '%s' in a "
                     "reduction/stats file (invariant 2: bucket "
                     "order can leak into output order); use "
                     "std::map or sort first" % name)

    if unordered_vars and float_vars:
        for start, end in loop_body_ranges(code_lines,
                                           unordered_vars):
            for i in range(start, end + 1):
                code = code_lines[i]
                m = re.search(
                    r"([A-Za-z_][A-Za-z0-9_]*)\s*[-+]=", code)
                if m and m.group(1) in float_vars:
                    flag(i, "float-accum-unordered",
                         "floating-point accumulation into '%s' "
                         "inside a loop over an unordered container "
                         "(invariant 2: FP addition is not "
                         "associative, so bucket order changes the "
                         "sum); iterate a fixed-order container"
                         % m.group(1))

    return violations


def lint_tree(root):
    src = os.path.join(root, "src")
    violations = []
    if not os.path.isdir(src):
        print("lint_determinism: no src/ under %s" % root,
              file=sys.stderr)
        return violations, 1
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith((".cc", ".hh", ".cpp", ".h")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "r", encoding="utf-8",
                      errors="replace") as f:
                violations.extend(lint_file(path, rel, f.read()))
    return violations, 0


# ----------------------------------------------------------- self-test

SEEDED = {
    "obs-only-wallclock": (
        "src/core/v_wallclock.cc",
        "#include <ctime>\n"
        "double hostNow() { return (double)time(nullptr); }\n",
    ),
    "raw-rng": (
        "src/core/v_rng.cc",
        "#include <cstdlib>\n"
        "int draw() { return rand(); }\n",
    ),
    "unordered-iter": (
        "src/sim/v_reduce.cc",
        "#include <unordered_map>\n"
        "#include <cstdio>\n"
        "void report() {\n"
        "    std::unordered_map<int, long> counts;\n"
        "    for (const auto &kv : counts)\n"
        "        std::printf(\"%ld\\n\", kv.second);\n"
        "}\n",
    ),
    "ptr-key-order": (
        "src/memory/v_ptrkey.cc",
        "#include <map>\n"
        "struct Line;\n"
        "std::map<Line *, int> order;\n",
    ),
    "float-accum-unordered": (
        "src/memory/v_floatacc.cc",
        "#include <unordered_set>\n"
        "double total(const std::unordered_set<double> &xs) {\n"
        "    std::unordered_set<double> copy = xs;\n"
        "    double sum = 0.0;\n"
        "    for (double x : copy) {\n"
        "        sum += x;\n"
        "    }\n"
        "    return sum;\n"
        "}\n",
    ),
}

CLEAN_FILE = (
    "src/sim/v_clean.cc",
    "#include <map>\n"
    "#include <vector>\n"
    "// The runtime() below must not trip the time( pattern.\n"
    "double runtime(std::vector<double> &xs) {\n"
    "    double sum = 0.0;\n"
    "    for (double x : xs)\n"
    "        sum += x;\n"
    "    return sum;\n"
    "}\n",
)

WAIVED_FILE = (
    "src/sim/v_waived.cc",
    "#include <ctime>\n"
    "// lint-determinism: allow(obs-only-wallclock) host-side "
    "progress log only, never read by simulation\n"
    "double wall() { return (double)time(nullptr); }\n",
)

UNEXPLAINED_FILE = (
    "src/sim/v_unexplained.cc",
    "#include <ctime>\n"
    "// lint-determinism: allow(obs-only-wallclock)\n"
    "double wall() { return (double)time(nullptr); }\n",
)

# The observability layer itself is exempt from the wallclock rule.
OBS_FILE = (
    "src/obs/v_obsclock.cc",
    "#include <chrono>\n"
    "double obsNow() {\n"
    "    return std::chrono::duration<double>(\n"
    "               std::chrono::steady_clock::now()\n"
    "                   .time_since_epoch())\n"
    "        .count();\n"
    "}\n",
)


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="lintdet-") as tmp:
        for rel, content in (
            list(SEEDED.values())
            + [CLEAN_FILE, WAIVED_FILE, UNEXPLAINED_FILE, OBS_FILE]
        ):
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)

        violations, rc = lint_tree(tmp)
        if rc:
            return 1
        by_file = {}
        for v in violations:
            rel = os.path.relpath(
                os.path.join(tmp, v.path), tmp
            ).replace(os.sep, "/")
            by_file.setdefault(rel, []).append(v)

        for rule, (rel, _) in SEEDED.items():
            hits = [v for v in by_file.get(rel, [])
                    if v.rule == rule]
            if len(hits) != 1:
                failures.append(
                    "rule %s: expected exactly 1 hit in %s, got %d"
                    % (rule, rel, len(hits)))

        if by_file.get(CLEAN_FILE[0]):
            failures.append(
                "clean file was flagged: %s"
                % "; ".join(str(v) for v in by_file[CLEAN_FILE[0]]))
        if by_file.get(WAIVED_FILE[0]):
            failures.append(
                "explained allow() did not suppress: %s"
                % "; ".join(str(v) for v in by_file[WAIVED_FILE[0]]))
        unexplained = by_file.get(UNEXPLAINED_FILE[0], [])
        if not any("without a reason" in v.message
                   for v in unexplained):
            failures.append(
                "allow() without a reason was not rejected")
        if by_file.get(OBS_FILE[0]):
            failures.append(
                "src/obs/ file was flagged despite the exemption: %s"
                % "; ".join(str(v) for v in by_file[OBS_FILE[0]]))

    if failures:
        for f in failures:
            print("self-test FAIL: %s" % f, file=sys.stderr)
        return 1
    print("lint_determinism self-test: %d rules seeded and caught, "
          "waiver semantics verified" % len(SEEDED))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Determinism linter (see docs/ARCHITECTURE.md)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the linter's "
                             "grandparent directory)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter catches one seeded "
                             "violation per rule")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    violations, rc = lint_tree(root)
    if rc:
        return rc
    for v in violations:
        print(v)
    if violations:
        print("lint_determinism: %d violation(s); waive a "
              "deliberate exception with "
              "'// lint-determinism: allow(<rule>) <reason>'"
              % len(violations), file=sys.stderr)
        return 1
    print("lint_determinism: src/ clean (%s)"
          % ", ".join(RULE_IDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
