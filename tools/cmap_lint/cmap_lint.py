#!/usr/bin/env python3
"""cmap_lint: determinism lint for the cmap simulator.

Every fast path in this repository is gated on byte-identical reports
across thread counts, link-state modes, and fast-vs-reference oracles
(see docs/determinism.md).  That contract is enforced dynamically by
golden tests, but a golden test only catches a nondeterminism source
once a scenario happens to tickle it.  This tool is the static side of
the contract: it walks the translation units named by
compile_commands.json (plus every header under src/) and rejects, at
CI time, the constructs that historically break byte-identity.

Rules
-----
  banned-random     std::rand / srand / std::random_device.  All
                    randomness must come from sim::Rng / sim::mix64
                    substreams keyed on stable ids, never from global
                    C RNG state or hardware entropy.
  banned-wallclock  time(), clock(), gettimeofday, clock_gettime,
                    localtime/gmtime, and std::chrono::system_clock /
                    steady_clock / high_resolution_clock.  Simulation
                    time is sim::Time; wall-clock reads make output
                    depend on the host.  Bench drivers that time
                    themselves live outside src/ and are not linted.
  pointer-order     Hashing or ordering raw pointer values:
                    std::hash<T*>, std::less<T*>, std::map/std::set
                    keyed on a pointer type, and
                    reinterpret_cast<uintptr_t>.  Pointer values vary
                    run to run (ASLR, allocation order), so any
                    ordering derived from them is nondeterministic.
  unordered-iter    Iterating a std::unordered_map/std::unordered_set
                    (range-for over it, or calling .begin()/.cbegin()
                    on it).  Iteration order is hash-order: stable
                    within one process but not across standard
                    libraries, so any iteration whose order can reach
                    reports, traces, the wire, or RNG consumption must
                    be sorted before emit -- or proven order-free and
                    annotated.
  raw-thread        std::thread / std::jthread / std::async /
                    pthread_create outside the blessed concurrency
                    layer (sim/parallel.*).  All fan-out
                    must go through sim::parallel_for so the
                    results-are-thread-count-invariant argument stays
                    in one place.
  mutable-static    Namespace-scope / function-local / thread_local
                    mutable state.  Hidden shared state either races
                    under SweepRunner or couples runs that must be
                    independent.  const/constexpr objects are fine.

Annotations
-----------
A finding is silenced with an annotation comment carrying a reason:

    // cmap-lint: allow(<rule>[, <rule>...]) -- <reason>

on the offending line or the line directly above it.  A whole file is
exempted from one rule with a file-level annotation in the first 20
lines:

    // cmap-lint: allow-file(<rule>) -- <reason>

The reason is mandatory; an annotation without `-- <reason>` is itself
an error (rule `bad-annotation`), as is an annotation that names an
unknown rule or one that silences nothing (`unused-annotation`).

Usage
-----
    cmap_lint.py --compile-commands build/compile_commands.json \
                 [--root src] [--json]
    cmap_lint.py file.cpp [file2.h ...]          # explicit file mode
    cmap_lint.py --list-rules

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

RULES = {
    "banned-random": "global / hardware RNG (std::rand, std::random_device)",
    "banned-wallclock": "wall-clock reads (time(), chrono system/steady clocks)",
    "pointer-order": "ordering or hashing raw pointer values",
    "unordered-iter": "iteration over std::unordered_map/std::unordered_set",
    "raw-thread": "raw threads outside sim/parallel.*",
    "mutable-static": "mutable static / thread_local state",
    "bad-annotation": "malformed cmap-lint annotation",
    "unused-annotation": "annotation that silences no finding",
}

# Files allowed to use raw threads: the blessed concurrency layer.
THREAD_ALLOWED = ("sim/parallel.",)

ANNOT_RE = re.compile(
    r"cmap-lint:\s*(allow|allow-file)\(([^)]*)\)\s*(--\s*(.*\S))?")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"


@dataclass
class Annotation:
    line: int
    rules: tuple
    file_level: bool
    valid: bool
    used: bool = False


@dataclass
class SourceFile:
    """A source file with comments/literals stripped but lines preserved."""

    path: str
    raw_lines: list = field(default_factory=list)
    code_lines: list = field(default_factory=list)   # stripped of comments
    annotations: list = field(default_factory=list)  # Annotation per site


def strip_source(text: str) -> list:
    """Blank out comments, string and char literals, preserving line
    structure so findings carry real line numbers.  Comment text is
    handled separately (annotations are parsed from raw lines)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal?  R"delim( ... )delim"
                if out and out[-1] == "R":
                    m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1:])
                    if m:
                        delim = m.group(1)
                        close = text.find(")" + delim + '"', i)
                        if close == -1:
                            close = n
                        seg = text[i:close + len(delim) + 2]
                        out.append("".join("\n" if ch == "\n" else " "
                                           for ch in seg))
                        i += len(seg)
                        continue
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        else:  # string or char
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if (state == "string" and c == '"') or (
                    state == "char" and c == "'"):
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out).split("\n")


def parse_annotations(raw_lines: list) -> list:
    annotations = []
    for lineno, line in enumerate(raw_lines, start=1):
        if "cmap-lint:" not in line:
            continue
        m = ANNOT_RE.search(line)
        if not m:
            annotations.append(
                Annotation(lineno, (), False, valid=False))
            continue
        kind, rule_list, _, reason = m.groups()
        rules = tuple(r.strip() for r in rule_list.split(",") if r.strip())
        valid = bool(reason) and bool(rules) and all(
            r in RULES for r in rules)
        annotations.append(
            Annotation(lineno, rules, kind == "allow-file", valid))
    return annotations


def load_file(path: str) -> SourceFile:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    sf = SourceFile(path=path)
    sf.raw_lines = text.split("\n")
    sf.code_lines = strip_source(text)
    sf.annotations = parse_annotations(sf.raw_lines)
    return sf


# --------------------------------------------------------------- helpers --

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


def find_matching_angle(text: str, open_idx: int) -> int:
    """Index of the '>' matching the '<' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i
    return -1


def collect_unordered_names(files: list) -> set:
    """Project-wide pass: every identifier declared with an
    unordered_map/unordered_set type (variables, members, and aliases,
    including declarations whose type is such an alias)."""
    names = set()
    aliases = set()
    decl_re = re.compile(
        r"\bunordered_(?:map|set|multimap|multiset)\s*<")
    using_re = re.compile(
        r"\busing\s+(" + IDENT + r")\s*=\s*[^;]*\bunordered_")
    for sf in files:
        text = "\n".join(sf.code_lines)
        for m in using_re.finditer(text):
            aliases.add(m.group(1))
    alias_decl = None
    if aliases:
        alias_decl = re.compile(
            r"\b(?:" + "|".join(re.escape(a) for a in aliases) +
            r")\s+(" + IDENT + r")\s*[;={]")
    for sf in files:
        text = "\n".join(sf.code_lines)
        for m in decl_re.finditer(text):
            close = find_matching_angle(text, m.end() - 1)
            if close == -1:
                continue
            tail = text[close + 1:close + 160]
            dm = re.match(r"\s*&?\s*(" + IDENT + r")\s*[;={(]", tail)
            if dm:
                names.add(dm.group(1))
        if alias_decl:
            for m in alias_decl.finditer(text):
                names.add(m.group(1))
    return names


# ----------------------------------------------------------------- rules --

def check_banned_random(sf: SourceFile):
    pats = [
        (re.compile(r"\bstd::rand\b|\b(?:std::)?srand\s*\("),
         "global C RNG; derive randomness from sim::Rng substreams"),
        (re.compile(r"\brandom_device\b"),
         "hardware entropy is nondeterministic; seed from the scenario"),
        (re.compile(r"(?<![:\w.])rand\s*\(\s*\)"),
         "global C RNG; derive randomness from sim::Rng substreams"),
    ]
    for lineno, line in enumerate(sf.code_lines, start=1):
        for pat, why in pats:
            if pat.search(line):
                yield Finding(sf.path, lineno, "banned-random", why)
                break


def check_banned_wallclock(sf: SourceFile):
    pats = [
        re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)"
                   r"\s*::"),
        re.compile(r"\bstd::time\s*\(|(?<![:\w.>])time\s*\(\s*"
                   r"(?:nullptr|NULL|0)\s*\)"),
        re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\("),
        re.compile(r"(?<![:\w.>])clock\s*\(\s*\)"),
        re.compile(r"\b(?:localtime|gmtime)(?:_r)?\s*\("),
    ]
    why = ("wall-clock read; simulation output must be a pure function "
           "of (config, seed) -- use sim::Time")
    for lineno, line in enumerate(sf.code_lines, start=1):
        if any(p.search(line) for p in pats):
            yield Finding(sf.path, lineno, "banned-wallclock", why)


def check_pointer_order(sf: SourceFile):
    pats = [
        (re.compile(r"\bstd::hash\s*<[^>;]*\*\s*>"),
         "std::hash over a pointer type hashes the address"),
        (re.compile(r"\bstd::less\s*<[^>;]*\*\s*>"),
         "std::less over a pointer type orders by address"),
        (re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<\s*"
                    r"[A-Za-z_][\w:]*\s*\*"),
         "ordered container keyed on a pointer orders by address"),
        (re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
         "pointer-to-integer cast; the value depends on allocation"),
    ]
    for lineno, line in enumerate(sf.code_lines, start=1):
        for pat, why in pats:
            if pat.search(line):
                yield Finding(sf.path, lineno, "pointer-order", why)
                break


def make_unordered_iter_check(names: set):
    if names:
        alt = "|".join(re.escape(n) for n in sorted(names))
        # `x.begin()` with x an unordered name, incl. `obj.x.begin()`.
        member_begin_re = re.compile(
            r"\b(?:" + alt + r")\s*\.\s*c?begin\s*\(")
        range_for_re = re.compile(
            r"\bfor\s*\(([^;]*?):([^)]*)\)")
        name_token = re.compile(r"\b(?:" + alt + r")\b")
    else:
        member_begin_re = range_for_re = name_token = None

    def check(sf: SourceFile):
        if not names:
            return
        why = ("iteration order of an unordered container is hash-order; "
               "sort before emit or prove order-free and annotate")
        for lineno, line in enumerate(sf.code_lines, start=1):
            if member_begin_re.search(line):
                yield Finding(sf.path, lineno, "unordered-iter", why)
                continue
            m = range_for_re.search(line)
            if m and name_token.search(m.group(2)):
                yield Finding(sf.path, lineno, "unordered-iter", why)

    return check


def check_raw_thread(sf: SourceFile, rel: str):
    if any(a in rel for a in THREAD_ALLOWED):
        return
    pats = [
        re.compile(r"\bstd::(?:thread|jthread)\b(?!\s*::\s*hardware)"),
        re.compile(r"\bstd::async\s*\("),
        re.compile(r"\bpthread_create\s*\("),
    ]
    why = ("raw thread outside sim/parallel.*; fan out through "
           "sim::parallel_for so determinism arguments stay in one place")
    for lineno, line in enumerate(sf.code_lines, start=1):
        if any(p.search(line) for p in pats):
            yield Finding(sf.path, lineno, "raw-thread", why)


STATIC_DECL_RE = re.compile(
    r"^\s*(?:inline\s+)?(static|thread_local)\b(?:\s+(?:inline|static|"
    r"thread_local))*\s+(?P<rest>.*)$")


def check_mutable_static(sf: SourceFile, rel: str):
    if any(a in rel for a in THREAD_ALLOWED):
        return
    why = ("mutable static state is shared across runs/threads; make it "
           "const, pass it explicitly, or annotate why it is safe")
    for lineno, line in enumerate(sf.code_lines, start=1):
        m = STATIC_DECL_RE.match(line)
        if not m:
            continue
        rest = m.group("rest")
        if re.match(r"\s*(const\b|constexpr\b|constinit\b)", rest):
            continue
        # Skip function declarations/definitions: a '(' that opens an
        # argument list before any '=' / ';' terminator.  Variable
        # initializers like `static Foo x(1);` are indistinguishable
        # lexically from declarations in some spots; prefer flagging
        # `Type name;` / `Type name = ...` / `Type* name = ...` shapes.
        decl = re.match(
            r"(?:[\w:<>,\s]|\*|&)+?\b(" + IDENT + r")\s*(=|;|\{|\()", rest)
        if not decl:
            continue
        if decl.group(2) == "(":
            continue  # function declaration (or direct-init; see docs)
        yield Finding(sf.path, lineno, "mutable-static", why)


# ------------------------------------------------------------ the driver --

def apply_annotations(sf: SourceFile, findings: list) -> list:
    """Filter findings through the file's annotations; emit
    bad-annotation / unused-annotation findings as needed."""
    out = []
    file_allows = {}
    for a in sf.annotations:
        if a.file_level and a.valid and a.line <= 20:
            for r in a.rules:
                file_allows.setdefault(r, a)
    line_allows = {}
    for a in sf.annotations:
        if not a.valid or a.file_level:
            continue
        # The annotation covers its own line plus the next line that
        # actually holds code (so a reason wrapped over several comment
        # lines still reaches the statement below it).
        covered = {a.line}
        for idx in range(a.line, min(len(sf.code_lines), a.line + 8)):
            if sf.code_lines[idx].strip():
                covered.add(idx + 1)
                break
        for c in covered:
            line_allows.setdefault(c, []).append(a)

    for f in findings:
        if f.rule in file_allows:
            file_allows[f.rule].used = True
            continue
        silenced = False
        for a in line_allows.get(f.line, []):
            if f.rule in a.rules:
                a.used = True
                silenced = True
                break
        if not silenced:
            out.append(f)

    for a in sf.annotations:
        if not a.valid:
            out.append(Finding(
                sf.path, a.line, "bad-annotation",
                "annotation must be `cmap-lint: allow(<rule>) -- <reason>` "
                "with known rule names and a reason"))
        elif not a.used:
            out.append(Finding(
                sf.path, a.line, "unused-annotation",
                "annotation silences no finding; delete it so allows "
                "cannot rot"))
    return out


def lint_file(sf: SourceFile, rel: str, unordered_check) -> list:
    findings = []
    findings += list(check_banned_random(sf))
    findings += list(check_banned_wallclock(sf))
    findings += list(check_pointer_order(sf))
    findings += list(unordered_check(sf))
    findings += list(check_raw_thread(sf, rel))
    findings += list(check_mutable_static(sf, rel))
    findings.sort(key=lambda f: (f.line, f.rule))
    return apply_annotations(sf, findings)


def files_from_compile_commands(cc_path: str, root: str) -> list:
    try:
        with open(cc_path, "r", encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cmap_lint: cannot read {cc_path}: {e}", file=sys.stderr)
        sys.exit(2)
    root_abs = os.path.abspath(root)
    paths = set()
    for entry in entries:
        p = entry.get("file", "")
        if not os.path.isabs(p):
            p = os.path.join(entry.get("directory", "."), p)
        p = os.path.abspath(p)
        if p.startswith(root_abs + os.sep) and os.path.exists(p):
            paths.add(p)
    # Headers never appear in compile_commands; lint everything under
    # the root so header-only logic is covered too.
    for dirpath, _, filenames in os.walk(root_abs):
        for name in filenames:
            if name.endswith((".h", ".hpp", ".inl")):
                paths.add(os.path.join(dirpath, name))
    return sorted(paths)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cmap_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", help="explicit files to lint")
    ap.add_argument("--compile-commands", metavar="JSON",
                    help="compile_commands.json to derive the TU list from")
    ap.add_argument("--root", default="src",
                    help="only lint files under this directory "
                         "(default: src)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as JSON")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:18} {desc}")
        return 0

    if args.compile_commands:
        paths = files_from_compile_commands(args.compile_commands, args.root)
    elif args.files:
        paths = [os.path.abspath(p) for p in args.files]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            for p in missing:
                print(f"cmap_lint: no such file: {p}", file=sys.stderr)
            return 2
    else:
        ap.print_usage(sys.stderr)
        print("cmap_lint: need --compile-commands or explicit files",
              file=sys.stderr)
        return 2

    root_abs = os.path.abspath(args.root)
    sources = [load_file(p) for p in paths]
    unordered_check = make_unordered_iter_check(
        collect_unordered_names(sources))

    all_findings = []
    for sf in sources:
        rel = os.path.relpath(sf.path, root_abs).replace(os.sep, "/")
        all_findings += lint_file(sf, rel, unordered_check)

    if args.json:
        print(json.dumps([f.__dict__ for f in all_findings], indent=2))
    else:
        for f in all_findings:
            print(f.format())
    if all_findings:
        print(f"cmap_lint: {len(all_findings)} finding(s) in "
              f"{len(sources)} file(s)", file=sys.stderr)
        return 1
    print(f"cmap_lint: clean ({len(sources)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
