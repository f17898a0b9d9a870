#!/usr/bin/env python3
"""TASQ conformance analyzer: one entry point, seven rule sets.

Each rule set is a module under scripts/rules/ (lint, arch, num, hot,
sync, own, vec; see DESIGN.md, "Conformance analyzer", for the rule
table). This file owns everything the sets share: the source walk, the
comment/string stripper, the bracket matcher, the waiver matcher, loop
regions, and the fixture runner behind --self-test.

A rule module exports
  RULES                    the rule ids it emits;
  check(repo, report)      -> [Finding] for the scanned tree;
  FIXTURES                 {rule: (positive_tree, negative_tree)}, where a
                           tree is {repo-relative path: text}. The positive
                           must fire exactly that rule, the negative must be
                           completely quiet. A key may carry a variant note
                           after the rule id ("rule (note)") when one rule
                           has two independent triggers to pin;
  dot(repo), inventory(repo)  optionally, for --dot and --list.
Auxiliary inputs (scripts/arch_layers.toml, scripts/sync_files.txt) are
read from the tree like any other file, so fixtures carry them as ordinary
entries; a fixture's build/ directory is handed to check() as the report.

Every finding fails the run. The only exception mechanism is the in-place
waiver comment each rule documents (e.g. `// hot: <reason>`).

Usage:
  python3 scripts/tasq_check.py                  the six source-text sets
  python3 scripts/tasq_check.py --report build-check-vec/vec_report.txt
                                                 ... plus vec
  python3 scripts/tasq_check.py hot sync         named sets only
  python3 scripts/tasq_check.py --self-test      every set's fixtures
  python3 scripts/tasq_check.py arch --dot -     module DAG (arch or hot)
  python3 scripts/tasq_check.py own --list       inventories (hot, sync,
                                                 own, vec)

--report takes a GCC -fopt-info-vec-all file, a Clang .opt.yaml file, or a
build directory holding either. Exit status: 0 clean, 1 findings or a
failed self-test, 2 configuration error.
"""

import argparse
import collections
import importlib
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = ("lint", "arch", "num", "hot", "sync", "own", "vec")
SCAN_ROOTS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")


class ConfigError(Exception):
    """A missing or malformed input: exit status 2, not a finding."""


class Finding(collections.namedtuple("Finding", "rule path line message")):
    """One violation; `line` is 1-based, or 0 for a whole-file finding."""

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


# A // comment, a /* */ comment, or a "string" / 'char' literal (raw
# strings read as plain strings, which is fine for the patterns the rules
# search). Unterminated ones run to the end of the text.
_TOKEN_RE = re.compile(
    r"//[^\n]*"
    r"|/\*[\s\S]*?(?:\*/|\Z)"
    r"|([\"'])(?:\\[\s\S]?|(?!\1)[^\\])*(?:\1|\Z)")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, keeping every newline
    so line numbers survive: a banned token inside a comment or a log
    string must not count."""
    return _TOKEN_RE.sub(lambda m: "\n" * m.group().count("\n"), text)


class Repo:
    """The scanned tree: every source file under SCAN_ROOTS (build* and
    .git directories skipped), with raw text, stripped text and lines each
    computed once and shared by every rule set."""

    def __init__(self, root):
        self.root = root
        self.files = []
        for top in SCAN_ROOTS:
            for dirpath, dirnames, filenames in os.walk(
                    os.path.join(root, top)):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith("build") and d != ".git")
                self.files += [
                    os.path.relpath(os.path.join(dirpath, name),
                                    root).replace(os.sep, "/")
                    for name in sorted(filenames)
                    if name.endswith(SOURCE_SUFFIXES)]
        self.src = [rel for rel in self.files if rel.startswith("src/")]
        self._text = {}
        self._stripped = {}
        self._lines = {}

    def text(self, rel):
        if rel not in self._text:
            with open(os.path.join(self.root, rel), encoding="utf-8",
                      errors="replace") as f:
                self._text[rel] = f.read()
        return self._text[rel]

    def stripped(self, rel):
        if rel not in self._stripped:
            self._stripped[rel] = strip_comments_and_strings(self.text(rel))
        return self._stripped[rel]

    def lines(self, rel):
        if rel not in self._lines:
            self._lines[rel] = self.text(rel).split("\n")
        return self._lines[rel]

    def aux(self, rel):
        """Text of a non-source input under the root, or None if absent."""
        path = os.path.join(self.root, rel)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as f:
            return f.read()


_BRACKETS = {"(": re.compile(r"[()]"), "{": re.compile(r"[{}]")}


def matching_end(text, open_idx):
    """Index just past the bracket closing text[open_idx] (`(` or `{`),
    or -1 when it never closes."""
    opener = text[open_idx]
    depth = 0
    for match in _BRACKETS[opener].finditer(text, open_idx):
        depth += 1 if match.group() == opener else -1
        if depth == 0:
            return match.end()
    return -1


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def waived(lines, line, pattern, above=None):
    """True when the compiled `pattern` (a rule set's waiver comment)
    matches the finding's line, or `above` (default: `pattern`) matches
    the line directly above it."""
    here = lines[line - 1] if line <= len(lines) else ""
    prev = lines[line - 2] if line >= 2 else ""
    return bool(pattern.search(here) or (above or pattern).search(prev))


# start/end: offset of the loop keyword / just past the body.
# kind: "while" | "for" | "do" | "do-tail" (the `} while (...)` of a
# do-while, whose body the "do" region covers). cond_span and body_span
# are (start, end) offsets; cond_span is None for "do".
LoopRegion = collections.namedtuple(
    "LoopRegion", "start end kind cond_span body_span")


def loop_regions(stripped):
    regions = []
    for match in re.finditer(r"\b(while|for)\s*\(", stripped):
        open_idx = match.end() - 1
        close = matching_end(stripped, open_idx)
        if close < 0:
            continue
        kind = match.group(1)
        back = match.start() - 1
        while back >= 0 and stripped[back] in " \t\n":
            back -= 1
        if kind == "while" and back >= 0 and stripped[back] == "}":
            kind = "do-tail"
        j = close
        while j < len(stripped) and stripped[j] in " \t\n":
            j += 1
        if j < len(stripped) and stripped[j] == "{":
            body_end = matching_end(stripped, j)
            body_span = (j, body_end if body_end >= 0 else j + 1)
        elif j < len(stripped) and stripped[j] == ";":
            body_span = (j, j + 1)  # Null statement body.
        else:
            semi = stripped.find(";", j)
            body_span = (j, semi + 1 if semi >= 0 else j)
        regions.append(LoopRegion(match.start(), body_span[1], kind,
                                  (open_idx + 1, close - 1), body_span))
    for match in re.finditer(r"\bdo\b", stripped):
        j = match.end()
        while j < len(stripped) and stripped[j] in " \t\n":
            j += 1
        if j < len(stripped) and stripped[j] == "{":
            body_end = matching_end(stripped, j)
            if body_end > 0:
                regions.append(LoopRegion(match.start(), body_end, "do",
                                          None, (j, body_end)))
    return regions


def load_set(name):
    return importlib.import_module(f"rules.{name}")


def run_fixture(module, tree):
    with tempfile.TemporaryDirectory(prefix="tasq_check_") as tmp:
        for rel, text in tree.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        report = os.path.join(tmp, "build")
        return module.check(Repo(tmp),
                             report if os.path.isdir(report) else None)


def self_test(name):
    """Coverage-gated fixture run: every rule in RULES has a positive tree
    that fires exactly that rule and a negative tree that is quiet."""
    module = load_set(name)
    failures = []
    covered = {key.split()[0] for key in module.FIXTURES}
    if covered != set(module.RULES):
        failures.append(
            f"fixtures out of sync with RULES (uncovered: "
            f"{sorted(set(module.RULES) - covered)}, unknown: "
            f"{sorted(covered - set(module.RULES))})")
    for key, (positive, negative) in sorted(module.FIXTURES.items()):
        rule = key.split()[0]
        fired = run_fixture(module, positive)
        if {f.rule for f in fired} != {rule}:
            failures.append(f"[{key}] positive must fire exactly [{rule}]; "
                            f"saw: {'; '.join(map(str, fired)) or 'nothing'}")
        leftover = run_fixture(module, negative)
        if leftover:
            failures.append(f"[{key}] negative is not quiet: "
                            + "; ".join(map(str, leftover)))
    for failure in failures:
        print(f"{name} self-test FAILED: {failure}")
    if not failures:
        print(f"{name} self-test passed: {len(module.FIXTURES)} fixture "
              f"pair(s) covering {len(module.RULES)} rule(s)")
    return not failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", nargs="*", metavar="SET",
                        help=f"rule sets to run: {', '.join(SETS)}")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="tree to analyze (default: this checkout)")
    parser.add_argument("--report", metavar="PATH",
                        help="vectorization report (file or build dir)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the named sets' fixtures")
    parser.add_argument("--dot", metavar="PATH",
                        help="write the arch or hot graph ('-': stdout)")
    parser.add_argument("--list", action="store_true",
                        help="print the named sets' inventories")
    args = parser.parse_args()

    unknown = [name for name in args.sets if name not in SETS]
    if unknown:
        print(f"tasq_check: unknown set(s) {unknown}; choose from {SETS}")
        return 2
    names = args.sets or [name for name in SETS
                          if name != "vec" or args.report
                          or args.self_test or args.list]
    if args.self_test:
        return 0 if all([self_test(name) for name in names]) else 1

    repo = Repo(args.root)
    try:
        if args.dot:
            if len(args.sets) != 1 or args.sets[0] not in ("arch", "hot"):
                raise ConfigError("--dot needs exactly one set: arch or hot")
            dot = load_set(args.sets[0]).dot(repo)
            if args.dot == "-":
                sys.stdout.write(dot)
            else:
                with open(args.dot, "w", encoding="utf-8") as f:
                    f.write(dot)
            return 0
        if args.list:
            for name in names:
                module = load_set(name)
                if hasattr(module, "inventory"):
                    print("\n".join(module.inventory(repo)))
            return 0
        findings = []
        for name in names:
            found = load_set(name).check(repo, args.report)
            print(f"{name}: {len(found)} finding(s)")
            findings += found
    except (ConfigError, OSError) as err:
        print(f"tasq_check: {err}")
        return 2
    findings.sort(key=lambda f: (f.path, f.rule, f.line))
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} finding(s). Fix them, or waive one in "
              "place where its rule allows (DESIGN.md, \"Conformance "
              "analyzer\").")
        return 1
    return 0


if __name__ == "__main__":
    # Rule modules import this file as `tasq_check`; alias the running
    # script so both names share one ConfigError/Finding.
    sys.modules["tasq_check"] = sys.modules[__name__]
    sys.exit(main())
