"""vec: every TASQ_VEC loop is confirmed vectorized by the compiler.

Unlike the other sets, vec judges the compiler's own analysis, not source
text. Every performance-critical loop carries `TASQ_VEC`
(src/common/hot.h) on its own line or the line before the `for`/`while`;
a build configured with -DTASQ_VEC_REPORT=ON records the vectorizer's
per-loop decisions (GCC -fopt-info-vec-all text, or best-effort Clang
-fsave-optimization-record YAML), passed in with --report:

  vec-not-vectorized   the compiler reported `not vectorized` (and never
                       `loop vectorized`) for an annotated loop; the finding
                       carries the compiler's reason.
  vec-unresolved       an annotated loop has no verdict at all (GCC folded
                       it into memset/memcpy, the annotation drifted, or the
                       TU was not rebuilt into the report), or TASQ_VEC
                       precedes no for/while.
  vec-stale-waiver     a waived loop that the compiler now vectorizes; the
                       waiver documents a limitation that no longer exists.

A known-scalar annotated loop carries `// vec: <reason>` on the annotation
line, the loop line, or the line directly above the annotation.
"""

import glob
import os
import re

from tasq_check import ConfigError, Finding, line_of, waived

RULES = ("vec-not-vectorized", "vec-unresolved", "vec-stale-waiver")

VEC_ANNOT_RE = re.compile(r"\bTASQ_VEC\b")
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
WAIVER_RE = re.compile(r"//\s*vec:\s*\S")


def vec_sites(repo):
    """(rel, annotation line, loop line or None, waived) for every TASQ_VEC
    under src/ except the macro's own definition in common/hot.h."""
    for rel in repo.src:
        if rel.endswith("common/hot.h"):
            continue
        stripped = repo.stripped(rel)
        lines = repo.lines(rel)
        for match in VEC_ANNOT_RE.finditer(stripped):
            annot_line = line_of(stripped, match.start())
            loop = LOOP_RE.search(stripped, match.end())
            loop_line = line_of(stripped, loop.start()) if loop else None
            # The macro binds to a loop on its own line or the next one.
            if loop_line not in (annot_line, annot_line + 1):
                loop_line = None
            yield (rel, annot_line, loop_line,
                   waived(lines, annot_line, WAIVER_RE)
                   or loop_line is not None
                   and waived(lines, loop_line, WAIVER_RE))


# GCC -fopt-info-vec-all line:
#   /abs/path/src/ml/kernels.cc:23:25: optimized: loop vectorized using ...
#   /abs/path/src/gbdt/gbdt.cc:61:3: missed: not vectorized: <reason>
GCC_LINE_RE = re.compile(
    r"^(?P<path>[^:\n]+):(?P<line>\d+):\d+:\s*"
    r"(?P<kind>optimized|missed):\s*(?P<msg>.*)$")
VECTORIZED_RE = re.compile(r"\bloop vectorized\b")
NOT_VECTORIZED_RE = re.compile(r"\bnot vectorized\b|\bcouldn't vectorize\b")
CLANG_LOC_RE = re.compile(
    r"File:\s*'?(?P<file>[^',\s]+)'?,\s*Line:\s*(?P<line>\d+)")


def _path_keys(path):
    """Lookup keys for a report path: the src/-relative suffix (immune to
    build-dir layout) plus the basename, for compilers that print bare
    filenames."""
    path = path.replace("\\", "/")
    keys = ["src/" + path.rsplit("src/", 1)[1]] if "src/" in path else []
    return keys + [path.rsplit("/", 1)[-1]]


class VecReport:
    """Per-(file, line) verdicts aggregated across TUs. GCC appends one
    section per TU (and re-reports inlined copies at their source
    location), so one loop can carry several lines: `loop vectorized`
    anywhere wins over epilogue/versioned `missed` lines."""

    def __init__(self):
        self.optimized = {}  # key -> {line, ...}
        self.missed = {}     # (key, line) -> first reason

    def add(self, path, line, kind, msg):
        for key in _path_keys(path):
            if kind == "optimized" and VECTORIZED_RE.search(msg):
                self.optimized.setdefault(key, set()).add(line)
            elif kind == "missed" and NOT_VECTORIZED_RE.search(msg):
                self.missed.setdefault((key, line), msg)

    def status(self, rel, line):
        """('vectorized', None) | ('missed', reason) | ('absent', None)."""
        keys = _path_keys(rel)
        if any(line in self.optimized.get(key, ()) for key in keys):
            return ("vectorized", None)
        for key in keys:
            if (key, line) in self.missed:
                return ("missed", self.missed[(key, line)])
        return ("absent", None)

    def parse_gcc(self, text):
        for raw in text.splitlines():
            match = GCC_LINE_RE.match(raw)
            if match:
                self.add(match.group("path"), int(match.group("line")),
                         match.group("kind"), match.group("msg"))

    def parse_clang(self, text):
        """Loop-vectorize remarks only; no full YAML parser (stdlib)."""
        for block in re.split(r"^--- !", text, flags=re.M)[1:]:
            kind = block.split("\n", 1)[0].strip()
            pass_match = re.search(r"^Pass:\s*'?([\w-]+)'?", block, re.M)
            loc = CLANG_LOC_RE.search(block)
            if not pass_match or not loc or \
                    pass_match.group(1) != "loop-vectorize":
                continue
            path, line = loc.group("file"), int(loc.group("line"))
            if kind == "Passed":
                self.add(path, line, "optimized", "loop vectorized")
            elif kind in ("Missed", "Analysis"):
                strings = re.findall(r"String:\s*'((?:[^']|'')*)'", block)
                self.add(path, line, "missed", "not vectorized: " + (
                    "".join(strings).strip() or "clang missed remark"))


def load_report(path):
    """A GCC report file, a Clang .opt.yaml file, or a build directory
    holding vec_report.txt (else *.opt.yaml files)."""
    if path is None:
        raise ConfigError(
            "vec needs --report <vec_report.txt | .opt.yaml | build dir>; "
            "build one with -DTASQ_VEC_REPORT=ON (see scripts/check.sh)")
    files = [path]
    if os.path.isdir(path):
        gcc = os.path.join(path, "vec_report.txt")
        files = [gcc] if os.path.exists(gcc) else sorted(glob.glob(
            os.path.join(path, "**", "*.opt.yaml"), recursive=True))
        if not files:
            raise ConfigError(
                f"no vec_report.txt or *.opt.yaml under {path}; build with "
                "-DTASQ_VEC_REPORT=ON first (see CMakeLists.txt)")
    report = VecReport()
    for name in files:
        with open(name, encoding="utf-8", errors="replace") as f:
            text = f.read()
        if text.lstrip().startswith("--- !"):
            report.parse_clang(text)
        else:
            report.parse_gcc(text)
    return report


def check(repo, report):
    verdicts = load_report(report)
    findings = []
    for rel, annot_line, loop_line, is_waived in vec_sites(repo):
        if loop_line is None:
            if not is_waived:
                findings.append(Finding(
                    "vec-unresolved", rel, annot_line,
                    "TASQ_VEC does not precede a for/while loop on this or "
                    "the next line; the annotation enforces nothing"))
            continue
        status, detail = verdicts.status(rel, loop_line)
        if status == "vectorized" and is_waived:
            findings.append(Finding(
                "vec-stale-waiver", rel, annot_line,
                "loop carries a `// vec:` waiver but the compiler "
                "vectorized it; remove the waiver (stale waivers "
                "grandfather future regressions in silently)"))
        elif status == "missed" and not is_waived:
            findings.append(Finding(
                "vec-not-vectorized", rel, loop_line,
                f"TASQ_VEC loop was not vectorized — compiler: "
                f"\"{detail}\". Restructure the loop (see DESIGN.md "
                "\"Vectorization policy\"), or waive with "
                "`// vec: <reason>`"))
        elif status == "absent" and not is_waived:
            findings.append(Finding(
                "vec-unresolved", rel, loop_line,
                "TASQ_VEC loop has no verdict in the vectorization report: "
                "the loop may have been rewritten into memset/memcpy "
                "(annotate arithmetic loops, not zero/copy loops), the "
                "annotation may have drifted, or the TU was not rebuilt "
                "into the report"))
    return findings


def inventory(repo):
    sites = list(vec_sites(repo))
    return [f"{rel}:{annot_line}: "
            + (f"loop at line {loop_line}" if loop_line
               else "NO LOOP (orphaned)") + (" [waived]" if is_waived else "")
            for rel, annot_line, loop_line, is_waived in sites] + [
        f"{len(sites)} TASQ_VEC annotation(s)"]


HOT_H = {"src/common/hot.h": (
    "#ifndef TASQ_COMMON_HOT_H_\n"
    "#define TASQ_COMMON_HOT_H_\n"
    "#define TASQ_VEC\n"
    "#endif\n")}
# One annotated elementwise loop; line 4 of kern.cc is the `for`, which the
# synthetic reports below rule on.
KERN_CC = (
    "#include \"common/hot.h\"\n"
    "void Scale(double* __restrict o, double s, unsigned long n) {\n"
    "  TASQ_VEC\n"
    "  for (unsigned long i = 0; i < n; ++i) {\n"
    "    o[i] = o[i] * s;\n"
    "  }\n"
    "}\n")
GOOD = {**HOT_H, "src/app/kern.cc": KERN_CC}
WAIVED = {**HOT_H, "src/app/kern.cc": KERN_CC.replace(
    "  TASQ_VEC\n", "  TASQ_VEC  // vec: scatter lanes collide on shared bins\n")}
ORPHAN = {**HOT_H, "src/app/kern.cc": (
    "#include \"common/hot.h\"\n"
    "void Scale(double* o, unsigned long n) {\n"
    "  TASQ_VEC\n"
    "  o[0] = 1.0;\n"
    "  for (unsigned long i = 0; i < n; ++i) o[i] = 0.0;\n"
    "}\n")}


def _gcc(text):
    return {"build/vec_report.txt": text}


def _clang(kind):
    return {"build/kern.opt.yaml": (
        f"--- !{kind}\n"
        "Pass:            loop-vectorize\n"
        "Name:            Remark\n"
        "DebugLoc:        { File: 'src/app/kern.cc', Line: 4, Column: 3 }\n"
        "Function:        Scale\n"
        "Args:\n"
        "  - String:          'loop not vectorized'\n"
        "...\n")}


OPTIMIZED = _gcc("/tmp/x/src/app/kern.cc:4:25: optimized: loop vectorized "
                 "using 16 byte vectors\n")
MISSED = _gcc("/tmp/x/src/app/kern.cc:4:25: missed: not vectorized: "
              "complicated access pattern.\n")
# A verdict for some other loop only: the annotated one stays absent.
ELSEWHERE = _gcc("/tmp/x/src/app/other.cc:9:3: optimized: loop vectorized "
                 "using 16 byte vectors\n")

FIXTURES = {
    "vec-not-vectorized": ({**GOOD, **MISSED}, {**WAIVED, **MISSED}),
    "vec-not-vectorized (clang yaml)": (
        {**GOOD, **_clang("Missed")}, {**WAIVED, **_clang("Missed")}),
    "vec-unresolved": ({**GOOD, **ELSEWHERE}, {**WAIVED, **ELSEWHERE}),
    "vec-unresolved (orphan annotation)": (
        {**ORPHAN, **_gcc("")}, {**GOOD, **OPTIMIZED}),
    "vec-stale-waiver": ({**WAIVED, **OPTIMIZED}, {**GOOD, **OPTIMIZED}),
    "vec-stale-waiver (clang yaml)": (
        {**WAIVED, **_clang("Passed")}, {**GOOD, **_clang("Passed")}),
}
