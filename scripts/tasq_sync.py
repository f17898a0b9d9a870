#!/usr/bin/env python3
"""TASQ atomics & lock-free conformance analyzer.

The shard-per-core serving arc (ROADMAP item 1) moves the request path
off mutexes and onto hand-written atomics — exactly the code TSan is
weakest on: a wrong memory order is invisible on x86 test hardware and
only misbehaves under contention or on weaker architectures, undermining
the tail-latency predictability the paper's PCC-optimal allocation
depends on. This analyzer (stdlib only, same mold and CLI contract as
tasq_lint / tasq_arch / tasq_num / tasq_hot) scans every source file
under src/ and enforces a written-down discipline on raw atomics:

  atomic-implicit-order      every load / store / exchange /
                             compare_exchange_* / fetch_* must spell an
                             explicit std::memory_order (both success and
                             failure orders for compare_exchange): the
                             C++ default is seq_cst, and an implicit
                             order is indistinguishable from an
                             unconsidered one.
  atomic-seqcst-needs-reason seq_cst is the strongest and most expensive
                             order and is almost always cargo cult; a
                             deliberate use (e.g. a store-buffering
                             litmus between flag pairs) must say why via
                             `// sync: seqcst <why>`.
  atomic-outside-sync        raw std::atomic in src/ lives only inside
                             src/common/sync/ (the vetted primitives:
                             Snapshot<T>, CpuRelax) or in
                             files allowlisted with a per-file rationale
                             in scripts/sync_files.txt. Everything else
                             composes the vetted primitives instead of
                             inventing protocols.
  cas-weak-loop              compare_exchange_strong inside a retry loop:
                             the loop already tolerates spurious failure,
                             so use the cheaper _weak.
  cas-strong-single          compare_exchange_weak outside any loop: a
                             single-shot weak CAS can fail spuriously and
                             silently drop the update; use _strong.
  spin-without-pause         a busy-wait loop (atomic read in the
                             condition, empty body) must execute a CPU
                             relax hint — CpuRelax() from
                             src/common/sync/pause.h — or yield in its
                             body.
  volatile-as-sync           `volatile` is not a synchronization
                             primitive in C++ (no atomicity, no ordering);
                             inter-thread signaling must use std::atomic.
                             (`asm volatile` is exempt: that volatile
                             qualifies the asm statement, not data.)
  sync-stale-allowlist       scripts/sync_files.txt entries must name
                             existing files that still contain
                             std::atomic and carry a rationale — stale
                             entries would silently grandfather future
                             atomics in.

Waivers: a deliberate exception carries `// sync: <tag> <reason>` on the
offending line or the line directly above it; the reason is mandatory
(anonymous suppressions rot). Tags: `order` (atomic-implicit-order),
`seqcst` (atomic-seqcst-needs-reason — this is the required
justification, not an escape hatch), `cas` (both CAS-strength rules),
`spin` (spin-without-pause), `volatile` (volatile-as-sync).
atomic-outside-sync has no per-line waiver: the allowlist file is the
reviewed escape hatch.

Known, accepted findings live in scripts/sync_baseline.txt; the analyzer
exits nonzero only on findings not in the baseline. The baseline is empty
as of PR 8 and CI fails if it regrows (job static-analysis, via
scripts/check.sh analyzers).

Usage:
  python3 scripts/tasq_sync.py                    analyze the repo
  python3 scripts/tasq_sync.py --update-baseline  accept current findings
  python3 scripts/tasq_sync.py --self-test        per-rule fixture check
  python3 scripts/tasq_sync.py --list-sites       list every atomic op site
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join("scripts", "sync_baseline.txt")
ALLOWLIST_PATH = os.path.join("scripts", "sync_files.txt")
SYNC_DIR_PREFIX = "src/common/sync/"
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path  # Repo-relative, forward slashes.
        self.line = line  # 1-based.
        self.message = message

    def key(self):
        # Line numbers shift too easily to key the baseline on them.
        return f"{self.rule}\t{self.path}"

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines.

    Identical policy to the other analyzers: a token inside a comment or
    a log string must not count as a violation."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _matching_paren_end(text, open_idx):
    """Index just past the `)` matching text[open_idx] == `(`, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _matching_brace_end(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _line_of(text, idx):
    return text[:idx].count("\n") + 1


def _waived(raw_lines, line, tag):
    """True when `line` (1-based) carries or directly follows a
    `// sync: <tag> <reason>` waiver (reason mandatory)."""
    pattern = re.compile(r"//\s*sync:\s*" + re.escape(tag) + r"\b\s*\S")
    here = raw_lines[line - 1] if line - 1 < len(raw_lines) else ""
    above = raw_lines[line - 2] if line - 2 >= 0 else ""
    return bool(pattern.search(here)) or bool(pattern.search(above))


# ---------------------------------------------------------------------------
# Repo scan
# ---------------------------------------------------------------------------

class Repo:
    """Scanned view of src/: file list plus cached raw/stripped text."""

    def __init__(self, root):
        self.root = root
        self.files = []
        self._text = {}
        self._stripped = {}
        base = os.path.join(root, "src")
        if os.path.isdir(base):
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith("build") and d != ".git")
                for fname in sorted(filenames):
                    if fname.endswith(SOURCE_SUFFIXES):
                        rel = os.path.relpath(
                            os.path.join(dirpath, fname),
                            root).replace(os.sep, "/")
                        self.files.append(rel)

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

    def raw_lines(self, rel):
        return self.text(rel).split("\n")


# ---------------------------------------------------------------------------
# Atomic operation sites
# ---------------------------------------------------------------------------

# Member-call spelling of the std::atomic API. Operator forms (++, +=,
# implicit conversion) exist but do not occur in this codebase; the
# atomic-outside-sync rule keeps raw atomics confined to reviewed files
# where the member-call discipline is upheld.
ATOMIC_OP_RE = re.compile(
    r"\.\s*(load|store|exchange|compare_exchange_weak|"
    r"compare_exchange_strong|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor)\s*\(")

ATOMIC_TYPE_RE = re.compile(r"\bstd\s*::\s*atomic\b")

MEMORY_ORDER_RE = re.compile(r"\bmemory_order\b|\bmemory_order_\w+")

SEQCST_RE = re.compile(r"\bmemory_order(?:_seq_cst\b|\s*::\s*seq_cst\b)")

# Atomic reads that make a loop condition a busy-wait candidate.
ATOMIC_READ_RE = re.compile(
    r"\.\s*(?:load|compare_exchange_weak|compare_exchange_strong)\s*\(")

PAUSE_RE = re.compile(
    r"\bCpuRelax\s*\(|\byield\s*\(|\b_mm_pause\s*\(|\bpause\s*\(|"
    r"\bsleep_for\b|\bWait\s*\(")


class OpSite:
    def __init__(self, rel, line, method, args):
        self.rel = rel
        self.line = line
        self.method = method
        self.args = args  # Stripped text of the balanced argument list.

    @property
    def is_cas(self):
        return self.method.startswith("compare_exchange")

    @property
    def order_count(self):
        return len(MEMORY_ORDER_RE.findall(self.args))


def op_sites(repo, rel):
    stripped = repo.stripped(rel)
    sites = []
    for match in ATOMIC_OP_RE.finditer(stripped):
        open_idx = match.end() - 1
        close = _matching_paren_end(stripped, open_idx)
        if close < 0:
            continue
        sites.append(OpSite(rel, _line_of(stripped, match.start()),
                            match.group(1),
                            stripped[open_idx + 1:close - 1]))
    return sites


# ---------------------------------------------------------------------------
# Loop regions (for the CAS-strength and spin rules)
# ---------------------------------------------------------------------------

class LoopRegion:
    def __init__(self, start, end, kind, cond_span, body_span):
        self.start = start          # Offset of the loop keyword.
        self.end = end              # Offset past the body.
        self.kind = kind            # "while" | "for" | "do" | "do-tail"
        self.cond_span = cond_span  # (start, end) inside the parens.
        self.body_span = body_span  # (start, end) of the body statement.


def loop_regions(stripped):
    regions = []
    for match in re.finditer(r"\b(while|for)\s*\(", stripped):
        open_idx = match.end() - 1
        close = _matching_paren_end(stripped, open_idx)
        if close < 0:
            continue
        kind = match.group(1)
        # `} while (...)` is the tail of a do-while: its body is the
        # preceding block, which the `do` region below covers.
        back = match.start() - 1
        while back >= 0 and stripped[back] in " \t\n":
            back -= 1
        if kind == "while" and back >= 0 and stripped[back] == "}":
            kind = "do-tail"
        j = close
        while j < len(stripped) and stripped[j] in " \t\n":
            j += 1
        if j < len(stripped) and stripped[j] == "{":
            body_end = _matching_brace_end(stripped, j)
            if body_end < 0:
                body_end = j + 1
            body_span = (j, body_end)
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
            body_end = _matching_brace_end(stripped, j)
            if body_end > 0:
                regions.append(LoopRegion(match.start(), body_end, "do",
                                          None, (j, body_end)))
    return regions


def in_loop(regions, pos):
    return any(r.start <= pos < r.end for r in regions)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def check_implicit_order(repo):
    findings = []
    for rel in repo.files:
        raw_lines = repo.raw_lines(rel)
        for site in op_sites(repo, rel):
            required = 2 if site.is_cas else 1
            if site.order_count >= required:
                continue
            if _waived(raw_lines, site.line, "order"):
                continue
            need = ("both success and failure std::memory_order arguments"
                    if site.is_cas else "an explicit std::memory_order")
            findings.append(Finding(
                "atomic-implicit-order", rel, site.line,
                f"atomic '{site.method}' without {need}: the implicit "
                "seq_cst default is indistinguishable from an "
                "unconsidered order. Spell the order, or waive with "
                "`// sync: order <reason>`"))
    return findings


def check_seqcst_reason(repo):
    findings = []
    for rel in repo.files:
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        for match in SEQCST_RE.finditer(stripped):
            line = _line_of(stripped, match.start())
            if _waived(raw_lines, line, "seqcst"):
                continue
            findings.append(Finding(
                "atomic-seqcst-needs-reason", rel, line,
                "memory_order_seq_cst without a justification: seq_cst "
                "is the most expensive order and is almost always cargo "
                "cult. Downgrade it, or justify with "
                "`// sync: seqcst <why>` (e.g. naming the "
                "store-buffering pair that needs the total order)"))
    return findings


def check_outside_sync(repo, allowlist):
    findings = []
    for rel in repo.files:
        if rel.startswith(SYNC_DIR_PREFIX) or rel in allowlist:
            continue
        stripped = repo.stripped(rel)
        match = ATOMIC_TYPE_RE.search(stripped)
        if not match:
            continue
        line = _line_of(stripped, match.start())
        findings.append(Finding(
            "atomic-outside-sync", rel, line,
            "raw std::atomic outside src/common/sync/: compose the "
            "vetted primitives (Snapshot<T>) instead, or "
            f"allowlist this file in {ALLOWLIST_PATH} with a rationale"))
    return findings


def check_cas_strength(repo):
    findings = []
    for rel in repo.files:
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        regions = loop_regions(stripped)
        for match in re.finditer(r"\bcompare_exchange_(weak|strong)\b",
                                 stripped):
            line = _line_of(stripped, match.start())
            if _waived(raw_lines, line, "cas"):
                continue
            looped = in_loop(regions, match.start())
            if match.group(1) == "strong" and looped:
                findings.append(Finding(
                    "cas-weak-loop", rel, line,
                    "compare_exchange_strong inside a retry loop: the "
                    "loop already tolerates spurious failure, so use "
                    "the cheaper compare_exchange_weak (or waive with "
                    "`// sync: cas <reason>`)"))
            elif match.group(1) == "weak" and not looped:
                findings.append(Finding(
                    "cas-strong-single", rel, line,
                    "single-shot compare_exchange_weak: weak CAS may "
                    "fail spuriously and silently drop the update; use "
                    "compare_exchange_strong (or waive with "
                    "`// sync: cas <reason>`)"))
    return findings


def check_spin_without_pause(repo):
    findings = []
    for rel in repo.files:
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        for region in loop_regions(stripped):
            if region.kind in ("do", "do-tail") or region.cond_span is None:
                continue
            cond = stripped[region.cond_span[0]:region.cond_span[1]]
            if not ATOMIC_READ_RE.search(cond):
                continue
            body = stripped[region.body_span[0]:region.body_span[1]]
            effective = body.strip(" \t\n{};")
            if effective and not PAUSE_RE.search(body):
                # Non-trivial body without a pause: a progress loop (the
                # body advances the condition), not a spin — quiet.
                continue
            if effective:
                continue  # Pause-bearing body: conforming busy-wait.
            line = _line_of(stripped, region.start)
            if _waived(raw_lines, line, "spin"):
                continue
            findings.append(Finding(
                "spin-without-pause", rel, line,
                "busy-wait on an atomic with an empty loop body: add "
                "CpuRelax() (src/common/sync/pause.h) or a yield to the "
                "body — a pauseless spin starves the sibling hyperthread "
                "and pays the memory-order machine-clear penalty (or "
                "waive with `// sync: spin <reason>`)"))
    return findings


def check_volatile(repo):
    findings = []
    for rel in repo.files:
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        for match in re.finditer(r"\bvolatile\b", stripped):
            # `asm volatile` qualifies the asm statement, not data.
            prefix = stripped[max(0, match.start() - 24):match.start()]
            if re.search(r"\basm\s*$|__asm__\s*$", prefix):
                continue
            line = _line_of(stripped, match.start())
            if _waived(raw_lines, line, "volatile"):
                continue
            findings.append(Finding(
                "volatile-as-sync", rel, line,
                "volatile is not a synchronization primitive in C++ (no "
                "atomicity, no ordering, races are still UB): use "
                "std::atomic with an explicit memory order, or waive a "
                "genuine MMIO/signal-handler use with "
                "`// sync: volatile <reason>`"))
    return findings


# ---------------------------------------------------------------------------
# Allowlist (scripts/sync_files.txt)
# ---------------------------------------------------------------------------

def load_allowlist(root):
    """Returns {repo-relative path: (rationale, lineno)}."""
    path = os.path.join(root, ALLOWLIST_PATH)
    entries = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                entry, _, rationale = line.partition("#")
                entries[entry.strip()] = (rationale.strip(), lineno)
    return entries


def check_allowlist(repo, allowlist):
    """Stale or rationale-less entries fail: the allowlist must track
    reality, or it silently grandfathers future atomics in."""
    findings = []
    for entry, (rationale, lineno) in sorted(allowlist.items()):
        if entry not in repo.files:
            findings.append(Finding(
                "sync-stale-allowlist", ALLOWLIST_PATH, lineno,
                f"allowlist entry '{entry}' names no file under src/; "
                "remove it"))
        elif not ATOMIC_TYPE_RE.search(repo.stripped(entry)):
            findings.append(Finding(
                "sync-stale-allowlist", ALLOWLIST_PATH, lineno,
                f"allowlist entry '{entry}' no longer contains "
                "std::atomic; remove it so the file goes back under the "
                "atomic-outside-sync rule"))
        elif not rationale:
            findings.append(Finding(
                "sync-stale-allowlist", ALLOWLIST_PATH, lineno,
                f"allowlist entry '{entry}' has no rationale; append "
                "`# <why this file owns raw atomics>`"))
    return findings


RULE_IDS_ALL = (
    "atomic-implicit-order",
    "atomic-seqcst-needs-reason",
    "atomic-outside-sync",
    "cas-weak-loop",
    "cas-strong-single",
    "spin-without-pause",
    "volatile-as-sync",
    "sync-stale-allowlist",
)


def run_checks(root):
    repo = Repo(root)
    allowlist = load_allowlist(root)
    findings = []
    findings.extend(check_allowlist(repo, allowlist))
    findings.extend(check_implicit_order(repo))
    findings.extend(check_seqcst_reason(repo))
    findings.extend(check_outside_sync(repo, allowlist))
    findings.extend(check_cas_strength(repo))
    findings.extend(check_spin_without_pause(repo))
    findings.extend(check_volatile(repo))
    findings.sort(key=lambda f: (f.path, f.rule, f.line))
    return findings


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def load_baseline(root):
    path = os.path.join(root, BASELINE_PATH)
    entries = set()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if line and not line.startswith("#"):
                    entries.add(line)
    return entries


def write_baseline(root, findings):
    path = os.path.join(root, BASELINE_PATH)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# Accepted tasq_sync.py findings (rule<TAB>path).\n")
        f.write("# Regenerate with: python3 scripts/tasq_sync.py "
                "--update-baseline\n")
        for key in sorted({finding.key() for finding in findings}):
            f.write(key + "\n")


# ---------------------------------------------------------------------------
# Self-test: per-rule positive + quiet-negative fixtures + coverage gate
# ---------------------------------------------------------------------------

# Conforming base tree: one vetted-primitive file inside src/common/sync/
# exercising every near-miss shape (explicit orders, weak CAS in a retry
# loop, progress-loop bodies), plus an atomic-free cold file. This is the
# negative fixture for most rules and the base the positives perturb.
COUNTER_H = (
    "#ifndef TASQ_COMMON_SYNC_COUNTER_H_\n"
    "#define TASQ_COMMON_SYNC_COUNTER_H_\n"
    "#include <atomic>\n"
    "namespace tasq {\n"
    "class Counter {\n"
    " public:\n"
    "  void Add(unsigned v) { c_.fetch_add(v, std::memory_order_relaxed); }\n"
    "  unsigned Get() const { return c_.load(std::memory_order_acquire); }\n"
    "  bool RaiseTo(unsigned want) {\n"
    "    unsigned seen = c_.load(std::memory_order_relaxed);\n"
    "    while (!c_.compare_exchange_weak(seen, want,\n"
    "                                     std::memory_order_acq_rel,\n"
    "                                     std::memory_order_relaxed)) {\n"
    "      if (seen >= want) return false;\n"
    "    }\n"
    "    return true;\n"
    "  }\n"
    " private:\n"
    "  std::atomic<unsigned> c_{0};\n"
    "};\n"
    "}  // namespace tasq\n"
    "#endif\n")

GOOD_TREE = {
    "src/common/sync/counter.h": COUNTER_H,
    "src/app/cold.cc": "int Plain(int x) { return x + 1; }\n",
}

GOOD_ALLOW = ""


def _with(base, **overrides):
    tree = dict(base)
    for path, content in overrides.items():
        if content is None:
            tree.pop(path, None)
        else:
            tree[path] = content
    return tree


def _inject(member):
    """Positive fixture: `member` lands inside the Counter class (in the
    sync dir, so atomic-outside-sync stays quiet unless that is the rule
    under test)."""
    return _with(GOOD_TREE, **{
        "src/common/sync/counter.h": COUNTER_H.replace(
            " private:",
            f"  {member}\n private:")})


# rule -> (positive tree, positive allowlist, negative tree, negative
#          allowlist). Positive must fire exactly its rule; negative must
#          be completely quiet.
def self_test_cases():
    cases = {}
    cases["atomic-implicit-order"] = (
        _inject("void Bump() { c_.fetch_add(1); }"), GOOD_ALLOW,
        _inject("void Bump() { c_.fetch_add(1); }"
                "  // sync: order wraps a legacy counter ABI"),
        GOOD_ALLOW)
    cases["atomic-seqcst-needs-reason"] = (
        _inject("void Seal() { c_.store(0, std::memory_order_seq_cst); }"),
        GOOD_ALLOW,
        _inject("// sync: seqcst SB litmus against the drain flag\n"
                "  void Seal() { c_.store(0, std::memory_order_seq_cst); }"),
        GOOD_ALLOW)
    cases["atomic-outside-sync"] = (
        _with(GOOD_TREE, **{
            "src/app/stats.h": "#include <atomic>\n"
                               "inline std::atomic<int> g_requests{0};\n"}),
        GOOD_ALLOW,
        _with(GOOD_TREE, **{
            "src/app/stats.h": "#include <atomic>\n"
                               "inline std::atomic<int> g_requests{0};\n"}),
        "src/app/stats.h  # relaxed request counters, stats only\n")
    cases["cas-weak-loop"] = (
        _inject("void ForceTo(unsigned want) {\n"
                "    unsigned seen = c_.load(std::memory_order_relaxed);\n"
                "    while (!c_.compare_exchange_strong(seen, want,\n"
                "               std::memory_order_acq_rel,\n"
                "               std::memory_order_relaxed)) {\n"
                "      seen = c_.load(std::memory_order_relaxed);\n"
                "    }\n"
                "  }"), GOOD_ALLOW,
        _inject("void ForceTo(unsigned want) {\n"
                "    unsigned seen = c_.load(std::memory_order_relaxed);\n"
                "    // sync: cas strong keeps the ABA analysis one-shot\n"
                "    while (!c_.compare_exchange_strong(seen, want,\n"
                "               std::memory_order_acq_rel,\n"
                "               std::memory_order_relaxed)) {\n"
                "      seen = c_.load(std::memory_order_relaxed);\n"
                "    }\n"
                "  }"), GOOD_ALLOW)
    cases["cas-strong-single"] = (
        _inject("bool TryOnce(unsigned want) {\n"
                "    unsigned seen = 0;\n"
                "    return c_.compare_exchange_weak(seen, want,\n"
                "               std::memory_order_acq_rel,\n"
                "               std::memory_order_relaxed);\n"
                "  }"), GOOD_ALLOW,
        _inject("bool TryOnce(unsigned want) {\n"
                "    unsigned seen = 0;\n"
                "    return c_.compare_exchange_strong(seen, want,\n"
                "               std::memory_order_acq_rel,\n"
                "               std::memory_order_relaxed);\n"
                "  }"), GOOD_ALLOW)
    cases["spin-without-pause"] = (
        _inject("void WaitZero() const {\n"
                "    while (c_.load(std::memory_order_acquire) != 0) {}\n"
                "  }"), GOOD_ALLOW,
        _inject("void WaitZero() const {\n"
                "    while (c_.load(std::memory_order_acquire) != 0) {\n"
                "      CpuRelax();\n"
                "    }\n"
                "  }"), GOOD_ALLOW)
    cases["volatile-as-sync"] = (
        _inject("volatile bool ready_ = false;"), GOOD_ALLOW,
        _inject("void Fence() { asm volatile(\"\" ::: \"memory\"); }"),
        GOOD_ALLOW)
    cases["sync-stale-allowlist"] = (
        GOOD_TREE, "src/app/ghost.h  # file was deleted last PR\n",
        GOOD_TREE, GOOD_ALLOW)
    return cases


def _materialize(tmp, tree, allow_text):
    for rel, content in tree.items():
        path = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
    allow_file = os.path.join(tmp, ALLOWLIST_PATH)
    os.makedirs(os.path.dirname(allow_file), exist_ok=True)
    with open(allow_file, "w", encoding="utf-8") as f:
        f.write(allow_text)


def self_test():
    """Coverage-gated: every rule id must have a positive fixture that
    fires exactly that rule and a negative fixture that is completely
    quiet (a near-miss or a waived/allowlisted variant)."""
    cases = self_test_cases()
    uncovered = set(RULE_IDS_ALL) - set(cases)
    if uncovered:
        print(f"self-test FAILED: rules without fixtures: "
              f"{sorted(uncovered)}")
        return 1
    failures = 0
    for rule, (pos_tree, pos_allow, neg_tree, neg_allow) in \
            sorted(cases.items()):
        with tempfile.TemporaryDirectory(
                prefix="tasq_sync_selftest_") as tmp:
            _materialize(tmp, pos_tree, pos_allow)
            findings = run_checks(tmp)
            fired = {f.rule for f in findings}
            if rule not in fired:
                print(f"self-test FAILED: [{rule}] positive fixture did "
                      f"not fire (saw {sorted(fired) or 'nothing'})")
                failures += 1
            elif fired != {rule}:
                print(f"self-test FAILED: [{rule}] positive fixture also "
                      f"fired {sorted(fired - {rule})}")
                for f in findings:
                    print(f"  saw: {f}")
                failures += 1
        with tempfile.TemporaryDirectory(
                prefix="tasq_sync_selftest_") as tmp:
            _materialize(tmp, neg_tree, neg_allow)
            leftover = run_checks(tmp)
            if leftover:
                print(f"self-test FAILED: [{rule}] negative fixture is "
                      "not quiet:")
                for f in leftover:
                    print(f"  {f}")
                failures += 1
    if failures:
        return 1
    print(f"self-test passed: {len(cases)} rules, each with a firing "
          "positive and a quiet near-miss/waived negative")
    return 0


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def list_sites(root):
    repo = Repo(root)
    total = 0
    for rel in repo.files:
        for site in op_sites(repo, rel):
            orders = MEMORY_ORDER_RE.findall(site.args)
            shown = ", ".join(o.replace("memory_order_", "")
                              for o in orders) or "IMPLICIT seq_cst"
            print(f"{site.rel}:{site.line}: {site.method}({shown})")
            total += 1
    print(f"{total} atomic operation site(s) under src/")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to analyze")
    parser.add_argument("--update-baseline", action="store_true",
                        help="accept all current findings into the baseline")
    parser.add_argument("--self-test", action="store_true",
                        help="run per-rule positive/negative fixtures")
    parser.add_argument("--list-sites", action="store_true",
                        help="list every atomic operation site and its "
                        "memory orders")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if args.list_sites:
        return list_sites(args.root)

    findings = run_checks(args.root)

    if args.update_baseline:
        write_baseline(args.root, findings)
        print(f"baseline updated with {len(findings)} finding(s)")
        return 0

    baseline = load_baseline(args.root)
    new = [f for f in findings if f.key() not in baseline]
    found_keys = {f.key() for f in findings}
    stale = sorted(baseline - found_keys)

    for finding in new:
        print(finding)
    if stale:
        print(f"note: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} (fixed findings — "
              "run --update-baseline to prune):")
        for key in stale:
            print(f"  {key}")
    if new:
        print(f"\n{len(new)} new sync finding(s). Fix them or, if "
              "accepted, run: python3 scripts/tasq_sync.py "
              "--update-baseline")
        return 1
    repo = Repo(args.root)
    sites = sum(len(op_sites(repo, rel)) for rel in repo.files)
    print(f"sync ok ({sites} atomic site(s) checked, "
          f"{len(findings)} baselined finding(s), {len(stale)} stale)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
