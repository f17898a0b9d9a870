#!/usr/bin/env python3
"""TASQ ownership & allocation-discipline conformance analyzer.

The serving layer now runs a zero-allocation warm fast path (tasq_hot.py)
and an arena-backed cold submit path (src/common/arena.h): per-request
memory comes from a bump-pointer Arena that resets between
requests instead of from the global heap. That discipline only survives
if ownership stays legible — a raw `new` without an owner, an
unannotated raw-pointer member, or an arena pointer stored past its
Reset() is exactly the kind of defect that compiles clean, passes tests,
and corrupts memory under production load. This analyzer (stdlib only,
same mold and CLI contract as tasq_lint / tasq_arch / tasq_num /
tasq_hot / tasq_sync) scans every source file under src/ and enforces a
written-down ownership policy (DESIGN.md, "Memory & ownership policy"):

  owning-raw-new          no raw `new` / `delete` / malloc-family call
                          outside the allowlisted allocator files
                          (src/common/arena.h, where placement-new IS the
                          implementation). Ownership lives in unique_ptr,
                          containers, or an Arena; a raw allocation has
                          no spelled owner and leaks on every early
                          return.
  owning-raw-member       a raw-pointer data member must say what it is:
                          `// own: borrowed <why>` (non-owning, outlived
                          by the pointee) or `// own: arena <why>`
                          (arena-allocated, freed by Reset). An owning
                          raw-pointer member is the bug; it must become
                          unique_ptr or arena-backed.
  unique-ptr-by-value-sink ownership transfer is spelled by-value: a
                          `unique_ptr<T>&` parameter hides whether the
                          callee takes the object, and a
                          `const unique_ptr<T>&` parameter should be
                          `T*` / `T&` (the caller's smart pointer is an
                          implementation detail, not an interface).
  shared-ptr-copy-in-loop copying a shared_ptr in a loop body bumps an
                          atomic refcount per iteration — contended-cache
                          line churn on exactly the paths that batch.
                          Take a reference outside the loop, move, or
                          waive with the measured reason.
  arena-escape            a pointer obtained from an Arena (New / Alloc)
                          is scoped to that arena's Reset(): storing it
                          into a member (`foo_ = ...`, `foo_.push_back`)
                          or returning it hands out memory that a later
                          Reset recycles under the caller.
  arena-nontrivial-dtor   Arena::New<T> never runs destructors (that is
                          the point: Reset() is O(1)); a T with a
                          user-declared destructor or obviously owning
                          members (string/vector/unique_ptr/...) must go
                          through NewObject<T>, which registers the
                          destructor to run at Reset, or stay off the
                          arena.

Waivers: a deliberate exception carries `// own: <reason>` on the
offending line or the line directly above it; the reason is mandatory
(anonymous suppressions rot). For owning-raw-member the annotation IS
the waiver grammar: `// own: borrowed <why>` or `// own: arena <why>`.

Known, accepted findings live in scripts/own_baseline.txt; the analyzer
exits nonzero only on findings not in the baseline. The baseline is
empty as of PR 9 and CI fails if it regrows (job static-analysis, via
scripts/check.sh analyzers).

Usage:
  python3 scripts/tasq_own.py                    analyze the repo
  python3 scripts/tasq_own.py --update-baseline  accept current findings
  python3 scripts/tasq_own.py --self-test        per-rule fixture check
  python3 scripts/tasq_own.py --list-members     list raw-pointer members
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join("scripts", "own_baseline.txt")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")

# Files whose business IS raw memory: the arena implements placement-new
# and block allocation, so the owning-raw-new rule does not apply inside.
ALLOCATOR_FILES = frozenset((
    "src/common/arena.h",
))


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


def _matching_brace_end(text, open_idx):
    """Index just past the `}` matching text[open_idx] == `{`, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _matching_paren_end(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _line_of(text, idx):
    return text[:idx].count("\n") + 1


WAIVER_RE = re.compile(r"//\s*own:\s*\S")
MEMBER_ANNOT_RE = re.compile(r"//\s*own:\s*(borrowed|arena)\s+\S")


def _waived(raw_lines, line, annot_re=WAIVER_RE):
    """True when `line` (1-based) carries or follows an `// own:` waiver."""
    here = raw_lines[line - 1] if line - 1 < len(raw_lines) else ""
    above = raw_lines[line - 2] if line - 2 >= 0 else ""
    return bool(annot_re.search(here)) or bool(annot_re.search(above))


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
                dirnames[:] = sorted(d for d in dirnames if d != ".git")
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
# Rule: owning-raw-new
# ---------------------------------------------------------------------------

# A new-expression (`new T`, `new (ptr) T`, `new[]`) or a malloc-family
# call. `= delete` (deleted functions) and `operator new/delete`
# *declarations* are not allocations and are filtered below.
RAW_NEW_RE = re.compile(
    r"\bnew\b"
    r"|\bdelete\b"
    r"|\b(?:malloc|calloc|realloc|free|strdup|aligned_alloc|posix_memalign)"
    r"\s*\(")


def check_raw_new(repo):
    findings = []
    for rel in repo.files:
        if rel in ALLOCATOR_FILES:
            continue
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        for match in RAW_NEW_RE.finditer(stripped):
            token = match.group(0).strip().split("(")[0].strip()
            if token == "delete":
                # `= delete;` / `= delete(...)` declares a deleted member,
                # and `operator delete` names the function, not a call.
                back = match.start() - 1
                while back >= 0 and stripped[back] in " \t\n":
                    back -= 1
                if back >= 0 and stripped[back] == "=":
                    continue
                if stripped[max(0, back - 7):back + 1].endswith("operator"):
                    continue
            if token == "new":
                back = match.start() - 1
                while back >= 0 and stripped[back] in " \t\n":
                    back -= 1
                if stripped[max(0, back - 7):back + 1].endswith("operator"):
                    continue
            line = _line_of(stripped, match.start())
            if _waived(raw_lines, line):
                continue
            findings.append(Finding(
                "owning-raw-new", rel, line,
                f"raw '{token}' outside the allocator allowlist: ownership "
                "must be spelled — use std::unique_ptr, a container, or an "
                "Arena (src/common/arena.h). Waive a deliberate exception "
                "with `// own: <reason>`"))
    return findings


# ---------------------------------------------------------------------------
# Rule: owning-raw-member
# ---------------------------------------------------------------------------

CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:TASQ_\w+\s+)?([A-Za-z_]\w*)"
    r"(?:\s*final)?(?:\s*:\s*[^;{]*)?\s*\{")

# A raw-pointer member declaration: `Type* name;` or `Type* name = ...;`.
# Function declarations carry a `(` and are skipped; references, smart
# pointers, and function-pointer typedefs never match the `*` before the
# terminal identifier.
MEMBER_PTR_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?"
    r"[A-Za-z_][\w:]*(?:\s*<[^<>;]*(?:<[^<>]*>)?[^<>;]*>)?"
    r"(?:\s+const)?\s*\*+\s*(?:const\s+)?"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*)?;\s*$")


def class_bodies(stripped):
    """Yields (class_name, body_start, body_end) for every class/struct
    definition, including nested ones (each gets its own region)."""
    for match in CLASS_HEAD_RE.finditer(stripped):
        open_idx = match.end() - 1
        end = _matching_brace_end(stripped, open_idx)
        if end > 0:
            yield match.group(1), open_idx + 1, end - 1


def member_statements(stripped, body_start, body_end):
    """Statements at depth 0 of one class body (member scope): nested
    braces (method bodies, nested classes, initializers) are skipped, so
    locals inside methods never register as members."""
    depth = 0
    stmt_start = body_start
    i = body_start
    while i < body_end:
        c = stripped[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                stmt_start = i + 1  # End of a method body / nested type.
        elif c == ";" and depth == 0:
            yield stmt_start, i + 1
            stmt_start = i + 1
        i += 1


def check_raw_members(repo, collect=None):
    findings = []
    for rel in repo.files:
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        for class_name, body_start, body_end in class_bodies(stripped):
            for start, end in member_statements(stripped, body_start,
                                                body_end):
                stmt = stripped[start:end]
                if "(" in stmt or ")" in stmt:
                    continue  # Function declaration or initializer call.
                flat = " ".join(stmt.split())
                if any(kw in flat for kw in
                       ("using ", "typedef ", "constexpr ", "friend ",
                        "static ")):
                    continue
                match = MEMBER_PTR_RE.match(flat)
                if not match:
                    continue
                # Offset of the declaration inside the statement (skip
                # leading newlines so the line number lands on the decl).
                decl_off = start + len(stmt) - len(stmt.lstrip())
                line = _line_of(stripped, decl_off)
                if collect is not None:
                    collect.append((rel, line, class_name, match.group(1)))
                if _waived(raw_lines, line, MEMBER_ANNOT_RE):
                    continue
                findings.append(Finding(
                    "owning-raw-member", rel, line,
                    f"raw-pointer member '{match.group(1)}' of "
                    f"'{class_name}' has no ownership annotation: mark it "
                    "`// own: borrowed <why>` or `// own: arena <why>`, "
                    "or make it a unique_ptr if it owns"))
    return findings


# ---------------------------------------------------------------------------
# Rule: unique-ptr-by-value-sink
# ---------------------------------------------------------------------------

# A unique_ptr taken by reference in a parameter list (the trailing `,`
# or `)` keeps local reference bindings out). Mutable refs hide the
# transfer; const refs leak the caller's storage choice into the API.
UNIQUE_REF_PARAM_RE = re.compile(
    r"(?P<const>\bconst\s+)?(?:std\s*::\s*)?unique_ptr\s*"
    r"<[^<>;(){}]*(?:<[^<>]*>)?[^<>;(){}]*>\s*&\s*[A-Za-z_]\w*\s*[,)]")


def check_unique_ptr_sinks(repo):
    findings = []
    for rel in repo.files:
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        for match in UNIQUE_REF_PARAM_RE.finditer(stripped):
            line = _line_of(stripped, match.start())
            if _waived(raw_lines, line):
                continue
            if match.group("const"):
                advice = ("a `const unique_ptr<T>&` parameter exposes the "
                          "caller's storage; take `T*` or `T&` instead")
            else:
                advice = ("a `unique_ptr<T>&` parameter hides whether the "
                          "callee takes ownership; sink by value "
                          "(`unique_ptr<T>`) and std::move at the caller")
            findings.append(Finding(
                "unique-ptr-by-value-sink", rel, line,
                advice + ". Waive with `// own: <reason>`"))
    return findings


# ---------------------------------------------------------------------------
# Rule: shared-ptr-copy-in-loop
# ---------------------------------------------------------------------------

class LoopRegion:
    def __init__(self, start, end, body_span):
        self.start = start
        self.end = end
        self.body_span = body_span


def loop_regions(stripped):
    regions = []
    for match in re.finditer(r"\b(while|for)\s*\(", stripped):
        open_idx = match.end() - 1
        close = _matching_paren_end(stripped, open_idx)
        if close < 0:
            continue
        j = close
        while j < len(stripped) and stripped[j] in " \t\n":
            j += 1
        if j < len(stripped) and stripped[j] == "{":
            body_end = _matching_brace_end(stripped, j)
            if body_end < 0:
                body_end = j + 1
            body_span = (j, body_end)
        else:
            semi = stripped.find(";", j)
            body_span = (j, semi + 1 if semi >= 0 else j)
        regions.append(LoopRegion(match.start(), body_span[1], body_span))
    for match in re.finditer(r"\bdo\b(?!\w)", stripped):
        j = match.end()
        while j < len(stripped) and stripped[j] in " \t\n":
            j += 1
        if j < len(stripped) and stripped[j] == "{":
            body_end = _matching_brace_end(stripped, j)
            if body_end > 0:
                regions.append(LoopRegion(match.start(), body_end,
                                          (j, body_end)))
    return regions


# An explicit shared_ptr declaration copy-initialized inside a loop body.
# Moves, fresh make_shared results, and empty/null initializations do not
# bump a refcount and are excluded.
SHARED_DECL_RE = re.compile(
    r"(?:std\s*::\s*)?shared_ptr\s*<[^<>;(){}]*(?:<[^<>]*>)?[^<>;(){}]*>\s*"
    r"(?:const\s*&?\s*)?[A-Za-z_]\w*\s*(?:=\s*(?P<init>[^;]+)"
    r"|\(\s*(?P<ctor>[^;)]+)\))\s*;")

NON_COPY_INIT_RE = re.compile(
    r"std\s*::\s*move\b|make_shared\b|\bnullptr\b|^\s*$")


def check_shared_copies(repo):
    findings = []
    for rel in repo.files:
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        regions = loop_regions(stripped)
        if not regions:
            continue
        for match in SHARED_DECL_RE.finditer(stripped):
            body_start, body_end = 0, 0
            in_body = any(r.body_span[0] <= match.start() < r.body_span[1]
                          for r in regions)
            if not in_body:
                continue
            init = match.group("init") or match.group("ctor") or ""
            if NON_COPY_INIT_RE.search(init):
                continue
            # Reference bindings alias without copying.
            head = stripped[match.start():match.start("init")
                            if match.group("init") else match.end()]
            if "&" in head.split("<", 1)[-1].rsplit(">", 1)[-1]:
                continue
            line = _line_of(stripped, match.start())
            if _waived(raw_lines, line):
                continue
            findings.append(Finding(
                "shared-ptr-copy-in-loop", rel, line,
                "shared_ptr copied every loop iteration: each copy is an "
                "atomic refcount RMW (contended cache line under "
                "concurrency). Bind a reference outside the loop, move, "
                "or waive with `// own: <measured reason>`"))
    return findings


# ---------------------------------------------------------------------------
# Arena rules: declarations, allocation sites
# ---------------------------------------------------------------------------

# `Arena name` / `Arena& name` / `Arena* name` —
# local, parameter, or member. The declared identifier anchors the
# allocation-site scan.
ARENA_DECL_RE = re.compile(
    r"\bArena\s*[&*]?\s+([A-Za-z_]\w*)\b")

ARENA_ALLOC_METHODS = ("New", "NewObject", "NewArray", "Alloc")


ARENA_SITE_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*("
    + "|".join(ARENA_ALLOC_METHODS) + r")\b"
    r"\s*(?:<\s*([A-Za-z_][\w:]*)\s*[>,])?")


def arena_alloc_sites(stripped):
    """Yields (offset, arena_ident, method, type_arg|None) for every
    allocation call on an arena handle. A handle is an identifier
    declared as Arena in this file, or any identifier
    containing "arena" — member arenas are declared in the header, so
    the .cc where the allocation happens only ever sees the name."""
    names = set(ARENA_DECL_RE.findall(stripped))
    for match in ARENA_SITE_RE.finditer(stripped):
        ident = match.group(1)
        if ident in names or "arena" in ident.lower():
            yield match.start(), ident, match.group(2), match.group(3)


def _enclosing_statement(stripped, pos):
    """(start, end, text) of the statement containing `pos`: from the
    previous ; { or } to the next ; at the same paren depth."""
    start = max(stripped.rfind(";", 0, pos), stripped.rfind("{", 0, pos),
                stripped.rfind("}", 0, pos)) + 1
    depth = 0
    i = pos
    while i < len(stripped):
        c = stripped[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == ";" and depth <= 0:
            return start, i + 1, stripped[start:i + 1]
        i += 1
    return start, len(stripped), stripped[start:]


# A member store: assignment / growth call on a trailing-underscore
# identifier (the repo's member naming convention), directly or through
# `this->`.
MEMBER_STORE_RE = re.compile(
    r"(?:\bthis\s*->\s*)?[A-Za-z_]\w*_\s*(?:\[[^\]]*\]\s*)?"
    r"(?:=[^=]|\.\s*(?:push_back|emplace_back|emplace|insert|assign)\s*\()")


def check_arena_escape(repo):
    findings = []
    for rel in repo.files:
        if rel in ALLOCATOR_FILES:
            continue
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        for pos, ident, method, _ in arena_alloc_sites(stripped):
            _, _, stmt = _enclosing_statement(stripped, pos)
            escapes = bool(re.match(r"\s*return\b", stmt)) or \
                bool(MEMBER_STORE_RE.search(stmt))
            if not escapes:
                continue
            line = _line_of(stripped, pos)
            if _waived(raw_lines, line):
                continue
            findings.append(Finding(
                "arena-escape", rel, line,
                f"'{ident}.{method}' result stored into a member or "
                "returned: arena memory dies at the owning arena's "
                "Reset(); longer-lived storage must copy out or own "
                "the arena itself. Waive with `// own: <reason>` if the "
                "target provably outlives no Reset"))
    return findings


# A type with a user-declared destructor or members that own heap memory
# must not go through the dtor-skipping New<T>.
OWNING_MEMBER_TYPES_RE = re.compile(
    r"\bstd\s*::\s*(?:string|vector|deque|map|unordered_map|set|"
    r"unordered_set|list|function|unique_ptr|shared_ptr|optional|any)\b")


def _type_definitions(repo):
    """name -> (rel, body text) for every class/struct defined in src/."""
    defs = {}
    for rel in repo.files:
        stripped = repo.stripped(rel)
        for name, body_start, body_end in class_bodies(stripped):
            defs.setdefault(name, (rel, stripped[body_start:body_end]))
    return defs


def check_arena_nontrivial_dtor(repo):
    findings = []
    defs = _type_definitions(repo)
    for rel in repo.files:
        if rel in ALLOCATOR_FILES:
            continue
        stripped = repo.stripped(rel)
        raw_lines = repo.raw_lines(rel)
        for pos, ident, method, type_arg in arena_alloc_sites(stripped):
            if method != "New" or not type_arg:
                continue  # NewObject registers the dtor; Alloc is bytes.
            short = type_arg.split("::")[-1]
            if short not in defs:
                continue  # Can't see the definition; the static_assert
                # in Arena::New still backstops at compile time.
            _, body = defs[short]
            nontrivial = (f"~{short}" in body or
                          OWNING_MEMBER_TYPES_RE.search(body))
            if not nontrivial:
                continue
            line = _line_of(stripped, pos)
            if _waived(raw_lines, line):
                continue
            findings.append(Finding(
                "arena-nontrivial-dtor", rel, line,
                f"'{ident}.New<{short}>' places a type with a "
                "user-declared destructor or owning members on the "
                "arena: New skips destructors by design. Use "
                f"NewObject<{short}> (registers the destructor to run "
                "at Reset) or keep the type off the arena"))
    return findings


RULE_IDS_ALL = (
    "owning-raw-new",
    "owning-raw-member",
    "unique-ptr-by-value-sink",
    "shared-ptr-copy-in-loop",
    "arena-escape",
    "arena-nontrivial-dtor",
)


def run_checks(root):
    repo = Repo(root)
    findings = []
    findings.extend(check_raw_new(repo))
    findings.extend(check_raw_members(repo))
    findings.extend(check_unique_ptr_sinks(repo))
    findings.extend(check_shared_copies(repo))
    findings.extend(check_arena_escape(repo))
    findings.extend(check_arena_nontrivial_dtor(repo))
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
        f.write("# Accepted tasq_own.py findings (rule<TAB>path).\n")
        f.write("# Regenerate with: python3 scripts/tasq_own.py "
                "--update-baseline\n")
        for key in sorted({finding.key() for finding in findings}):
            f.write(key + "\n")


# ---------------------------------------------------------------------------
# Self-test: per-rule positive + quiet-negative fixtures + coverage gate
# ---------------------------------------------------------------------------

# Minimal arena surface for fixtures: enough shape for the rules to
# anchor on (decl pattern + method names), not a working allocator.
ARENA_H = (
    "#ifndef TASQ_COMMON_ARENA_H_\n"
    "#define TASQ_COMMON_ARENA_H_\n"
    "namespace tasq {\n"
    "class Arena {\n"
    " public:\n"
    "  void* Alloc(unsigned long n);\n"
    "  template <typename T> T* New();\n"
    "  template <typename T> T* NewObject();\n"
    "};\n"
    "}  // namespace tasq\n"
    "#endif\n")

# Conforming base tree: a pool that owns through unique_ptr, borrows with
# an annotation, and uses its arena without escapes. Every rule's
# negative starts here.
GOOD_TREE = {
    "src/common/arena.h": ARENA_H,
    "src/app/pool.h": (
        "#ifndef TASQ_APP_POOL_H_\n"
        "#define TASQ_APP_POOL_H_\n"
        "#include <memory>\n"
        "#include \"common/arena.h\"\n"
        "namespace tasq {\n"
        "struct Slab { double values[8]; };\n"
        "class Pool {\n"
        " public:\n"
        "  void Fill(int n);\n"
        "  void Adopt(std::unique_ptr<Slab> slab);\n"
        " private:\n"
        "  std::unique_ptr<Slab> owned_;\n"
        "  const Slab* view_ = nullptr;  // own: borrowed outlived by "
        "owned_\n"
        "  Arena arena_;\n"
        "};\n"
        "}  // namespace tasq\n"
        "#endif\n"),
    "src/app/pool.cc": (
        "#include \"app/pool.h\"\n"
        "#include <memory>\n"
        "#include <utility>\n"
        "namespace tasq {\n"
        "void Pool::Fill(int n) {\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    Slab* scratch = arena_.New<Slab>();\n"
        "    scratch->values[0] = i;\n"
        "  }\n"
        "}\n"
        "void Pool::Adopt(std::unique_ptr<Slab> slab) {\n"
        "  owned_ = std::move(slab);\n"
        "  view_ = owned_.get();\n"
        "}\n"
        "}  // namespace tasq\n"),
}


def _with(base, **overrides):
    tree = dict(base)
    for path, content in overrides.items():
        if content is None:
            tree.pop(path, None)
        else:
            tree[path] = content
    return tree


def _in_fill(statement):
    """Positive fixture: `statement` lands inside Pool::Fill's loop body."""
    return _with(GOOD_TREE, **{
        "src/app/pool.cc": GOOD_TREE["src/app/pool.cc"].replace(
            "    scratch->values[0] = i;",
            "    scratch->values[0] = i;\n"
            f"    {statement}")})


def self_test_cases():
    """rule -> (positive tree, negative tree). The positive must fire
    exactly that rule; the negative must be completely quiet."""
    cases = {}
    cases["owning-raw-new"] = (
        _in_fill("double* p = new double[8]; delete[] p;"),
        _in_fill("double* p = new double[8]; delete[] p;"
                 "  // own: bootstrap buffer, freed on the next line"))
    cases["owning-raw-member"] = (
        _with(GOOD_TREE, **{
            "src/app/pool.h": GOOD_TREE["src/app/pool.h"].replace(
                "  const Slab* view_ = nullptr;  // own: borrowed "
                "outlived by owned_\n",
                "  const Slab* view_ = nullptr;\n")}),
        GOOD_TREE)
    cases["unique-ptr-by-value-sink"] = (
        _with(GOOD_TREE, **{
            "src/app/pool.h": GOOD_TREE["src/app/pool.h"].replace(
                "  void Adopt(std::unique_ptr<Slab> slab);",
                "  void Adopt(std::unique_ptr<Slab> slab);\n"
                "  void Peek(const std::unique_ptr<Slab>& slab);")}),
        _with(GOOD_TREE, **{
            "src/app/pool.h": GOOD_TREE["src/app/pool.h"].replace(
                "  void Adopt(std::unique_ptr<Slab> slab);",
                "  void Adopt(std::unique_ptr<Slab> slab);\n"
                "  // own: deserializer swaps the pointee in place\n"
                "  void Swap(std::unique_ptr<Slab>& slab);")}))
    cases["shared-ptr-copy-in-loop"] = (
        _in_fill("std::shared_ptr<Slab> held = shared_slab_;"),
        _in_fill("std::shared_ptr<Slab> held = shared_slab_;"
                 "  // own: pin per batch, 1 RMW per 16 requests, "
                 "measured"))
    cases["arena-escape"] = (
        _in_fill("view_ = arena_.New<Slab>();"),
        _in_fill("view_ = arena_.New<Slab>();"
                 "  // own: member arena, Reset only in ~Pool"))
    cases["arena-nontrivial-dtor"] = (
        _with(_in_fill("Report* r = arena_.New<Report>(); (void)r;"), **{
            "src/app/report.h": (
                "#ifndef TASQ_APP_REPORT_H_\n"
                "#define TASQ_APP_REPORT_H_\n"
                "#include <vector>\n"
                "namespace tasq {\n"
                "struct Report { std::vector<double> curve; };\n"
                "}  // namespace tasq\n"
                "#endif\n")}),
        _with(_in_fill("Report* r = arena_.NewObject<Report>(); (void)r;"),
              **{
            "src/app/report.h": (
                "#ifndef TASQ_APP_REPORT_H_\n"
                "#define TASQ_APP_REPORT_H_\n"
                "#include <vector>\n"
                "namespace tasq {\n"
                "struct Report { std::vector<double> curve; };\n"
                "}  // namespace tasq\n"
                "#endif\n")}))
    return cases


def _materialize(tmp, tree):
    for rel, content in tree.items():
        path = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)


def self_test():
    """Coverage-gated: every rule id must have a positive fixture firing
    exactly that rule and a negative fixture that is completely quiet."""
    cases = self_test_cases()
    uncovered = set(RULE_IDS_ALL) - set(cases)
    if uncovered:
        print(f"self-test FAILED: rules without fixtures: "
              f"{sorted(uncovered)}")
        return 1
    failures = 0
    for rule, (pos_tree, neg_tree) in sorted(cases.items()):
        with tempfile.TemporaryDirectory(
                prefix="tasq_own_selftest_") as tmp:
            _materialize(tmp, pos_tree)
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
                prefix="tasq_own_selftest_") as tmp:
            _materialize(tmp, neg_tree)
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
          "positive fixture and a quiet annotated/waived negative")
    return 0


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

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
    parser.add_argument("--list-members", action="store_true",
                        help="list every raw-pointer data member found")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if args.list_members:
        repo = Repo(args.root)
        members = []
        check_raw_members(repo, collect=members)
        for rel, line, class_name, name in sorted(members):
            print(f"{rel}:{line}: {class_name}::{name}")
        print(f"{len(members)} raw-pointer member(s)")
        return 0

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
        print(f"\n{len(new)} new ownership finding(s). Fix them or, if "
              "accepted, run: python3 scripts/tasq_own.py "
              "--update-baseline")
        return 1
    print(f"own ok ({len(findings)} baselined finding(s), "
          f"{len(stale)} stale)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
