"""own: ownership & allocation discipline for src/ (DESIGN.md, "Memory &
ownership policy").

  owning-raw-new           no raw new / delete / malloc-family call
                           anywhere in src/.
  owning-raw-member        a raw-pointer data member says what it is:
                           `// own: borrowed <why>` (non-owning, outlived by
                           the pointee). That annotation is the rule's only
                           waiver.
  unique-ptr-by-value-sink no `unique_ptr<T>&` parameter (hides whether the
                           callee takes ownership: sink by value) and no
                           `const unique_ptr<T>&` (take T* / T&).
  shared-ptr-copy-in-loop  no shared_ptr copied in a loop body: each copy is
                           an atomic refcount RMW per iteration.

Other waivers read `// own: <reason>` on the offending line or the line
directly above it.
"""

import re

from tasq_check import Finding, line_of, loop_regions, matching_end, waived

RULES = ("owning-raw-new", "owning-raw-member", "unique-ptr-by-value-sink",
         "shared-ptr-copy-in-loop")

WAIVER_RE = re.compile(r"//\s*own:\s*\S")
MEMBER_ANNOT_RE = re.compile(r"//\s*own:\s*borrowed\s+\S")

# A new-expression (`new T`, `new (ptr) T`, `new[]`) or a malloc-family
# call. `= delete` and `operator new/delete` names are filtered below.
RAW_NEW_RE = re.compile(
    r"\bnew\b"
    r"|\bdelete\b"
    r"|\b(?:malloc|calloc|realloc|free|strdup|aligned_alloc|posix_memalign)"
    r"\s*\(")
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:TASQ_\w+\s+)?([A-Za-z_]\w*)"
    r"(?:\s*final)?(?:\s*:\s*[^;{]*)?\s*\{")
# A raw-pointer member declaration: `Type* name;` or `Type* name = ...;`.
MEMBER_PTR_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?"
    r"[A-Za-z_][\w:]*(?:\s*<[^<>;]*(?:<[^<>]*>)?[^<>;]*>)?"
    r"(?:\s+const)?\s*\*+\s*(?:const\s+)?"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*)?;\s*$")
# A unique_ptr taken by reference in a parameter list (the trailing `,` or
# `)` keeps local reference bindings out).
UNIQUE_REF_PARAM_RE = re.compile(
    r"(?P<const>\bconst\s+)?(?:std\s*::\s*)?unique_ptr\s*"
    r"<[^<>;(){}]*(?:<[^<>]*>)?[^<>;(){}]*>\s*&\s*[A-Za-z_]\w*\s*[,)]")
# A shared_ptr declaration copy-initialized inside a loop body. Moves,
# make_shared results and empty/null initializations bump no refcount.
SHARED_DECL_RE = re.compile(
    r"(?:std\s*::\s*)?shared_ptr\s*<[^<>;(){}]*(?:<[^<>]*>)?[^<>;(){}]*>\s*"
    r"(?:const\s*&?\s*)?[A-Za-z_]\w*\s*(?:=\s*(?P<init>[^;]+)"
    r"|\(\s*(?P<ctor>[^;)]+)\))\s*;")
NON_COPY_INIT_RE = re.compile(
    r"std\s*::\s*move\b|make_shared\b|\bnullptr\b|^\s*$")


def _after_operator(stripped, pos, allow_assign):
    """True when the token at `pos` is preceded by `operator` (a name, not
    a call) or, with allow_assign, by `=` (a deleted function)."""
    back = pos - 1
    while back >= 0 and stripped[back] in " \t\n":
        back -= 1
    return (allow_assign and back >= 0 and stripped[back] == "=") or \
        stripped[max(0, back - 7):back + 1].endswith("operator")


def check_raw_new(rel, stripped, lines):
    findings = []
    for match in RAW_NEW_RE.finditer(stripped):
        token = match.group(0).split("(")[0].strip()
        if token in ("new", "delete") and _after_operator(
                stripped, match.start(), token == "delete"):
            continue
        line = line_of(stripped, match.start())
        if not waived(lines, line, WAIVER_RE):
            findings.append(Finding(
                "owning-raw-new", rel, line,
                f"raw '{token}': ownership must be spelled — use "
                "std::unique_ptr or a container. Waive a deliberate "
                "exception with `// own: <reason>`"))
    return findings


def class_bodies(stripped):
    """(class_name, body_start, body_end) for every class/struct
    definition, nested ones included."""
    for match in CLASS_HEAD_RE.finditer(stripped):
        end = matching_end(stripped, match.end() - 1)
        if end > 0:
            yield match.group(1), match.end(), end - 1


def member_statements(stripped, body_start, body_end):
    """(start, end) of the statements at depth 0 of one class body: method
    bodies, nested classes and initializers are skipped, so locals never
    register as members."""
    depth = 0
    stmt_start = body_start
    for i in range(body_start, body_end):
        c = stripped[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                stmt_start = i + 1
        elif c == ";" and depth == 0:
            yield stmt_start, i + 1
            stmt_start = i + 1


def raw_members(rel, stripped):
    """(line, class name, member name) for every raw-pointer member."""
    for class_name, body_start, body_end in class_bodies(stripped):
        for start, end in member_statements(stripped, body_start, body_end):
            stmt = stripped[start:end]
            flat = " ".join(stmt.split())
            if "(" in stmt or ")" in stmt or any(
                    kw in flat for kw in ("using ", "typedef ", "constexpr ",
                                          "friend ", "static ")):
                continue
            match = MEMBER_PTR_RE.match(flat)
            if match:
                decl = start + len(stmt) - len(stmt.lstrip())
                yield line_of(stripped, decl), class_name, match.group(1)


def check_raw_members(rel, stripped, lines):
    return [Finding("owning-raw-member", rel, line,
                    f"raw-pointer member '{name}' of '{class_name}' has no "
                    "ownership annotation: mark it `// own: borrowed <why>`, "
                    "or make it a unique_ptr if it owns")
            for line, class_name, name in raw_members(rel, stripped)
            if not waived(lines, line, MEMBER_ANNOT_RE)]


def check_unique_ptr_sinks(rel, stripped, lines):
    findings = []
    for match in UNIQUE_REF_PARAM_RE.finditer(stripped):
        line = line_of(stripped, match.start())
        if waived(lines, line, WAIVER_RE):
            continue
        advice = ("a `const unique_ptr<T>&` parameter exposes the caller's "
                  "storage; take `T*` or `T&` instead"
                  if match.group("const") else
                  "a `unique_ptr<T>&` parameter hides whether the callee "
                  "takes ownership; sink by value (`unique_ptr<T>`) and "
                  "std::move at the caller")
        findings.append(Finding("unique-ptr-by-value-sink", rel, line,
                                advice + ". Waive with `// own: <reason>`"))
    return findings


def check_shared_copies(rel, stripped, lines):
    regions = loop_regions(stripped)
    findings = []
    for match in SHARED_DECL_RE.finditer(stripped) if regions else ():
        if not any(r.body_span[0] <= match.start() < r.body_span[1]
                   for r in regions):
            continue
        if NON_COPY_INIT_RE.search(match.group("init")
                                   or match.group("ctor") or ""):
            continue
        # Reference bindings alias without copying.
        head = stripped[match.start():match.start("init")
                        if match.group("init") else match.end()]
        if "&" in head.split("<", 1)[-1].rsplit(">", 1)[-1]:
            continue
        line = line_of(stripped, match.start())
        if not waived(lines, line, WAIVER_RE):
            findings.append(Finding(
                "shared-ptr-copy-in-loop", rel, line,
                "shared_ptr copied every loop iteration: each copy is an "
                "atomic refcount RMW (contended cache line under "
                "concurrency). Bind a reference outside the loop, move, or "
                "waive with `// own: <measured reason>`"))
    return findings


def check(repo, report):
    findings = []
    for rel in repo.src:
        stripped = repo.stripped(rel)
        lines = repo.lines(rel)
        findings += (check_raw_new(rel, stripped, lines)
                     + check_raw_members(rel, stripped, lines)
                     + check_unique_ptr_sinks(rel, stripped, lines)
                     + check_shared_copies(rel, stripped, lines))
    return findings


def inventory(repo):
    members = sorted((rel, line, class_name, name) for rel in repo.src
                     for line, class_name, name in raw_members(
                         rel, repo.stripped(rel)))
    return [f"{rel}:{line}: {class_name}::{name}"
            for rel, line, class_name, name in members] + [
        f"{len(members)} raw-pointer member(s)"]


POOL_H = (
    "#ifndef TASQ_APP_POOL_H_\n"
    "#define TASQ_APP_POOL_H_\n"
    "#include <memory>\n"
    "#include <vector>\n"
    "namespace tasq {\n"
    "struct Slab { double values[8]; };\n"
    "class Pool {\n"
    " public:\n"
    "  void Fill(int n);\n"
    "  void Adopt(std::unique_ptr<Slab> slab);\n"
    " private:\n"
    "  std::unique_ptr<Slab> owned_;\n"
    "  const Slab* view_ = nullptr;  // own: borrowed outlived by owned_\n"
    "  std::vector<Slab> scratch_;\n"
    "};\n"
    "}  // namespace tasq\n"
    "#endif\n")
POOL_CC = (
    "#include \"app/pool.h\"\n"
    "#include <memory>\n"
    "#include <utility>\n"
    "namespace tasq {\n"
    "void Pool::Fill(int n) {\n"
    "  scratch_.clear();\n"
    "  for (int i = 0; i < n; ++i) {\n"
    "    Slab& slab = scratch_.emplace_back();\n"
    "    slab.values[0] = i;\n"
    "  }\n"
    "}\n"
    "void Pool::Adopt(std::unique_ptr<Slab> slab) {\n"
    "  owned_ = std::move(slab);\n"
    "  view_ = owned_.get();\n"
    "}\n"
    "}  // namespace tasq\n")
# Conforming base: a pool that owns through unique_ptr, borrows with an
# annotation, and reuses a member vector as its per-call scratch.
GOOD = {"src/app/pool.h": POOL_H, "src/app/pool.cc": POOL_CC}


def _in_fill(statement):
    """`statement` lands inside Pool::Fill's loop body."""
    return {**GOOD, "src/app/pool.cc": POOL_CC.replace(
        "    slab.values[0] = i;",
        f"    slab.values[0] = i;\n    {statement}")}


def _pool_h(old, new):
    return {**GOOD, "src/app/pool.h": POOL_H.replace(old, new)}


ADOPT = "  void Adopt(std::unique_ptr<Slab> slab);"

FIXTURES = {
    "owning-raw-new": (
        _in_fill("double* p = new double[8]; delete[] p;"),
        _in_fill("double* p = new double[8]; delete[] p;"
                 "  // own: bootstrap buffer, freed on the next line")),
    "owning-raw-member": (
        _pool_h("  // own: borrowed outlived by owned_\n", "\n"),
        GOOD),
    "unique-ptr-by-value-sink": (
        _pool_h(ADOPT,
                ADOPT + "\n  void Peek(const std::unique_ptr<Slab>& slab);"),
        _pool_h(ADOPT,
                ADOPT + "\n  // own: deserializer swaps the pointee in "
                "place\n  void Swap(std::unique_ptr<Slab>& slab);")),
    "shared-ptr-copy-in-loop": (
        _in_fill("std::shared_ptr<Slab> held = shared_slab_;"),
        _in_fill("std::shared_ptr<Slab> held = shared_slab_;"
                 "  // own: pin per batch, 1 RMW per 16 requests, measured")),
}
