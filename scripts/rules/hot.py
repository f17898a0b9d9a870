"""hot: the serving fast path's real-time-safety contract.

Every function definition under src/ is parsed into a name-based call
graph, and every function transitively reachable from a `TASQ_HOT`
annotation (src/common/hot.h) must be free of:

  hot-alloc              heap allocation: new / new[], malloc / calloc /
                         realloc / strdup, make_unique / make_shared.
  hot-container-growth   push_back / emplace* / insert / resize / reserve /
                         append / assign: growth reallocates.
  hot-string             std::string construction, to_string, ToString /
                         ToText, snprintf, stringstreams.
  hot-std-function       std::function (type-erases through the heap).
  hot-mutex              mutex acquisition (MutexLock, lock_guard,
                         unique_lock, scoped_lock, .Lock()/.lock()).
  hot-blocking           sleeps, condition-variable waits, file/stream I/O,
                         printf-family, system().
  hot-abort              throw, abort, exit, and TASQ_CHECK* (its failure
                         path aborts; TASQ_DCHECK compiles out of Release).
  hot-unresolved         a TASQ_HOT annotation names no src/ definition, so
                         the contract is enforced on nothing.

A deliberate exception carries `// hot: <reason>` on the offending line or
the line directly above it.
"""

import re

from tasq_check import Finding, line_of, matching_end, waived

# A function-definition head: `Qualified::Name (args...)` followed (after
# optional const/noexcept/ref-qualifier/attributes/initializer list) by
# `{`. Control-flow keywords are filtered out afterwards.
FUNC_HEAD_RE = re.compile(
    r"(?P<name>[A-Za-z_]\w*(?:::[A-Za-z_]\w*|::operator\s*\(\s*\))*)"
    r"\s*\(")
HEAD_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "defined", "assert", "co_return",
    "co_await", "co_yield", "new", "delete", "throw", "noexcept",
    "alignas", "typeid", "requires",
))
# What may sit between the `)` of the parameter list and the `{` of the
# body: cv/ref qualifiers, noexcept, attributes, override/final,
# thread-safety annotations, trailing return types, initializer lists.
TAIL_OK_RE = re.compile(
    r"\A(?:\s|const|noexcept|override|final|&&?|->\s*[\w:<>,\s*&]+|"
    r"\[\[[^\]]*\]\]|TASQ_\w+(?:\s*\([^)]*\))?|:\s*[^{};]*)*\Z")
# A TASQ_HOT annotation; the name is the last identifier before the
# parameter list.
HOT_ANNOT_RE = re.compile(
    r"\bTASQ_HOT\b[^;{}()]*?(?P<name>[A-Za-z_]\w*)\s*\(")
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CALL_KEYWORDS = HEAD_KEYWORDS | {"operator"}
WAIVER_RE = re.compile(r"//\s*hot:\s*\S")


class Function:
    """One definition: location and body span in the stripped text."""

    def __init__(self, rel, qual_name, line, body_start, body_end):
        self.rel = rel
        self.qual_name = qual_name          # e.g. ReportCache::GetInto
        self.name = qual_name.split("::")[-1]
        self.line = line                    # 1-based line of the head.
        self.body_start = body_start
        self.body_end = body_end


def extract_functions(stripped, rel):
    """Function definitions in one stripped file, found heuristically.

    Lambdas and macro-generated functions fall through the net, which is
    acceptable: the rules then apply to the enclosing function, whose body
    textually contains them."""
    functions = []
    pos = 0
    while True:
        match = FUNC_HEAD_RE.search(stripped, pos)
        if not match:
            return functions
        pos = match.end()
        if match.group("name").split("::")[-1] in HEAD_KEYWORDS:
            continue
        paren_end = matching_end(stripped, match.end() - 1)
        if paren_end < 0:
            continue
        pos = paren_end
        brace = stripped.find("{", paren_end)
        semi = stripped.find(";", paren_end)
        if (brace < 0 or 0 <= semi < brace
                or not TAIL_OK_RE.match(stripped[paren_end:brace])):
            continue  # A declaration, or not a function head.
        body_end = matching_end(stripped, brace)
        if body_end < 0:
            continue
        functions.append(Function(rel, match.group("name"),
                                  line_of(stripped, match.start()), brace,
                                  body_end))
        # Resume inside the body: member definitions in class bodies
        # brace-nest too.
        pos = brace + 1


def hot_closure(repo):
    """Functions transitively reachable from a TASQ_HOT annotation.

    The call graph is name-based (no type resolution): a call fans out to
    every src/ definition sharing the callee's last name. A colliding cold
    function swept into the hot set is a naming smell worth renaming; an
    under-approximation would let allocation creep in through a helper.
    Returns (roots {name: (rel, line)}, definitions by name, hot functions,
    edges {function: [hot callee names]})."""
    by_name = {}
    roots = {}
    for rel in repo.src:
        stripped = repo.stripped(rel)
        for func in extract_functions(stripped, rel):
            by_name.setdefault(func.name, []).append(func)
        if rel.endswith("common/hot.h"):
            continue  # The macro's own #define.
        for match in HOT_ANNOT_RE.finditer(stripped):
            roots.setdefault(match.group("name"),
                             (rel, line_of(stripped, match.start())))
    hot, edges, visited = [], {}, set()
    frontier = sorted(roots)
    while frontier:
        name = frontier.pop()
        if name in visited:
            continue
        visited.add(name)
        for func in by_name.get(name, ()):
            hot.append(func)
            body = repo.stripped(func.rel)[func.body_start:func.body_end]
            edges[func] = sorted({c for c in CALL_RE.findall(body)
                                  if c not in CALL_KEYWORDS
                                  and c in by_name})
            frontier += [c for c in edges[func] if c not in visited]
    return roots, by_name, hot, edges


# rule -> (pattern over the stripped body, message).
RULE_PATTERNS = (
    ("hot-alloc",
     re.compile(r"\bnew\b(?!\s*\()"
                r"|\bnew\s*\("            # placement/new(nothrow) too
                r"|\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\("
                r"|\bmake_unique\s*<"
                r"|\bmake_shared\s*<"),
     "heap allocation on the hot path"),
    ("hot-container-growth",
     re.compile(r"\.(?:push_back|emplace_back|emplace|emplace_front|"
                r"push_front|insert|resize|reserve|append|assign)\s*\("),
     "container growth reallocates on the hot path"),
    ("hot-string",
     re.compile(r"\bstd\s*::\s*string\b"
                r"|\bto_string\s*\("
                r"|\bToString\s*\("
                r"|\bToText\s*\("
                r"|\bsnprintf\s*\("
                r"|\bostringstream\b|\bstringstream\b"),
     "string construction/formatting allocates on the hot path"),
    ("hot-std-function",
     re.compile(r"\bstd\s*::\s*function\b"),
     "std::function type-erases through a heap allocation"),
    ("hot-mutex",
     re.compile(r"\bMutexLock\b|\block_guard\b|\bunique_lock\b|"
                r"\bscoped_lock\b|\.\s*(?:Lock|lock)\s*\(\s*\)"),
     "mutex acquisition on the lock-free hot path"),
    ("hot-blocking",
     re.compile(r"\bsleep_for\b|\bsleep_until\b|\busleep\s*\(|"
                r"\b(?:std\s*::\s*)?this_thread\b|"
                r"\.\s*[Ww]ait(?:For)?\s*\(|"
                r"\bfopen\s*\(|\bfread\s*\(|\bfwrite\s*\(|\bfputs\s*\(|"
                r"\bf?printf\s*\(|\bfflush\s*\(|\bgetline\s*\(|"
                r"\bsystem\s*\(|\bifstream\b|\bofstream\b|\bfstream\b|"
                r"\bstd\s*::\s*(?:cout|cerr|cin)\b"),
     "blocking call / IO on the hot path"),
    ("hot-abort",
     re.compile(r"\bthrow\b|\babort\s*\(|\bexit\s*\(|"
                r"\bTASQ_CHECK(?:_[A-Z]+)?\s*\("),
     "hot path must not throw or abort (TASQ_CHECK aborts on failure; "
     "use TASQ_DCHECK, which compiles out of Release)"),
)
RULES = tuple(rule for rule, _, _ in RULE_PATTERNS) + ("hot-unresolved",)


def check(repo, report):
    roots, by_name, hot, _ = hot_closure(repo)
    findings = [Finding("hot-unresolved", *roots[name],
                        f"TASQ_HOT annotates '{name}' but no definition of "
                        "it exists under src/; the contract is enforced on "
                        "nothing")
                for name in sorted(roots) if name not in by_name]
    for func in hot:
        stripped = repo.stripped(func.rel)
        body = stripped[func.body_start:func.body_end]
        base_line = line_of(stripped, func.body_start)
        for rule, pattern, message in RULE_PATTERNS:
            for match in pattern.finditer(body):
                line = base_line + body.count("\n", 0, match.start())
                if waived(repo.lines(func.rel), line, WAIVER_RE):
                    continue
                findings.append(Finding(
                    rule, func.rel, line,
                    f"'{match.group(0).strip()}' in hot function "
                    f"'{func.qual_name}': {message}. Fix it, or waive with "
                    "`// hot: <reason>` on this line"))
    return findings


def _by_location(funcs):
    return sorted(funcs, key=lambda f: (f.rel, f.line))


def dot(repo):
    """Graphviz source for the enforced hot call graph: annotation roots in
    bold, transitive members plain, edges by textual call."""
    roots, _, hot, edges = hot_closure(repo)
    lines = [
        "// Generated by scripts/tasq_check.py hot --dot; do not edit.",
        "digraph tasq_hot_paths {",
        "  rankdir=LR;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    quals_by_name = {}
    for func in hot:
        quals_by_name.setdefault(func.name, set()).add(func.qual_name)
    emitted = set()
    for func in _by_location(hot):
        if func.qual_name in emitted:
            continue  # Same-named defs share one node (name-based graph).
        emitted.add(func.qual_name)
        style = ", style=bold" if func.name in roots else ""
        lines.append(f"  \"{func.qual_name}\" [label=\"{func.qual_name}\\n"
                     f"{func.rel}:{func.line}\"{style}];")
    for func in _by_location(hot):
        for callee in edges[func]:
            for target in sorted(quals_by_name.get(callee, ())):
                edge = (func.qual_name, target)
                if target != func.qual_name and edge not in emitted:
                    emitted.add(edge)
                    lines.append(f"  \"{edge[0]}\" -> \"{edge[1]}\";")
    return "\n".join(lines + ["}"]) + "\n"


def inventory(repo):
    roots, _, hot, _ = hot_closure(repo)
    return [f"{func.rel}:{func.line}: {func.qual_name}"
            f"{' [root]' if func.name in roots else ''}"
            for func in _by_location(hot)] + [
        f"{len(hot)} function(s) in the hot closure, {len(roots)} annotated "
        "root name(s)"]


HOT_H = (
    "#ifndef TASQ_COMMON_HOT_H_\n"
    "#define TASQ_COMMON_HOT_H_\n"
    "#define TASQ_HOT\n"
    "#endif\n")
FAST_H = (
    "#ifndef TASQ_APP_FAST_H_\n"
    "#define TASQ_APP_FAST_H_\n"
    "#include \"common/hot.h\"\n"
    "TASQ_HOT int FastLookup(int key);\n"
    "void ColdRefill(int* out, int n);\n"
    "#endif\n")
FAST_CC = (
    "#include \"app/fast.h\"\n"
    "#include <vector>\n"
    "namespace {\n"
    "int MixKey(int key) { return key * 2654435761; }\n"
    "int ProbeSlot(int key) { return MixKey(key) & 1023; }\n"
    "}  // namespace\n"
    "int FastLookup(int key) { return ProbeSlot(key); }\n"
    "void ColdRefill(int* out, int n) {\n"
    "  std::vector<int> scratch;\n"
    "  for (int i = 0; i < n; ++i) scratch.push_back(i);\n"
    "  for (int i = 0; i < n; ++i) out[i] = scratch[i];\n"
    "}\n")
# Conforming base: one annotated hot function calling a clean helper two
# hops deep. The cold function allocates freely and is never flagged (it is
# not in the closure).
GOOD = {"src/common/hot.h": HOT_H, "src/app/fast.h": FAST_H,
        "src/app/fast.cc": FAST_CC}


def _inject(statement, reason=None):
    """`statement` lands in ProbeSlot, two hops below the TASQ_HOT root,
    proving enforcement is transitive; with a `reason` it carries a
    `// hot:` waiver."""
    if reason:
        statement += f"  // hot: {reason}"
    return {**GOOD, "src/app/fast.cc": FAST_CC.replace(
        "int ProbeSlot(int key) { return MixKey(key) & 1023; }",
        "int ProbeSlot(int key) {\n"
        f"  {statement}\n"
        "  return MixKey(key) & 1023;\n"
        "}")}


def _pair(statement, reason="bounded by ctor-time reserve"):
    return _inject(statement), _inject(statement, reason)


FIXTURES = {
    "hot-alloc": _pair("int* p = new int(key); delete p;",
                       "freelist-backed; measured zero on warm path"),
    "hot-container-growth": _pair(
        "static std::vector<int> v; v.push_back(key);"),
    "hot-string": _pair("std::string s; (void)s;",
                        "SSO-only name, never exceeds 15 bytes"),
    "hot-std-function": _pair("std::function<int()> f; (void)f;",
                              "empty target, never rebound"),
    "hot-mutex": _pair("MutexLock lock(shard_mutex);",
                       "shard-local probe lock, O(1) critical section"),
    "hot-blocking": _pair("queue_cv.Wait(shard_mutex);",
                          "bounded 1us adaptive backoff, measured"),
    "hot-abort": _pair("TASQ_CHECK(key >= 0);",
                       "startup-only branch, unreachable after warmup"),
    "hot-unresolved": (
        {**GOOD, "src/app/fast.h": FAST_H.replace(
            "TASQ_HOT int FastLookup(int key);",
            "TASQ_HOT int FastLookup(int key);\n"
            "TASQ_HOT int GhostLookup(int key);")},
        GOOD),
}
