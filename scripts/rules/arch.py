"""arch: the physical architecture of src/ against the layer DAG declared
in scripts/arch_layers.toml.

  module-unlisted        every directory under src/ is declared in
                         arch_layers.toml; an undeclared module would be
                         exempt from every layering rule.
  module-stale           arch_layers.toml declares no module, dep or
                         internal header that no longer exists.
  layering               a file in module A may #include module B only when
                         the DAG declares A -> B (deps are direct, not
                         transitive).
  private-header         headers listed as `internal` are included only by
                         their own module (tests/bench/examples may too).
  include-cycle          the #include graph of src/ headers is acyclic.
  unused-include         IWYU-lite: a project #include none of whose
                         declared symbols the includer uses. `// arch: keep`
                         (or `// IWYU pragma: keep`) on the include line
                         keeps a deliberate one.
  discard-needs-reason   `(void)Call()` on a Status/Result-returning
                         function carries a same-line (or preceding
                         full-line) comment saying why ignoring the error is
                         safe. The compiler already rejects a bare discard:
                         Status and Result<T> are [[nodiscard]] at class
                         level (tests/compile_fail proves it), but no
                         compiler asks for the reason.
"""

import os
import re

from tasq_check import ConfigError, Finding, line_of, waived

RULES = ("module-unlisted", "module-stale", "layering", "private-header",
         "include-cycle", "unused-include", "discard-needs-reason")

LAYERS_PATH = "scripts/arch_layers.toml"


def parse_layers(text):
    """Parses the restricted TOML subset arch_layers.toml uses.

    Hand-rolled so the analyzer runs on any Python 3 (tomllib is 3.11+).
    Supported: `[modules.<name>]` tables with `key = ["a", "b"]` string
    arrays and full-line / trailing comments. Anything else is an error:
    a silently misparsed layer file would disable the architecture check.
    """
    modules = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{LAYERS_PATH}: line {lineno}"
        table = re.fullmatch(r"\[modules\.([A-Za-z0-9_]+)\]", line)
        if table:
            if table.group(1) in modules:
                raise ConfigError(f"{where}: duplicate [modules."
                                  f"{table.group(1)}]")
            current = modules[table.group(1)] = {"deps": [], "internal": []}
            continue
        assign = re.fullmatch(
            r"(deps|internal)\s*=\s*\[([^\]]*)\]\s*(?:#.*)?", line)
        if not assign:
            raise ConfigError(f"{where}: cannot parse {raw!r}")
        if current is None:
            raise ConfigError(f"{where}: assignment outside a [modules.*] "
                              "table")
        values = []
        for item in assign.group(2).split(","):
            item = item.strip()
            if not item:
                continue
            quoted = re.fullmatch(r'"([^"]*)"', item)
            if not quoted:
                raise ConfigError(f"{where}: expected quoted string, got "
                                  f"{item!r}")
            values.append(quoted.group(1))
        current[assign.group(1)] = values
    return modules


def load_layers(repo):
    text = repo.aux(LAYERS_PATH)
    if text is None:
        raise ConfigError(f"{LAYERS_PATH} not found under {repo.root}")
    return parse_layers(text)


INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]+"([^"]+)"',
                        re.MULTILINE)


def module_of(rel):
    """src/pcc/pcc.h -> pcc; None for files outside src/."""
    parts = rel.split("/")
    return parts[1] if len(parts) >= 3 and parts[0] == "src" else None


def include_map(repo):
    """rel -> [(line, src/ target, spelling)] for every src/ file: project
    includes resolved to existing src/ paths."""
    src = set(repo.src)
    out = {}
    for rel in repo.src:
        text = repo.text(rel)
        out[rel] = [(line_of(text, m.start()), "src/" + m.group(1),
                     m.group(1))
                    for m in INCLUDE_RE.finditer(text)
                    if "src/" + m.group(1) in src]
    return out


def reachable(graph, start, memo):
    """Nodes reachable from `start` in one or more steps (start itself only
    when it sits on a cycle)."""
    if start not in memo:
        seen = set()
        frontier = list(graph.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen.add(node)
                frontier += graph.get(node, ())
        memo[start] = seen
    return memo[start]


def check_layers_coverage(repo, layers):
    src = os.path.join(repo.root, "src")
    modules = {name for name in (os.listdir(src) if os.path.isdir(src)
                                 else ())
               if os.path.isdir(os.path.join(src, name))}
    headers = {rel for rel in repo.src if rel.endswith(".h")}
    findings = [Finding("module-unlisted", f"src/{module}", 0,
                        f"module '{module}' is missing from {LAYERS_PATH}; "
                        "an undeclared module is exempt from every layering "
                        "rule")
                for module in sorted(modules - set(layers))]
    for module, decl in sorted(layers.items()):
        if module not in modules:
            stale = [f"declared module '{module}' does not exist under src/"]
        else:
            stale = [f"module '{module}' declares dep on nonexistent module "
                     f"'{dep}'" for dep in decl["deps"] if dep not in modules]
            stale += [f"module '{module}' declares nonexistent internal "
                      f"header '{header}'" for header in decl["internal"]
                      if f"src/{module}/{header}" not in headers]
        findings += [Finding("module-stale", LAYERS_PATH, 0, message)
                     for message in stale]
    return findings


def check_layering(includes, layers):
    """A file in module A may include module B only if the DAG says A -> B,
    and another module's internal header never."""
    internal = {f"src/{module}/{header}": module
                for module, decl in layers.items()
                for header in decl["internal"]}
    findings = []
    for rel, entries in includes.items():
        module = module_of(rel)
        for line, target, spelling in entries:
            owner = internal.get(target)
            if owner is not None and owner != module:
                findings.append(Finding(
                    "private-header", rel, line,
                    f"\"{spelling}\" is internal to module '{owner}'; "
                    "include the module's public header instead"))
            if module not in layers:
                continue  # module-unlisted reports the missing declaration.
            target_module = module_of(target)
            if (target_module == module or target_module not in layers
                    or target_module in layers[module]["deps"]):
                continue
            findings.append(Finding(
                "layering", rel, line,
                f"module '{module}' may not depend on '{target_module}' "
                f"(#include \"{spelling}\"); allowed deps: "
                f"{sorted(layers[module]['deps'])}"))
    return findings


def check_include_cycles(includes):
    """src/ headers form a DAG: one finding per strongly connected
    component that holds a cycle, reported at its first member."""
    graph = {rel: [t for _, t, _ in entries if t.endswith(".h")]
             for rel, entries in includes.items() if rel.endswith(".h")}
    memo = {}
    findings = []
    reported = set()
    for header in graph:
        if header in reported or header not in reachable(graph, header,
                                                         memo):
            continue
        members = sorted(h for h in reachable(graph, header, memo)
                         if header in reachable(graph, h, memo))
        reported.update(members)
        findings.append(Finding(
            "include-cycle", members[0], 0,
            "header include cycle: " + " -> ".join(members + [members[0]])))
    return findings


# ---------------------------------------------------------------------------
# unused-include (IWYU-lite)
# ---------------------------------------------------------------------------

# Identifiers that look like calls but are language constructs.
CALL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "catch", "defined", "assert", "co_return",
    "co_await", "co_yield", "new", "delete", "throw", "noexcept",
    "alignas", "typeid", "requires", "operator",
))
TYPE_DECL_RE = re.compile(
    r"\b(?:class|struct|union|enum(?:\s+(?:class|struct))?)\s+"
    r"(?:TASQ_\w+\s+)*([A-Za-z_]\w*)")
USING_ALIAS_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=")
TYPEDEF_RE = re.compile(r"\btypedef\b[^;]*?\b([A-Za-z_]\w*)\s*;")
DEFINE_RE = re.compile(r"^[ \t]*#[ \t]*define[ \t]+([A-Za-z_]\w*)",
                       re.MULTILINE)
CALLABLE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
# Google-style constants (kCamelCase): enumerator and constexpr names.
CONSTANT_RE = re.compile(r"\b(k[A-Z]\w*)\b")
IDENT_RE = re.compile(r"\b([A-Za-z_]\w*)\b")
KEEP_RE = re.compile(r"//.*\b(?:arch:\s*keep|IWYU pragma:\s*keep)")


def declared_symbols(stripped):
    """Heuristic set of names a header provides to its includers.

    Over-approximation is safe (an include looks used and the rule stays
    quiet); under-approximation produces a false finding, so the net is
    cast wide: types, aliases, macros, kConstants, and every identifier in
    callable position."""
    symbols = set()
    for regex in (TYPE_DECL_RE, USING_ALIAS_RE, TYPEDEF_RE, DEFINE_RE,
                  CONSTANT_RE):
        symbols.update(regex.findall(stripped))
    symbols.update(name for name in CALLABLE_RE.findall(stripped)
                   if name not in CALL_KEYWORDS)
    return symbols


def check_unused_includes(repo, includes):
    """Flags quoted src/ includes that contribute no used symbol.

    An include is kept silently when it is the companion header
    (src/x/y.cc -> x/y.h), is marked keep, directly provides a used
    symbol, or is the only path to transitively-used symbols. It is
    flagged only when dropping it provably leaves every used symbol
    reachable through the file's other includes."""
    graph = {rel: [t for _, t, _ in entries]
             for rel, entries in includes.items()}
    memo = {}
    symbol_cache = {}

    def symbols_of(header):
        if header not in symbol_cache:
            symbol_cache[header] = declared_symbols(repo.stripped(header))
        return symbol_cache[header]

    def closure_symbols(header):
        syms = set()
        for dep in reachable(graph, header, memo) - {header}:
            syms |= symbols_of(dep)
        return syms

    findings = []
    for rel, entries in includes.items():
        if not entries:
            continue
        tokens = set(IDENT_RE.findall(re.sub(
            r"^[ \t]*#[ \t]*include[^\n]*", "", repo.stripped(rel),
            flags=re.MULTILINE)))
        companion = re.sub(r"\.(cc|cpp)$", ".h", rel) \
            if rel.endswith((".cc", ".cpp")) else None
        for line, target, spelling in entries:
            if (target == companion or KEEP_RE.search(
                    repo.lines(rel)[line - 1]) or symbols_of(target) & tokens):
                continue
            # Nothing declared directly in the header is used. It may still
            # be the sole provider of transitive symbols; flag it only when
            # the other includes cover them.
            needed = closure_symbols(target) & tokens
            covered = set()
            for other_line, other, _ in entries:
                if (other, other_line) != (target, line):
                    covered |= symbols_of(other) | closure_symbols(other)
            if needed - covered:
                continue
            findings.append(Finding(
                "unused-include", rel, line,
                f"#include \"{spelling}\" provides no symbol used here; "
                "remove it (or mark `// arch: keep` with a reason)"))
    return findings


# ---------------------------------------------------------------------------
# discard-needs-reason
# ---------------------------------------------------------------------------

# A declaration line with a by-value Status / Result<...> return type.
# `Result<...>` never contains parens in this codebase.
STATUS_DECL_RE = re.compile(
    r"^[ \t]*(?:(?:TASQ_NODISCARD|static|inline|constexpr|"
    r"virtual|explicit|friend)\s+)*"
    r"(?:tasq::)?(?:Status|Result<[^;{}()=]*>)\s+"
    r"([A-Za-z_]\w*)\s*\(",
    re.MULTILINE)
# Any function-declaration-shaped line: a name that ALSO has a non-Status
# return type somewhere is ambiguous for a name-based scan.
ANY_DECL_RE = re.compile(
    r"^[ \t]*(?:(?:TASQ_NODISCARD|static|inline|constexpr|virtual|"
    r"explicit|friend)\s+)*"
    r"(?P<ret>[A-Za-z_][\w:]*(?:\s*<[^;{}()=]*>)?)\s*[&*]?\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(",
    re.MULTILINE)
DECL_RET_KEYWORDS = frozenset((
    "return", "else", "case", "goto", "new", "delete", "throw", "do",
    "while", "if", "for", "switch", "using", "namespace", "public",
    "private", "protected", "template", "typedef", "typename", "class",
    "struct", "enum", "union", "operator", "co_return", "co_await",
    "co_yield",
))
VOID_CAST_RE = re.compile(
    r"\(\s*void\s*\)\s*"
    r"(?:[A-Za-z_]\w*(?:::|\.|->))*"
    r"(?P<name>[A-Za-z_]\w*)\s*\(")
REASON_HERE_RE = re.compile(r"//")
REASON_ABOVE_RE = re.compile(r"^\s*//")


def must_use_functions(repo):
    """Names of src/ functions returning Status/Result by value, minus
    names that elsewhere return something else (an overload or an
    unrelated helper cannot be judged by a token scan)."""
    status, other = set(), set()
    for rel in repo.src:
        stripped = repo.stripped(rel)
        status.update(STATUS_DECL_RE.findall(stripped))
        for match in ANY_DECL_RE.finditer(stripped):
            ret = match.group("ret")
            if (ret.split("<", 1)[0].removeprefix("tasq::")
                    not in ("Status", "Result")
                    and ret not in DECL_RET_KEYWORDS):
                other.add(match.group("name"))
    return status - other


def check_discard_reasons(repo):
    must_use = must_use_functions(repo)
    findings = []
    for rel in repo.files:
        stripped = repo.stripped(rel)
        for match in VOID_CAST_RE.finditer(stripped):
            name = match.group("name")
            if name not in must_use:
                continue
            line = line_of(stripped, match.start("name"))
            if waived(repo.lines(rel), line, REASON_HERE_RE,
                      above=REASON_ABOVE_RE):
                continue
            findings.append(Finding(
                "discard-needs-reason", rel, line,
                f"(void)-discard of '{name}' must say why the error is "
                "safe to ignore: `(void)Call();  // reason`"))
    return findings


def check(repo, report):
    layers = load_layers(repo)
    includes = include_map(repo)
    return (check_layers_coverage(repo, layers)
            + check_layering(includes, layers)
            + check_include_cycles(includes)
            + check_unused_includes(repo, includes)
            + check_discard_reasons(repo))


def dot(repo):
    """Graphviz source for the declared module DAG; declared edges the
    include graph never exercises are dashed."""
    layers = load_layers(repo)
    used = {(module_of(rel), module_of(target))
            for rel, entries in include_map(repo).items()
            for _, target, _ in entries
            if module_of(target) != module_of(rel)}
    lines = [
        "// Generated by scripts/tasq_check.py arch --dot; do not edit.",
        "digraph tasq_modules {",
        "  rankdir=BT;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    lines += [f"  \"{module}\";" for module in sorted(layers)]
    for module in sorted(layers):
        for dep in sorted(layers[module]["deps"]):
            style = "" if (module, dep) in used \
                else " [style=dashed, color=gray, label=\"declared only\"]"
            lines.append(f"  \"{module}\" -> \"{dep}\"{style};")
    return "\n".join(lines + ["}"]) + "\n"


# Base tree: two modules, clean layering, annotated Status APIs, every
# include used. Each fixture overrides files.
GOOD_LAYERS = """\
[modules.common]
deps = []

[modules.app]
deps = ["common"]
internal = ["secret.h"]
"""

STATUS_H = (
    "#ifndef TASQ_COMMON_STATUS_H_\n"
    "#define TASQ_COMMON_STATUS_H_\n"
    "#define TASQ_NODISCARD [[nodiscard]]\n"
    "class Status { public: bool ok() const; };\n"
    "TASQ_NODISCARD Status DoWork();\n"
    "#endif\n")
APP_CC = (
    "#include \"app/app.h\"\n"
    "#include \"app/secret.h\"\n"
    "Status RunApp() {\n"
    "  Status s = DoWork();\n"
    "  if (!s.ok()) return s;\n"
    "  (void)DoWork();  // best-effort warmup; failure is benign\n"
    "  return s.ok() && SecretImpl() > 0 ? s : s;\n"
    "}\n")
GOOD = {
    LAYERS_PATH: GOOD_LAYERS,
    "src/common/status.h": STATUS_H,
    "src/app/secret.h": (
        "#ifndef TASQ_APP_SECRET_H_\n"
        "#define TASQ_APP_SECRET_H_\n"
        "inline int SecretImpl() { return 42; }\n"
        "#endif\n"),
    "src/app/app.h": (
        "#ifndef TASQ_APP_APP_H_\n"
        "#define TASQ_APP_APP_H_\n"
        "#include \"common/status.h\"\n"
        "TASQ_NODISCARD Status RunApp();\n"
        "#endif\n"),
    "src/app/app.cc": APP_CC,
}
DEAD_H = ("#ifndef D_H_\n#define D_H_\n"
          "inline int DeadSymbol() { return 0; }\n"
          "#endif\n")

FIXTURES = {
    "module-unlisted": (
        {**GOOD, "src/rogue/rogue.h": "#ifndef R_H_\n#define R_H_\n#endif\n"},
        GOOD),
    "module-stale": (
        {**GOOD, LAYERS_PATH: GOOD_LAYERS + "\n[modules.ghost]\ndeps = []\n"},
        GOOD),
    "layering": (
        # common reaching up into app inverts the declared DAG.
        {**GOOD,
         "src/app/plain.h": ("#ifndef P_H_\n#define P_H_\n"
                             "inline int AppPlain() { return 1; }\n"
                             "#endif\n"),
         "src/common/status.h": STATUS_H.replace(
             "#define TASQ_NODISCARD [[nodiscard]]\n",
             "#define TASQ_NODISCARD [[nodiscard]]\n"
             "#include \"app/plain.h\"  // arch: keep\n")},
        GOOD),
    "private-header": (
        {**GOOD,
         "src/common/status.h": STATUS_H.replace(
             "class Status",
             "#include \"app/secret.h\"  // arch: keep\nclass Status"),
         # Let common depend on app so only private-header fires.
         LAYERS_PATH: GOOD_LAYERS.replace('[modules.common]\ndeps = []',
                                          '[modules.common]\ndeps = ["app"]')},
        GOOD),
    "include-cycle": (
        {**GOOD,
         "src/app/a.h": ("#ifndef A_H_\n#define A_H_\n"
                         "#include \"app/b.h\"\n"
                         "inline int UseB() { return FromB(); }\n"
                         "#endif\n"),
         "src/app/b.h": ("#ifndef B_H_\n#define B_H_\n"
                         "#include \"app/a.h\"\n"
                         "inline int FromB() { return 1; }\n"
                         "inline int UseA() { return UseB(); }\n"
                         "#endif\n"),
         "src/app/app.cc": APP_CC.replace(
             "#include \"app/secret.h\"\n",
             "#include \"app/secret.h\"\n#include \"app/a.h\"\n").replace(
             "SecretImpl() > 0", "SecretImpl() + UseB() > 0")},
        GOOD),
    "unused-include": (
        {**GOOD, "src/app/dead.h": DEAD_H,
         "src/app/app.cc": APP_CC.replace(
             "#include \"app/secret.h\"\n",
             "#include \"app/secret.h\"\n#include \"app/dead.h\"\n")},
        # The same dead header, but the include carries `arch: keep`.
        {**GOOD, "src/app/dead.h": DEAD_H,
         "src/app/app.cc": APP_CC.replace(
             "#include \"app/secret.h\"\n",
             "#include \"app/secret.h\"\n"
             "#include \"app/dead.h\"  // arch: keep — re-exported\n")}),
    "discard-needs-reason": (
        {**GOOD, "src/app/app.cc": APP_CC.replace(
            "  (void)DoWork();  // best-effort warmup; failure is benign\n",
            "  (void)DoWork();\n")},
        GOOD),
}
