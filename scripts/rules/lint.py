"""lint: the repo's own conventions.

  include-guard          src/ headers guard with TASQ_<DIR>_<FILE>_H_
                         derived from the path (src/pcc/pcc.h ->
                         TASQ_PCC_PCC_H_).
  using-namespace-header no `using namespace` at header scope anywhere;
                         headers leak it into every includer.
  throw-in-src           no `throw` in src/: fallible operations return
                         Status/Result<T> (common/status.h).
  cout-in-src            no `std::cout` in src/: library code reports
                         through return values or a caller's ostream.
  header-unreachable     every src/ header is reachable from some test via
                         transitive #include.
  serve-header-untested  headers under src/serve/ are #included directly
                         by a file in tests/: the serving layer is the
                         concurrency surface, and transitive reachability
                         is not direct coverage.
  mutex-unannotated      src/ synchronizes through the annotated wrappers
                         in common/mutex.h: no raw std::mutex /
                         std::condition_variable outside the wrapper, and
                         every tasq::Mutex names what it guards with a
                         TASQ_GUARDED_BY(mu) field (or a "Guarded by mu"
                         comment for function-local mutexes).
  raw-lock-in-src        no bare lock()/unlock() and no std::lock_guard /
                         unique_lock / scoped_lock in src/ outside
                         common/mutex.h, so -Wthread-safety sees every
                         acquisition.
  nolint-needs-reason    every NOLINT in src/ names the silenced check and
                         gives a reason: NOLINT(check-name): why.
"""

import re

from tasq_check import Finding, line_of

RULES = ("include-guard", "using-namespace-header", "throw-in-src",
         "cout-in-src", "header-unreachable", "serve-header-untested",
         "mutex-unannotated", "raw-lock-in-src", "nolint-needs-reason")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

# The annotated wrapper layer is the one place raw std synchronization
# primitives (and their lock()/unlock() calls) may appear.
MUTEX_WRAPPER_PATH = "src/common/mutex.h"
RAW_SYNC_RE = re.compile(r"\bstd::(mutex|condition_variable(_any)?|"
                         r"recursive_mutex|shared_mutex|timed_mutex)\b")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:tasq::)?Mutex\s+(\w+)\s*;", re.MULTILINE)
RAW_LOCK_RE = re.compile(
    r"std::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|[.>]\s*(?:try_)?(?:un)?lock\s*\(")

# NOLINT, NOLINTNEXTLINE, NOLINTBEGIN require "(check-name): reason";
# NOLINTEND only needs to repeat the check name it closes.
NOLINT_TOKEN_RE = re.compile(r"NOLINT(NEXTLINE|BEGIN|END)?")
NOLINT_OK_RE = re.compile(
    r"NOLINT(?:NEXTLINE|BEGIN)?\([\w\-.,* ]+\)\s*:\s*\S.*")
NOLINT_END_OK_RE = re.compile(r"NOLINTEND\([\w\-.,* ]+\)")


def _in_src(rel):
    return rel.startswith("src/")


# Pure token bans: rule -> (files it scans, pattern over stripped text,
# message).
TOKEN_RULES = (
    ("using-namespace-header", lambda rel: rel.endswith(".h"),
     re.compile(r"\busing\s+namespace\b"),
     "`using namespace` in a header leaks into every includer"),
    ("throw-in-src", _in_src, re.compile(r"\bthrow\b"),
     "src/ code returns Status/Result instead of throwing "
     "(see common/status.h)"),
    ("cout-in-src", _in_src, re.compile(r"\bstd::cout\b"),
     "library code must not print to stdout; return values or take an "
     "std::ostream&"),
    ("raw-lock-in-src",
     lambda rel: _in_src(rel) and rel != MUTEX_WRAPPER_PATH, RAW_LOCK_RE,
     "bare lock/unlock call; acquire through MutexLock (or CondVar::Wait) "
     "so the acquisition is annotated"),
)


def expected_guard(rel):
    # src/pcc/pcc.h -> TASQ_PCC_PCC_H_
    stem = rel[len("src/"):-len(".h")]
    return "TASQ_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_include_guards(repo):
    findings = []
    for rel in repo.src:
        if not rel.endswith(".h"):
            continue
        want = expected_guard(rel)
        text = repo.text(rel)
        ifndef = re.search(r"^#ifndef\s+(\S+)", text, re.MULTILINE)
        define = re.search(r"^#define\s+(\S+)", text, re.MULTILINE)
        if not ifndef or not define:
            findings.append(Finding("include-guard", rel, 1,
                                    f"missing include guard (expected "
                                    f"{want})"))
        elif ifndef.group(1) != want or define.group(1) != want:
            findings.append(Finding(
                "include-guard", rel, line_of(text, ifndef.start()),
                f"guard is {ifndef.group(1)}, expected {want}"))
    return findings


def check_tokens(repo):
    findings = []
    for rel in repo.files:
        for rule, scans, pattern, message in TOKEN_RULES:
            if scans(rel):
                stripped = repo.stripped(rel)
                findings += [Finding(rule, rel, line_of(stripped, m.start()),
                                     message)
                             for m in pattern.finditer(stripped)]
    return findings


def test_includes(repo, headers):
    """src/ headers #included directly by a tests/ file."""
    return {"src/" + inc for rel in repo.files if rel.startswith("tests/")
            for inc in INCLUDE_RE.findall(repo.text(rel))
            if "src/" + inc in headers}


def check_header_reachability(repo):
    """Every src/ header is in the transitive include closure of the
    tests. Project includes are rooted at src/ (`#include "pcc/pcc.h"`)."""
    headers = {rel for rel in repo.src if rel.endswith(".h")}
    reached = test_includes(repo, headers)
    frontier = list(reached)
    while frontier:
        for inc in INCLUDE_RE.findall(repo.text(frontier.pop())):
            if "src/" + inc in headers and "src/" + inc not in reached:
                reached.add("src/" + inc)
                frontier.append("src/" + inc)
    findings = [Finding("header-unreachable", rel, 0,
                        "not reachable from any test via #include; add "
                        "coverage or delete the header")
                for rel in sorted(headers - reached)]
    serve = {rel for rel in headers if rel.startswith("src/serve/")}
    findings += [Finding("serve-header-untested", rel, 0,
                         "serving-layer headers must be #included directly "
                         "by a test under tests/")
                 for rel in sorted(serve - test_includes(repo, serve))]
    return findings


def check_mutex_annotated(repo):
    """src/ locks through tasq::Mutex, and every Mutex states its contract:
    a TASQ_GUARDED_BY(mu) (or, for function-local mutexes where an
    attribute cannot attach, a `Guarded by mu` comment) names it."""
    findings = []
    for rel in repo.src:
        if rel == MUTEX_WRAPPER_PATH:
            continue
        stripped = repo.stripped(rel)
        for match in RAW_SYNC_RE.finditer(stripped):
            findings.append(Finding(
                "mutex-unannotated", rel, line_of(stripped, match.start()),
                f"raw std::{match.group(1)}: use tasq::Mutex/CondVar from "
                "common/mutex.h so -Wthread-safety sees the contract"))
        for match in MUTEX_MEMBER_RE.finditer(stripped):
            name = re.escape(match.group(1))
            if (re.search(rf"TASQ_(?:PT_)?GUARDED_BY\(\s*{name}\s*\)",
                          stripped)
                    or re.search(rf"[Gg]uarded by\s+{name}", repo.text(rel))):
                continue
            findings.append(Finding(
                "mutex-unannotated", rel, line_of(stripped, match.start()),
                f"Mutex {match.group(1)} has no stated contract: annotate "
                f"the fields it protects with "
                f"TASQ_GUARDED_BY({match.group(1)})"))
    return findings


def check_nolint_reason(repo):
    findings = []
    for rel in repo.src:
        text = repo.text(rel)
        for match in NOLINT_TOKEN_RE.finditer(text):
            rest = text[match.start():].split("\n", 1)[0]
            ok_re = NOLINT_END_OK_RE if match.group(1) == "END" \
                else NOLINT_OK_RE
            if not ok_re.match(rest):
                findings.append(Finding(
                    "nolint-needs-reason", rel, line_of(text, match.start()),
                    "NOLINT must name the check and give a reason: "
                    "`NOLINT(check-name): why`"))
    return findings


def check(repo, report):
    return (check_include_guards(repo) + check_tokens(repo)
            + check_header_reachability(repo) + check_mutex_annotated(repo)
            + check_nolint_reason(repo))


# A minimal quiet tree; each positive seeds exactly one class of violation.
GOOD = {
    "src/mod/good.h": (
        "#ifndef TASQ_MOD_GOOD_H_\n"
        "#define TASQ_MOD_GOOD_H_\n"
        "inline int Fine() { return 1; }\n"
        "#endif\n"),
    "src/serve/orphan.h": (
        "#ifndef TASQ_SERVE_ORPHAN_H_\n"
        "#define TASQ_SERVE_ORPHAN_H_\n"
        "inline int Serve() { return 1; }\n"
        "#endif\n"),
    "tests/mod_test.cc": (
        '#include "mod/good.h"\n'
        '#include "serve/orphan.h"\n'
        "int main() { return Fine() + Serve(); }\n"),
}

SYNC_TEST = {"tests/mod_test.cc": (
    '#include "mod/good.h"\n'
    '#include "mod/sync.h"\n'
    '#include "serve/orphan.h"\n'
    "int main() { return Fine() + Serve(); }\n")}


def _sync_h(body):
    return {**GOOD, **SYNC_TEST, "src/mod/sync.h": (
        "#ifndef TASQ_MOD_SYNC_H_\n"
        "#define TASQ_MOD_SYNC_H_\n" + body + "#endif\n")}


TIDY_SYNC = _sync_h("struct Tidy {\n"
                    "  Mutex mu_;\n"
                    "  int x_ TASQ_GUARDED_BY(mu_) = 0;\n"
                    "};\n"
                    "inline void Local() {\n"
                    "  Mutex local_mu;\n"
                    "  // Guarded by local_mu: scratch state only.\n"
                    "}\n")

FIXTURES = {
    "include-guard": (
        {**GOOD, "src/mod/good.h": "#ifndef WRONG_GUARD_H\n"
                                   "#define WRONG_GUARD_H\n"
                                   "inline int Fine() { return 1; }\n"
                                   "#endif\n"},
        GOOD),
    "using-namespace-header": (
        {**GOOD, "src/mod/good.h": "#ifndef TASQ_MOD_GOOD_H_\n"
                                   "#define TASQ_MOD_GOOD_H_\n"
                                   "using namespace std;\n"
                                   "inline int Fine() { return 1; }\n"
                                   "#endif\n"},
        # Single-name using declarations and commented-out directives are
        # fine; only the directive form leaks.
        {**GOOD, "src/mod/good.h": (
            "#ifndef TASQ_MOD_GOOD_H_\n"
            "#define TASQ_MOD_GOOD_H_\n"
            "// using namespace std; would leak, so we name names:\n"
            "using std::size_t;\n"
            "inline int Fine() { return 1; }\n"
            "#endif\n")}),
    "throw-in-src": (
        {**GOOD, "src/mod/impl.cc":
         "int Use(int v) { if (v < 0) throw 1; return v; }\n"},
        {**GOOD, "src/mod/impl.cc": "// a throw in a comment must NOT fire\n"
                                    'const char* kS = "throw inside a '
                                    'string";\n'
                                    "int Use() { return kS != nullptr; }\n"}),
    "cout-in-src": (
        {**GOOD, "src/mod/impl.cc": "#include <iostream>\n"
                                    'void Print() { std::cout << "hi"; }\n'},
        {**GOOD, "src/mod/impl.cc": "#include <ostream>\n"
                                    "void Print(std::ostream& out) "
                                    '{ out << "hi"; }\n'}),
    "header-unreachable": (
        {**GOOD, "src/mod/orphan2.h": "#ifndef TASQ_MOD_ORPHAN2_H_\n"
                                      "#define TASQ_MOD_ORPHAN2_H_\n"
                                      "inline int Lost() { return 1; }\n"
                                      "#endif\n"},
        # The same header reached transitively: good.h pulls it in.
        {**GOOD, "src/mod/orphan2.h": "#ifndef TASQ_MOD_ORPHAN2_H_\n"
                                      "#define TASQ_MOD_ORPHAN2_H_\n"
                                      "inline int Found() { return 1; }\n"
                                      "#endif\n",
         "src/mod/good.h": "#ifndef TASQ_MOD_GOOD_H_\n"
                           "#define TASQ_MOD_GOOD_H_\n"
                           '#include "mod/orphan2.h"\n'
                           "inline int Fine() { return Found(); }\n"
                           "#endif\n"}),
    "serve-header-untested": (
        # Reachable only transitively through good.h: passes the general
        # reachability rule but fails the stricter serve bar.
        {**GOOD, "src/mod/good.h": "#ifndef TASQ_MOD_GOOD_H_\n"
                                   "#define TASQ_MOD_GOOD_H_\n"
                                   '#include "serve/orphan.h"\n'
                                   "inline int Fine() { return Serve(); }\n"
                                   "#endif\n",
         "tests/mod_test.cc": '#include "mod/good.h"\n'
                              "int main() { return Fine(); }\n"},
        GOOD),
    # Two independent triggers, one positive each.
    "mutex-unannotated (raw std::mutex)": (
        _sync_h("#include <mutex>\n"
                "struct Racy {\n"
                "  std::mutex raw_mu_;\n"
                "};\n"),
        TIDY_SYNC),
    "mutex-unannotated (contract-less Mutex)": (
        _sync_h("struct Racy {\n"
                "  Mutex contractless_;\n"
                "  int x_ = 0;\n"
                "};\n"),
        TIDY_SYNC),
    "raw-lock-in-src": (
        {**GOOD, "src/mod/lock.cc": "struct Lockable { void Go(); };\n"
                                    "void Use(Lockable& l, Lockable& m) {\n"
                                    "  l.lock();\n"
                                    "  m.unlock();\n"
                                    "}\n"},
        {**GOOD, "src/mod/lock.cc": "void Use(Mutex& mu) {\n"
                                    "  MutexLock lock(mu);\n"
                                    "}\n"}),
    "nolint-needs-reason": (
        {**GOOD, "src/mod/impl.cc": "int x = 0;  // NOLINT\n"},
        {**GOOD, "src/mod/impl.cc": (
            "// NOLINTNEXTLINE(bugprone-example): overflow intended\n"
            "int x = 1 << 30;\n"
            "int y = 0;  // NOLINT(bugprone-example): documented\n"
            "// NOLINTBEGIN(bugprone-example): span justified\n"
            "int z = 0;\n"
            "// NOLINTEND(bugprone-example)\n")}),
}
