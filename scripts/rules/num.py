"""num: numerics & determinism, the checked-math layer made mechanical.

Predictions flow through log-log regressions, exp-link GBDT objectives and
softplus heads, so one silent NaN or a hash-order change corrupts results
without failing a test. Every rule scans src/; the waiver comment goes on
the offending line or the line above, and its reason is mandatory.

  raw-transcendental     no raw log/exp/pow/sqrt/... call outside
                         src/common/fmath.h: numeric kernels use the
                         Safe*/Checked*/Clamped* helpers. Waiver:
                         `// num: checked <reason>` (argument proven
                         in-domain).
  float-equality         no `==`/`!=` with a floating-point literal
                         operand. Waiver: `// num: float-eq <reason>`
                         (exact-zero skips, -0.0 canonicalization).
  unseeded-rng           no rand()/srand(), and no std::random_device
                         outside common/rng.h: randomness flows from
                         tasq::Rng(seed). Waiver: `// num: rng <reason>`.
  float-keyed-container  no float/double keys in map/set (ordered or
                         unordered). Waiver: `// num: float-key <reason>`.
  unordered-iteration    no range-for over a container declared as
                         std::unordered_* in the same file: hash order is
                         unspecified, so order-sensitive folds break bit
                         reproducibility. Waiver:
                         `// det: order-independent <why>`.
"""

import re

from tasq_check import Finding, line_of, waived

RULES = ("raw-transcendental", "float-equality", "unseeded-rng",
         "float-keyed-container", "unordered-iteration")

# The one place raw transcendentals are the implementation, not a hazard.
FMATH_PATH = "src/common/fmath.h"
# The one place entropy may be gathered (the seeded Rng wrapper).
RNG_PATH = "src/common/rng.h"


def num_waiver(tag):
    # `// num: <tag> <reason>`; the reason is mandatory.
    return re.compile(r"//\s*num:\s*" + re.escape(tag) + r"\s+\S")


# Qualified (std::log) and C-style (log) forms both count; the lookbehind
# rejects member calls (x.log(), p->exp()) and identifiers merely ending in
# a function name (Dialog( does not contain a call to log).
TRANSCENDENTAL_RE = re.compile(
    r"(?<![\w.>])(?:std::)?"
    r"(log1p|log10|log2|log|expm1|exp2|exp|pow|sqrt|cbrt|atan2)\s*\(")
# A floating literal: 1.0, .5, 2., 1e-9, 3.5e+10, with optional f/F/l/L.
# A heuristic by design: it cannot see declared types, but a literal
# operand is unambiguous and covers the common form of the bug.
FLOAT_LITERAL = (r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?"
                 r"|\d+[eE][+-]?\d+[fFlL]?")
FLOAT_EQ_RE = re.compile(
    rf"[=!]=\s*[-+]?(?:{FLOAT_LITERAL})(?![\w.])"
    rf"|(?:(?<![\w.])(?:{FLOAT_LITERAL}))\s*[=!]=")
RAND_RE = re.compile(r"(?<![\w.>])(?:std::)?(s?rand)\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\bstd::random_device\b")
FLOAT_KEY_RE = re.compile(
    r"\b(?:std::)?(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*"
    r"(float|double|long\s+double)\b")

# rule -> (pattern, file it does not apply to, waiver, message(match)).
PATTERN_RULES = (
    ("raw-transcendental", TRANSCENDENTAL_RE, FMATH_PATH,
     num_waiver("checked"),
     lambda m: f"raw {m.group(1)}() call; use the Safe*/Checked*/Clamped* "
               "helpers from common/fmath.h, or waive a proven in-domain "
               "call with `// num: checked <reason>`"),
    ("float-equality", FLOAT_EQ_RE, None, num_waiver("float-eq"),
     lambda m: "exact comparison with a float literal; compare against a "
               "tolerance, or waive an intentional exact check with "
               "`// num: float-eq <reason>`"),
    ("unseeded-rng", RAND_RE, None, num_waiver("rng"),
     lambda m: f"{m.group(1)}() draws from hidden global state; use "
               "tasq::Rng with an explicit seed (common/rng.h)"),
    ("unseeded-rng", RANDOM_DEVICE_RE, RNG_PATH, num_waiver("rng"),
     lambda m: "std::random_device outside common/rng.h makes the run "
               "unreproducible; thread a seed through tasq::Rng instead"),
    ("float-keyed-container", FLOAT_KEY_RE, None, num_waiver("float-key"),
     lambda m: f"associative container keyed on {m.group(1)}: membership "
               "then depends on rounding; quantize to an integer key, or "
               "waive with `// num: float-key <reason>`"),
)

# A declaration introducing a named unordered container. The template
# argument list is matched without nesting awareness, which is fine: only
# the identifier after the closing `>` matters.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s+"
    r"(\w+)\s*(?:;|=|\{|\()")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto\s*&{0,2}\s*"
    r"(?:\[[^\]]*\]|\w+)\s*:\s*([^)]+)\)")
ORDER_WAIVER_RE = re.compile(r"//\s*det:\s*order-independent\s+\S")


def check(repo, report):
    findings = []
    for rel in repo.src:
        stripped = repo.stripped(rel)
        lines = repo.lines(rel)
        for rule, pattern, exempt, waiver, message in PATTERN_RULES:
            if rel == exempt:
                continue
            for match in pattern.finditer(stripped):
                line = line_of(stripped, match.start())
                if not waived(lines, line, waiver):
                    findings.append(Finding(rule, rel, line, message(match)))
        unordered = set(UNORDERED_DECL_RE.findall(stripped))
        for match in RANGE_FOR_RE.finditer(stripped) if unordered else ():
            hit = set(re.findall(r"\w+", match.group(1))) & unordered
            line = line_of(stripped, match.start())
            if hit and not waived(lines, line, ORDER_WAIVER_RE):
                findings.append(Finding(
                    "unordered-iteration", rel, line,
                    f"iterating unordered container `{sorted(hit)[0]}`: "
                    "hash order is unspecified; sort the keys first, or "
                    "mark an order-insensitive fold with "
                    "`// det: order-independent <why>`"))
    return findings


def _calc(text):
    return {"src/mod/calc.cc": text}


FIXTURES = {
    "raw-transcendental": (
        _calc("#include <cmath>\n"
              "double L(double x) { return std::log(x); }\n"
              "double P(double x) { return pow(x, 2.0); }\n"),
        # fmath.h itself, a waived proven-domain call, a member .log(), an
        # identifier ending in a function name, and a Safe* helper.
        {"src/common/fmath.h":
         "#include <cmath>\n"
         "inline double Impl(double x) { return std::exp(x); }\n",
         **_calc("#include <cmath>\n"
                 "double A(Dialog& d) { return d.log() + p->exp(); }\n"
                 "double Backlog(double x);\n"
                 "double C(double x) { return Backlog(x); }\n"
                 "// num: checked norm is >= 1 by construction above\n"
                 "double B(double norm) { return std::sqrt(norm); }\n")}),
    "float-equality": (
        _calc("bool Z(double x) { return x == 0.0; }\n"
              "bool O(double x) { return 1.0 != x; }\n"),
        # Integer-literal comparison, ordered comparison against a float
        # literal, and a waived exact-zero skip.
        _calc("bool Zi(int x) { return x == 0; }\n"
              "bool Lt(double x) { return x <= 0.5; }\n"
              "bool Zw(double x) {\n"
              "  return x == 0.0;  // num: float-eq exact-zero skip\n"
              "}\n")),
    "unseeded-rng": (
        _calc("#include <cstdlib>\n"
              "#include <random>\n"
              "int R() { return rand(); }\n"
              "unsigned D() { std::random_device rd; return rd(); }\n"),
        # random_device inside the sanctioned wrapper, and a member .rand().
        {"src/common/rng.h": "#include <random>\n"
                             "struct Rng { std::random_device entropy_; };\n",
         **_calc("int Use(Sampler& s) { return s.rand(); }\n")}),
    "float-keyed-container": (
        _calc("#include <map>\n"
              "std::map<double, int> by_score;\n"),
        # Float as mapped value (not key), and a waived float key.
        _calc("#include <map>\n"
              "#include <cstdint>\n"
              "std::map<int64_t, double> by_id;\n"
              "// num: float-key keys are exact powers of two\n"
              "std::map<double, int> by_scale;\n")),
    "unordered-iteration": (
        _calc("#include <string>\n"
              "#include <unordered_map>\n"
              "double Sum(int) {\n"
              "  std::unordered_map<std::string, double> totals;\n"
              "  double sum = 0.0;\n"
              "  for (const auto& [key, value] : totals) sum += value;\n"
              "  return sum;\n"
              "}\n"),
        # Ordered map and vector iteration, and a waived commutative fold
        # over an unordered map.
        _calc("#include <map>\n"
              "#include <string>\n"
              "#include <unordered_map>\n"
              "#include <vector>\n"
              "double Sum(const std::vector<double>& items) {\n"
              "  std::map<std::string, double> ordered;\n"
              "  std::unordered_map<std::string, double> totals;\n"
              "  double sum = 0.0;\n"
              "  for (const auto& [key, value] : ordered) sum += value;\n"
              "  for (double item : items) sum += item;\n"
              "  // det: order-independent commutative sum only\n"
              "  for (const auto& [key, value] : totals) sum += value;\n"
              "  return sum;\n"
              "}\n")),
}
