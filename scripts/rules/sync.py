"""sync: atomics & lock-free discipline for src/.

A wrong memory order is invisible on x86 test hardware and only misbehaves
under contention or on weaker architectures, so every raw atomic follows a
written-down discipline:

  atomic-implicit-order      every load / store / exchange /
                             compare_exchange_* / fetch_* spells an explicit
                             std::memory_order (CAS: success and failure).
                             Waiver tag: `order`.
  atomic-seqcst-needs-reason seq_cst is the most expensive order and almost
                             always cargo cult; a deliberate use says why.
                             Waiver tag: `seqcst` (the justification itself).
  atomic-outside-sync        raw std::atomic lives only in src/common/sync/
                             or in files listed with a rationale in
                             scripts/sync_files.txt (no per-line waiver).
  cas-weak-loop              compare_exchange_strong inside a retry loop
                             should be _weak. Waiver tag: `cas`.
  cas-strong-single          compare_exchange_weak outside any loop can fail
                             spuriously and drop the update. Waiver tag:
                             `cas`.
  spin-without-pause         a busy-wait (atomic read in the condition, empty
                             body) executes CpuRelax() (common/sync/pause.h)
                             or yields. Waiver tag: `spin`.
  volatile-as-sync           `volatile` is not a synchronization primitive
                             (`asm volatile` is exempt). Waiver tag:
                             `volatile`.
  sync-stale-allowlist       sync_files.txt entries name existing files that
                             still hold std::atomic and carry a rationale.

Waivers read `// sync: <tag> <reason>` on the offending line or the line
directly above it.
"""

import re

from tasq_check import (Finding, line_of, loop_regions, matching_end,
                        waived)

RULES = ("atomic-implicit-order", "atomic-seqcst-needs-reason",
         "atomic-outside-sync", "cas-weak-loop", "cas-strong-single",
         "spin-without-pause", "volatile-as-sync", "sync-stale-allowlist")

ALLOWLIST_PATH = "scripts/sync_files.txt"
SYNC_DIR_PREFIX = "src/common/sync/"

# Member-call spelling of the std::atomic API. Operator forms (++, +=,
# implicit conversion) do not occur in this codebase; atomic-outside-sync
# keeps raw atomics confined to reviewed files that uphold the member-call
# discipline.
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


WAIVERS = {tag: re.compile(r"//\s*sync:\s*" + tag + r"\b\s*\S")
           for tag in ("order", "seqcst", "cas", "spin", "volatile")}


def op_sites(stripped):
    """(line, method, argument text) for every atomic member call."""
    sites = []
    for match in ATOMIC_OP_RE.finditer(stripped):
        close = matching_end(stripped, match.end() - 1)
        if close >= 0:
            sites.append((line_of(stripped, match.start()), match.group(1),
                          stripped[match.end():close - 1]))
    return sites


def load_allowlist(repo):
    """{repo-relative path: (rationale, lineno)}."""
    entries = {}
    for lineno, raw in enumerate(
            (repo.aux(ALLOWLIST_PATH) or "").splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            entry, _, rationale = line.partition("#")
            entries[entry.strip()] = (rationale.strip(), lineno)
    return entries


def check_allowlist(repo, allowlist):
    """Stale or rationale-less entries fail: the allowlist must track
    reality, or it silently grandfathers future atomics in."""
    findings = []
    for entry, (rationale, lineno) in sorted(allowlist.items()):
        if entry not in repo.src:
            problem = "names no file under src/; remove it"
        elif not ATOMIC_TYPE_RE.search(repo.stripped(entry)):
            problem = ("no longer contains std::atomic; remove it so the "
                       "file goes back under the atomic-outside-sync rule")
        elif not rationale:
            problem = ("has no rationale; append `# <why this file owns raw "
                       "atomics>`")
        else:
            continue
        findings.append(Finding("sync-stale-allowlist", ALLOWLIST_PATH,
                                lineno,
                                f"allowlist entry '{entry}' {problem}"))
    return findings


def check_file(rel, stripped, lines, allowlist):
    findings = []
    for line, method, args in op_sites(stripped):
        cas = method.startswith("compare_exchange")
        if (len(MEMORY_ORDER_RE.findall(args)) >= (2 if cas else 1)
                or waived(lines, line, WAIVERS["order"])):
            continue
        need = ("both success and failure std::memory_order arguments"
                if cas else "an explicit std::memory_order")
        findings.append(Finding(
            "atomic-implicit-order", rel, line,
            f"atomic '{method}' without {need}: the implicit seq_cst "
            "default is indistinguishable from an unconsidered order. "
            "Spell the order, or waive with `// sync: order <reason>`"))
    for match in SEQCST_RE.finditer(stripped):
        line = line_of(stripped, match.start())
        if not waived(lines, line, WAIVERS["seqcst"]):
            findings.append(Finding(
                "atomic-seqcst-needs-reason", rel, line,
                "memory_order_seq_cst without a justification: seq_cst is "
                "the most expensive order and is almost always cargo cult. "
                "Downgrade it, or justify with `// sync: seqcst <why>` "
                "(e.g. naming the store-buffering pair that needs the total "
                "order)"))
    match = ATOMIC_TYPE_RE.search(stripped)
    if match and not rel.startswith(SYNC_DIR_PREFIX) and rel not in allowlist:
        findings.append(Finding(
            "atomic-outside-sync", rel, line_of(stripped, match.start()),
            "raw std::atomic outside src/common/sync/: compose the vetted "
            "primitives (Snapshot<T>) instead, or allowlist this file in "
            f"{ALLOWLIST_PATH} with a rationale"))
    regions = loop_regions(stripped)
    for match in re.finditer(r"\bcompare_exchange_(weak|strong)\b",
                             stripped):
        line = line_of(stripped, match.start())
        if waived(lines, line, WAIVERS["cas"]):
            continue
        looped = any(r.start <= match.start() < r.end for r in regions)
        if match.group(1) == "strong" and looped:
            findings.append(Finding(
                "cas-weak-loop", rel, line,
                "compare_exchange_strong inside a retry loop: the loop "
                "already tolerates spurious failure, so use the cheaper "
                "compare_exchange_weak (or waive with "
                "`// sync: cas <reason>`)"))
        elif match.group(1) == "weak" and not looped:
            findings.append(Finding(
                "cas-strong-single", rel, line,
                "single-shot compare_exchange_weak: weak CAS may fail "
                "spuriously and silently drop the update; use "
                "compare_exchange_strong (or waive with "
                "`// sync: cas <reason>`)"))
    for region in regions:
        if region.kind in ("do", "do-tail") or not ATOMIC_READ_RE.search(
                stripped[region.cond_span[0]:region.cond_span[1]]):
            continue
        # A non-trivial body either pauses (a conforming busy-wait) or
        # advances the condition (a progress loop, not a spin).
        body = stripped[region.body_span[0]:region.body_span[1]]
        line = line_of(stripped, region.start)
        if body.strip(" \t\n{};") or waived(lines, line, WAIVERS["spin"]):
            continue
        findings.append(Finding(
            "spin-without-pause", rel, line,
            "busy-wait on an atomic with an empty loop body: add CpuRelax() "
            "(src/common/sync/pause.h) or a yield to the body; a pauseless "
            "spin starves the sibling hyperthread and pays the memory-order "
            "machine-clear penalty (or waive with `// sync: spin <reason>`)"))
    for match in re.finditer(r"\bvolatile\b", stripped):
        # `asm volatile` qualifies the asm statement, not data.
        if re.search(r"\basm\s*$|__asm__\s*$",
                     stripped[max(0, match.start() - 24):match.start()]):
            continue
        line = line_of(stripped, match.start())
        if not waived(lines, line, WAIVERS["volatile"]):
            findings.append(Finding(
                "volatile-as-sync", rel, line,
                "volatile is not a synchronization primitive in C++ (no "
                "atomicity, no ordering, races are still UB): use "
                "std::atomic with an explicit memory order, or waive a "
                "genuine MMIO/signal-handler use with "
                "`// sync: volatile <reason>`"))
    return findings


def check(repo, report):
    allowlist = load_allowlist(repo)
    findings = check_allowlist(repo, allowlist)
    for rel in repo.src:
        findings += check_file(rel, repo.stripped(rel), repo.lines(rel),
                               allowlist)
    return findings


def inventory(repo):
    out = []
    for rel in repo.src:
        for line, method, args in op_sites(repo.stripped(rel)):
            orders = ", ".join(o.replace("memory_order_", "") for o in
                               MEMORY_ORDER_RE.findall(args))
            out.append(f"{rel}:{line}: {method}"
                       f"({orders or 'IMPLICIT seq_cst'})")
    return out + [f"{len(out)} atomic operation site(s) under src/"]


# Conforming base: one vetted-primitive file inside src/common/sync/
# exercising the near-miss shapes (explicit orders, weak CAS in a retry
# loop, progress-loop bodies), plus an atomic-free cold file.
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
GOOD = {
    "src/common/sync/counter.h": COUNTER_H,
    "src/app/cold.cc": "int Plain(int x) { return x + 1; }\n",
}
STATS = {"src/app/stats.h": "#include <atomic>\n"
                            "inline std::atomic<int> g_requests{0};\n"}


def _inject(member):
    """`member` lands inside the Counter class (in the sync dir, so
    atomic-outside-sync stays quiet)."""
    return {**GOOD, "src/common/sync/counter.h": COUNTER_H.replace(
        " private:", f"  {member}\n private:")}


FIXTURES = {
    "atomic-implicit-order": (
        _inject("void Bump() { c_.fetch_add(1); }"),
        _inject("void Bump() { c_.fetch_add(1); }"
                "  // sync: order wraps a legacy counter ABI")),
    "atomic-seqcst-needs-reason": (
        _inject("void Seal() { c_.store(0, std::memory_order_seq_cst); }"),
        _inject("// sync: seqcst SB litmus against the drain flag\n"
                "  void Seal() { c_.store(0, std::memory_order_seq_cst); }")),
    "atomic-outside-sync": (
        {**GOOD, **STATS},
        {**GOOD, **STATS, ALLOWLIST_PATH:
         "src/app/stats.h  # relaxed request counters, stats only\n"}),
    "cas-weak-loop": (
        _inject("void ForceTo(unsigned want) {\n"
                "    unsigned seen = c_.load(std::memory_order_relaxed);\n"
                "    while (!c_.compare_exchange_strong(seen, want,\n"
                "               std::memory_order_acq_rel,\n"
                "               std::memory_order_relaxed)) {\n"
                "      seen = c_.load(std::memory_order_relaxed);\n"
                "    }\n"
                "  }"),
        _inject("void ForceTo(unsigned want) {\n"
                "    unsigned seen = c_.load(std::memory_order_relaxed);\n"
                "    // sync: cas strong keeps the ABA analysis one-shot\n"
                "    while (!c_.compare_exchange_strong(seen, want,\n"
                "               std::memory_order_acq_rel,\n"
                "               std::memory_order_relaxed)) {\n"
                "      seen = c_.load(std::memory_order_relaxed);\n"
                "    }\n"
                "  }")),
    "cas-strong-single": (
        _inject("bool TryOnce(unsigned want) {\n"
                "    unsigned seen = 0;\n"
                "    return c_.compare_exchange_weak(seen, want,\n"
                "               std::memory_order_acq_rel,\n"
                "               std::memory_order_relaxed);\n"
                "  }"),
        _inject("bool TryOnce(unsigned want) {\n"
                "    unsigned seen = 0;\n"
                "    return c_.compare_exchange_strong(seen, want,\n"
                "               std::memory_order_acq_rel,\n"
                "               std::memory_order_relaxed);\n"
                "  }")),
    "spin-without-pause": (
        _inject("void WaitZero() const {\n"
                "    while (c_.load(std::memory_order_acquire) != 0) {}\n"
                "  }"),
        _inject("void WaitZero() const {\n"
                "    while (c_.load(std::memory_order_acquire) != 0) {\n"
                "      CpuRelax();\n"
                "    }\n"
                "  }")),
    "volatile-as-sync": (
        _inject("volatile bool ready_ = false;"),
        _inject("void Fence() { asm volatile(\"\" ::: \"memory\"); }")),
    "sync-stale-allowlist": (
        {**GOOD, ALLOWLIST_PATH:
         "src/app/ghost.h  # file was deleted\n"},
        GOOD),
}
