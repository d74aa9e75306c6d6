#!/usr/bin/env python3
"""Memory-order audit for the lock-word hot paths.

Every std::atomic operation in the audited directories must spell its
memory order explicitly: a defaulted argument silently means seq_cst,
which on the SOLERO fast paths is the difference between a plain MOV and
an MFENCE-class instruction — and, the other way around, a *deliberate*
seq_cst that looks accidental is exactly the kind of fence DESIGN.md §4
and §18 need to be able to point at. Bare `volatile` is banned outright
(it is neither atomic nor ordered; the codebase uses std::atomic).

The scanner is textual but multi-line aware: it finds atomic member-call
heads (`.load(`, `.store(`, `.exchange(`, `.fetch_*(`,
`.compare_exchange_*(`) plus `atomic_thread_fence(`/`atomic_signal_fence(`
after stripping comments and string literals, extracts the balanced
argument list even when it spans lines, and checks that a
`std::memory_order_*` (or `memory_order::`) token appears among the
arguments. compare_exchange calls must name *two* orders (success and
failure) — the single-order overload derives the failure order silently.

A second check guards per-thread state: an array declared with a
`[ThreadRegistry::MaxThreads]` or `[MaxThreads]` bound is a dense
slot-indexed table, whose owner-written cells share cache lines between
16 threads (the false sharing that once cost BRAVO its read scaling).
Such state belongs in runtime/PerThreadSlots.h, which pads every cell,
or in thread-owned state. This check covers all of src/.

Deliberate exceptions carry an inline annotation on the line of the call
head or array bound (or the preceding line):

    // atomics-lint: allow(<reason>)

Usage:
    tools/atomics_lint.py [--root=REPO] [DIR...]   # default audited dirs
    tools/atomics_lint.py --self-test

Exit status: 0 clean, 1 findings, 2 usage/self-test failure.
"""

import re
import sys
from pathlib import Path

AUDITED_DIRS = ["src/core", "src/locks", "src/resilience"]
PER_THREAD_DIRS = ["src"]
SUFFIXES = {".h", ".cpp"}

CALL_HEAD = re.compile(
    r"""(?:
          [.\->]\s*(?P<member>load|store|exchange|
                    fetch_add|fetch_sub|fetch_or|fetch_and|fetch_xor|
                    compare_exchange_weak|compare_exchange_strong)
        | \b(?P<free>(?:std\s*::\s*)?atomic_(?:thread|signal)_fence)
        )\s*\(""",
    re.VERBOSE,
)
ORDER_TOKEN = re.compile(r"\bmemory_order(?:_\w+|\s*::\s*\w+)\b")
ALLOW = re.compile(r"atomics-lint:\s*allow\(")
VOLATILE = re.compile(r"\bvolatile\b")
PER_THREAD_ARRAY = re.compile(
    r"\[\s*(?:ThreadRegistry\s*::\s*)?MaxThreads\s*\]")


def strip_noncode(text):
    """Blanks comments and string/char literals, preserving newlines and
    column positions — except that `atomics-lint: allow(...)` annotations
    are kept (they live in comments). Raw strings are not used in the
    audited sources, so only the ordinary forms are handled."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        two = text[i : i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j == -1 else j
            comment = text[i:j]
            out.append(comment if ALLOW.search(comment) else " " * len(comment))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            kept = chunk if ALLOW.search(chunk) else re.sub(r"[^\n]", " ", chunk)
            out.append(kept)
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j = j + 2 if text[j] == "\\" else j + 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def balanced_args(text, open_paren):
    """Returns the argument text between the paren at `open_paren` and its
    match, or None when unbalanced (truncated file)."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : j]
    return None


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def allowed(lines, lineno):
    """True when the call-head line or the one above carries an
    atomics-lint allow annotation."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(lines) and ALLOW.search(lines[ln - 1]):
            return True
    return False


def lint_text(text, path="<memory>"):
    findings = []
    code = strip_noncode(text)
    lines = code.splitlines()
    for m in CALL_HEAD.finditer(code):
        callee = m.group("member") or m.group("free")
        lineno = line_of(code, m.start())
        args = balanced_args(code, m.end() - 1)
        if args is None:
            findings.append((path, lineno, f"{callee}: unbalanced call"))
            continue
        orders = len(ORDER_TOKEN.findall(args))
        need = 2 if callee.startswith("compare_exchange") else 1
        if orders >= need or allowed(lines, lineno):
            continue
        if orders == 0:
            findings.append(
                (path, lineno,
                 f"{callee}: no explicit memory order (defaults to "
                 "seq_cst); spell it out or annotate "
                 "// atomics-lint: allow(<reason>)"))
        else:
            findings.append(
                (path, lineno,
                 f"{callee}: only one memory order named; the "
                 "compare_exchange failure order is derived silently — "
                 "pass both"))
    for i, line in enumerate(code.splitlines(), start=1):
        if VOLATILE.search(line) and not allowed(lines, i):
            findings.append(
                (path, i,
                 "bare volatile: neither atomic nor ordered — use "
                 "std::atomic with explicit memory orders"))
    return findings


def lint_per_thread_arrays(text, path="<memory>"):
    findings = []
    code = strip_noncode(text)
    lines = code.splitlines()
    for m in PER_THREAD_ARRAY.finditer(code):
        lineno = line_of(code, m.start())
        if not allowed(lines, lineno):
            findings.append(
                (path, lineno,
                 "dense per-thread array: owner-written cells of neighbouring "
                 "threads share cache lines; use PerThreadSlots "
                 "(runtime/PerThreadSlots.h) or thread-owned state"))
    return findings


def self_test():
    bad = """
        V = W.load();
        W.store(1);
        W.fetch_add(1) ;
        if (W.compare_exchange_strong(E, N)) {}
        if (W.compare_exchange_weak(E, N,
                                    std::memory_order_acq_rel)) {}
        std::atomic_thread_fence();
        volatile int X = 0;
        Holds(new uint32_t[ThreadRegistry::MaxThreads]()),
        Cells(new OpCell[ MaxThreads ]);
        uint64_t Table[ThreadRegistry :: MaxThreads];
    """
    good = """
        V = W.load(std::memory_order_acquire);
        W.store(1, std::memory_order_release);  // string: "W.store(2);"
        W.fetch_add(1, std::memory_order::relaxed);
        if (W.compare_exchange_strong(E, N, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {}
        std::atomic_thread_fence(std::memory_order_seq_cst);
        W.store(1); // atomics-lint: allow(test exception)
        // atomics-lint: allow(annotation on the preceding line)
        W.load();
        // comment: W.store(3); volatile — stripped, not a finding
        PerThreadSlots<OpCell> Ops;
        Groups(new Group[Partitions * ThreadRegistry::MaxThreads]);
        for (uint32_t S = 0; S < ThreadRegistry::MaxThreads; ++S) {}
        // a comment naming new uint32_t[MaxThreads] is not a finding
        Log("new T[MaxThreads]");
        // atomics-lint: allow(the padded per-thread type itself)
        Cells(new CacheLinePadded<T>[ThreadRegistry::MaxThreads]);
    """

    def both(text, path):
        return lint_text(text, path) + lint_per_thread_arrays(text, path)

    bad_found = both(bad, "bad")
    good_found = both(good, "good")
    ok = len(bad_found) == 10 and not good_found
    if not ok:
        print(f"self-test FAILED: bad={len(bad_found)} (want 10), "
              f"good={len(good_found)} (want 0)")
        for f in bad_found + good_found:
            print("  %s:%d: %s" % f)
        return 2
    print("self-test OK")
    return 0


def main(argv):
    root = Path(".")
    dirs = []
    for arg in argv[1:]:
        if arg == "--self-test":
            return self_test()
        if arg.startswith("--root="):
            root = Path(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            print(f"atomics_lint: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            dirs.append(arg)
    # Explicit directories get both checks; by default each check covers
    # its own set.
    passes = ([(dirs, lint_text), (dirs, lint_per_thread_arrays)] if dirs
              else [(AUDITED_DIRS, lint_text),
                    (PER_THREAD_DIRS, lint_per_thread_arrays)])

    findings = []
    scanned = set()
    for pass_dirs, check in passes:
        for d in pass_dirs:
            base = root / d
            if not base.is_dir():
                print(f"atomics_lint: no such directory {base}",
                      file=sys.stderr)
                return 2
            for p in sorted(base.rglob("*")):
                if p.suffix in SUFFIXES:
                    scanned.add(p)
                    findings.extend(
                        check(p.read_text(), str(p.relative_to(root))))
    scanned = len(scanned)
    for path, lineno, msg in findings:
        print(f"{path}:{lineno}: {msg}")
    print(f"atomics_lint: {scanned} files, {len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
