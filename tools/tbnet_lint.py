#!/usr/bin/env python3
"""Repo-invariant linter: AST-free checks for the contracts this repo
actually relies on but no compiler flag can express.

Rules (each reported as `rule-name: file:line: message`):

  hot-path-heap      No heap allocation inside the kernel hot-path files
                     (src/tensor/simd.cpp, src/tensor/pack.cpp,
                     src/tensor/im2col.cpp): new /
                     malloc / calloc / realloc and container growth
                     (push_back / emplace_back / resize / reserve) are
                     banned — kernels draw from the arena so the serving
                     steady state allocates nothing. A deliberate
                     prepare-time exception carries a
                     `lint: allow-heap(<justification>)` comment on the
                     same or one of the two preceding lines; an empty
                     justification does not waive.
  enum-switch        Every `switch` over Status (runtime/server.h),
                     WorkerHealth (runtime/measurements.h), or
                     FaultInjector::Kind (tee/fault.h) either covers every
                     enumerator or has a `default:` label. Adding an enum
                     value must break the build (or this lint), never
                     silently fall through — route string forms through the
                     `*_name` helpers, which are exhaustive switches
                     themselves.
  env-doc            Every `"TBNET_*"` environment variable named in code
                     (src/, bench/, tools/, examples/) is documented in
                     README.md or docs/OPERATIONS.md (the consolidated
                     env-var table lives there since PR 10). Undocumented
                     knobs rot.
  docs-coverage      Every data member of InferenceServer::Config
                     (src/runtime/server.h) and every counter of
                     ServingStats (src/runtime/measurements.h) is named in
                     docs/OPERATIONS.md — adding a serving knob or stat
                     without operator documentation fails CI. Skipped
                     silently when the anchor structs are absent (fixture
                     trees); the structs existing WITHOUT the docs file is
                     itself a finding.
  bench-keys         Every top-level key of the committed BENCH_*.json
                     baselines is known to tools/check_bench_regression.py
                     (gated, or listed in its METADATA_KEYS). A bench
                     section nobody gates or declares is a silent coverage
                     hole.
  seeded-rng         No std::rand / srand / std::random_device outside
                     tests/: all randomness in shipped code must be seeded
                     (Rng, splitmix64) so runs are reproducible.
  kernel-pin         Within src/, only src/tensor/simd.h and simd.cpp name
                     fast_kernels_enabled. TBNET_DETERMINISTIC=1 decides
                     one thing — the dispatch selects the scalar tier — so
                     no layer asks which mode is on or keeps a second
                     inference path for it.
  one-ta             Within src/, exactly one class derives from
                     tee::TrustedApp: TbnetTA in src/runtime/deployed.cpp.
                     Every deployment (TBNet and its Full-TEE and Partition
                     baselines) installs a TbnetTA image, so the REE-facing
                     parser that must treat every byte as hostile exists
                     once. Tests and perfbench keep their echo TAs.
  retired-name       Within src/, bench/, tools/ and examples/, a retired
                     name appears only in the file that keeps it:
                     max_queue_delay in src/runtime/server.h, kCmdPushStage
                     in src/runtime/deployed.h. Both stay only because
                     perfbench/ names them; the rule and its entries go
                     when perfbench next changes.

Comments and string literals are stripped before token scans, so a banned
token inside an error message or a comment never fires.

Usage: tbnet_lint.py [--root DIR]   (DIR defaults to the repo root, taken
as the parent of this script's directory). Exits 1 when any rule fires.

Adding a rule: write a `check_*(root) -> list[Finding]` function, append it
to CHECKS, and add a fixture to tools/test_tbnet_lint.py proving it fires —
the lint_selftest ctest entry runs those fixtures, so an inert rule fails
CI. Suppressions are rule-specific and must carry a justification (see
hot-path-heap); there is no blanket ignore.
"""

import argparse
import glob
import json
import os
import re
import sys

# The panel producer in im2col.cpp runs on pool workers once per column
# panel and k-block, so it is held to the kernels' no-allocation rule.
KERNEL_HOT_FILES = ["src/tensor/simd.cpp", "src/tensor/pack.cpp",
                    "src/tensor/im2col.cpp"]

# enum name -> header (relative to root) defining it. The parser finds
# `enum class <name>` and collects enumerators up to the closing brace.
TARGET_ENUMS = {
    "Status": "src/runtime/server.h",
    "WorkerHealth": "src/runtime/measurements.h",
    "Kind": "src/tee/fault.h",
}

CODE_DIRS = ["src", "bench", "tools", "examples"]
CODE_EXTS = (".cpp", ".h")

HEAP_TOKEN = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|"
    r"\.push_back\s*\(|\.emplace_back\s*\(|\.resize\s*\(|\.reserve\s*\(")
ALLOW_HEAP = re.compile(r"lint:\s*allow-heap\(([^)]+)\)")
ENV_VAR = re.compile(r'"(TBNET_[A-Z0-9_]+)"')
RNG_TOKEN = re.compile(r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule, self.path, self.line, self.message = rule, path, line, message

    def __str__(self):
        return f"{self.rule}: {self.path}:{self.line}: {self.message}"


def strip_code(text):
    """Blanks out comments and string/char literals, preserving newlines so
    line numbers survive. Handles //, /* */, "..." and '...' with escapes
    (the constructs this codebase uses; raw strings are not)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def code_files(root):
    for d in CODE_DIRS:
        for ext in CODE_EXTS:
            pattern = os.path.join(root, d, "**", f"*{ext}")
            yield from sorted(glob.glob(pattern, recursive=True))


def rel(root, path):
    return os.path.relpath(path, root)


# ---------------------------------------------------------- hot-path-heap --

def check_hot_path_heap(root):
    findings = []
    for relpath in KERNEL_HOT_FILES:
        path = os.path.join(root, relpath)
        if not os.path.exists(path):
            continue
        raw_lines = read(path).splitlines()
        stripped = strip_code(read(path)).splitlines()
        for lineno, line in enumerate(stripped, start=1):
            if re.match(r"\s*#\s*include\b", line):  # e.g. #include <new>
                continue
            m = HEAP_TOKEN.search(line)
            if not m:
                continue
            # Waiver window: the flagged line or the two lines above it
            # (comment conventions put the marker on its own line).
            window = raw_lines[max(0, lineno - 3):lineno]
            if any(ALLOW_HEAP.search(w) for w in window):
                continue
            findings.append(Finding(
                "hot-path-heap", relpath, lineno,
                f"heap allocation token `{m.group(0).strip()}` in a kernel "
                f"hot-path file — use the arena, or justify with "
                f"`lint: allow-heap(<why>)`"))
    return findings


# ------------------------------------------------------------ enum-switch --

def parse_enum(root, name, header):
    path = os.path.join(root, header)
    if not os.path.exists(path):
        return None
    text = strip_code(read(path))
    m = re.search(rf"enum\s+class\s+{name}\b[^{{]*{{", text)
    if not m:
        return None
    body = text[m.end():text.index("}", m.end())]
    return set(re.findall(r"\b(k[A-Za-z0-9_]+)\b\s*(?:=[^,]*)?(?:,|$)", body))


def switch_blocks(text):
    """Yields (lineno, body) for every switch statement in stripped code."""
    for m in re.finditer(r"\bswitch\s*\(", text):
        # Find the opening brace after the controlling expression.
        depth, i = 1, m.end()
        while i < len(text) and depth:
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
        brace = text.find("{", i)
        if brace < 0:
            continue
        depth, j = 1, brace + 1
        while j < len(text) and depth:
            depth += {"{": 1, "}": -1}.get(text[j], 0)
            j += 1
        yield text.count("\n", 0, m.start()) + 1, text[brace:j]


def check_enum_switch(root):
    enums = {}
    for name, header in TARGET_ENUMS.items():
        values = parse_enum(root, name, header)
        if values:
            enums[name] = values
    findings = []
    for path in code_files(root):
        text = strip_code(read(path))
        if "switch" not in text:
            continue
        for lineno, body in switch_blocks(text):
            cases = re.findall(r"case\s+((?:\w+::)*\w+)\s*:", body)
            for name, values in enums.items():
                covered = {c.split("::")[-1] for c in cases
                           if c.split("::")[-2:-1] == [name]}
                if not covered:
                    continue
                missing = values - covered
                if missing and not re.search(r"\bdefault\s*:", body):
                    findings.append(Finding(
                        "enum-switch", rel(root, path), lineno,
                        f"switch over {name} misses "
                        f"{{{', '.join(sorted(missing))}}} and has no "
                        f"default — cover every enumerator or route through "
                        f"the *_name helper"))
    return findings


# ---------------------------------------------------------------- env-doc --

ENV_DOC_FILES = ["README.md", "docs/OPERATIONS.md"]


def check_env_doc(root):
    documented = ""
    for doc in ENV_DOC_FILES:
        path = os.path.join(root, doc)
        if os.path.exists(path):
            documented += read(path)
    findings = []
    seen = set()
    for path in code_files(root):
        # Scan raw text: env names live inside string literals by nature.
        for lineno, line in enumerate(read(path).splitlines(), start=1):
            for m in ENV_VAR.finditer(line):
                var = m.group(1)
                if var in seen or var in documented:
                    continue
                seen.add(var)
                findings.append(Finding(
                    "env-doc", rel(root, path), lineno,
                    f"{var} is read here but not documented in "
                    f"{' or '.join(ENV_DOC_FILES)}"))
    return findings


# ----------------------------------------------------------- docs-coverage --

# (struct, header) anchors whose data members must all be named in DOCS_OPS.
DOCS_COVERAGE_STRUCTS = [
    ("Config", "src/runtime/server.h"),
    ("ServingStats", "src/runtime/measurements.h"),
]
DOCS_OPS = "docs/OPERATIONS.md"


def struct_members(text, name):
    """Returns [(member, lineno)] for the depth-1 data members of
    `struct <name>` in stripped code, or None when the struct is absent.
    Member functions, nested type definitions, and anything inside nested
    braces (function bodies, brace initializers) are skipped."""
    m = re.search(rf"struct\s+{name}\b[^{{;]*{{", text)
    if m is None:
        return None
    members = []
    depth, i = 1, m.end()
    line = text.count("\n", 0, i) + 1
    chunk, chunk_line = "", line

    def flush():
        nonlocal chunk
        decl, chunk = chunk.strip(), ""
        if (not decl or "(" in decl
                or decl.startswith(("using ", "static ", "typedef ",
                                    "friend ", "enum ", "struct ",
                                    "class "))):
            return
        # `<type tokens...> <name>` optionally `= <init>`: the member name
        # is the last identifier before any initializer.
        tokens = re.findall(r"[A-Za-z_]\w*", decl.split("=", 1)[0])
        if len(tokens) >= 2:
            members.append((tokens[-1], chunk_line))

    while i < len(text) and depth:
        c = text[i]
        if c == "\n":
            line += 1
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 1:  # function body / brace initializer closed
                flush()
                chunk_line = line
        elif depth == 1:
            if c == ";":
                flush()
                chunk_line = line
            else:
                if not chunk.strip():
                    chunk_line = line
                chunk += c
        i += 1
    return members


def check_docs_coverage(root):
    findings = []
    ops_path = os.path.join(root, DOCS_OPS)
    ops = read(ops_path) if os.path.exists(ops_path) else None
    for struct, header in DOCS_COVERAGE_STRUCTS:
        path = os.path.join(root, header)
        if not os.path.exists(path):
            continue  # tree without the serving stack (lint fixtures)
        members = struct_members(strip_code(read(path)), struct)
        if members is None:
            continue
        if ops is None:
            findings.append(Finding(
                "docs-coverage", header, 1,
                f"struct {struct} exists but {DOCS_OPS} is missing — every "
                f"Config field and ServingStats counter must be documented "
                f"there"))
            continue
        for name, lineno in members:
            if not re.search(rf"\b{re.escape(name)}\b", ops):
                findings.append(Finding(
                    "docs-coverage", header, lineno,
                    f"{struct}::{name} is not mentioned in {DOCS_OPS} — "
                    f"document the knob/counter where operators will look "
                    f"for it"))
    return findings


# ------------------------------------------------------------- bench-keys --

def check_bench_keys(root):
    checker_path = os.path.join(root, "tools", "check_bench_regression.py")
    checker = read(checker_path) if os.path.exists(checker_path) else ""
    findings = []
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        try:
            doc = json.loads(read(path))
        except json.JSONDecodeError as e:
            findings.append(Finding("bench-keys", rel(root, path), 1,
                                    f"unparseable JSON: {e}"))
            continue
        if not isinstance(doc, dict):
            continue
        for key in doc:
            if f'"{key}"' not in checker:
                findings.append(Finding(
                    "bench-keys", rel(root, path), 1,
                    f"top-level key \"{key}\" is not known to "
                    f"check_bench_regression.py — gate it or add it to "
                    f"METADATA_KEYS there"))
    return findings


# ------------------------------------------------------------- seeded-rng --

def check_seeded_rng(root):
    findings = []
    for path in code_files(root):
        text = strip_code(read(path))
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = RNG_TOKEN.search(line)
            if m:
                findings.append(Finding(
                    "seeded-rng", rel(root, path), lineno,
                    f"`{m.group(0).strip()}` outside tests/ — use a seeded "
                    f"Rng/splitmix64 so runs are reproducible"))
    return findings


# ------------------------------------------------------------- kernel-pin --

KERNEL_PIN_FILES = {"src/tensor/simd.h", "src/tensor/simd.cpp"}
KERNEL_PIN_TOKEN = re.compile(r"\bfast_kernels_enabled\b")


def check_kernel_pin(root):
    findings = []
    for path in code_files(root):
        relpath = rel(root, path).replace(os.sep, "/")
        if not relpath.startswith("src/") or relpath in KERNEL_PIN_FILES:
            continue
        text = strip_code(read(path))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if KERNEL_PIN_TOKEN.search(line):
                findings.append(Finding(
                    "kernel-pin", relpath, lineno,
                    "fast_kernels_enabled outside src/tensor/simd.* — "
                    "TBNET_DETERMINISTIC only selects the scalar kernel "
                    "tier; run the one path the dispatched kernels serve"))
    return findings


# ----------------------------------------------------------------- one-ta --

ONE_TA = ("src/runtime/deployed.cpp", "TbnetTA")
TA_SUBCLASS = re.compile(
    r"\b(?:class|struct)\s+(\w+)[^{;]*?:[^{;]*\bTrustedApp\b")


def check_one_ta(root):
    findings = []
    for path in code_files(root):
        relpath = rel(root, path).replace(os.sep, "/")
        if not relpath.startswith("src/"):
            continue
        text = strip_code(read(path))
        for m in TA_SUBCLASS.finditer(text):
            if (relpath, m.group(1)) == ONE_TA:
                continue
            findings.append(Finding(
                "one-ta", relpath, text.count("\n", 0, m.start()) + 1,
                f"{m.group(1)} derives from tee::TrustedApp — src/ has one "
                f"trusted application, TbnetTA in {ONE_TA[0]}; install a "
                f"TbnetTA image instead"))
    return findings


# ----------------------------------------------------------- retired-name --

# Retired name -> the one file that may still name it.
RETIRED_NAMES = {
    "max_queue_delay": "src/runtime/server.h",
    "kCmdPushStage": "src/runtime/deployed.h",
}


def check_retired_name(root):
    findings = []
    for path in code_files(root):
        relpath = rel(root, path).replace(os.sep, "/")
        text = strip_code(read(path))
        for lineno, line in enumerate(text.splitlines(), start=1):
            for name, home in RETIRED_NAMES.items():
                if relpath != home and re.search(rf"\b{name}\b", line):
                    findings.append(Finding(
                        "retired-name", relpath, lineno,
                        f"{name} is retired — only {home} keeps it, and "
                        f"only while perfbench/ names it"))
    return findings


CHECKS = [
    check_hot_path_heap,
    check_enum_switch,
    check_env_doc,
    check_docs_coverage,
    check_bench_keys,
    check_seeded_rng,
    check_kernel_pin,
    check_one_ta,
    check_retired_name,
]


def run(root):
    findings = []
    for check in CHECKS:
        findings.extend(check(root))
    return findings


def main():
    ap = argparse.ArgumentParser(
        description="Repo-invariant linter (see module docstring).")
    default_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--root", default=default_root,
                    help="repo root to lint (default: this script's repo)")
    args = ap.parse_args()

    findings = run(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"tbnet_lint: {len(findings)} finding(s)")
        return 1
    print("tbnet_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
