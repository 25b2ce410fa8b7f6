#!/usr/bin/env python3
"""mecsched source lint: project-specific invariants clang-tidy cannot see.

Rules (each with a stable id used in messages and waivers):

  rng-outside-common      std::rand/srand/std::random_device, or an RNG
                          seeded from wall-clock time, anywhere outside
                          src/common/rng*. All randomness must flow through
                          the seeded, splittable common/rng facility so
                          every run is reproducible from --seed alone.

  unordered-iteration     Range-for over a std::unordered_map/set. Bucket
                          order depends on insertion/rehash history, so
                          iterating one into CSV rows, trace events, or
                          result vectors makes output depend on memory
                          layout. Sort keys first, or use std::map, or
                          waive when order provably does not reach an
                          output (see Waivers).

  pointer-keyed-container std::map/std::set keyed on a pointer type.
                          Iteration order is address order — allocator
                          layout, i.e. nondeterminism in disguise. Key on
                          a stable id instead.

  unannotated-mutex       A raw std::mutex / condition_variable /
                          lock_guard / unique_lock outside
                          src/common/thread_annotations.h. std::mutex
                          carries no thread-safety attributes, so locks
                          taken through it are invisible to Clang's
                          -Wthread-safety analysis; the tree's locking
                          vocabulary is mecsched::Mutex / MutexLock /
                          CondVar from common/thread_annotations.h.

  detached-thread         thread.detach(). A detached thread outlives the
                          scheduler's shutdown ordering and races process
                          teardown; every thread in the tree is owned and
                          joined (see exec/thread_pool.h).

  naked-new               `new`/`delete` expressions outside smart-pointer
                          factories. Ownership is std::unique_ptr /
                          std::shared_ptr throughout the tree.

  float-in-model          `float` in model/solver code (src/mec, src/lp,
                          src/ilp, src/assign, src/dta). Mixed precision
                          perturbs LP pivots and certificate tolerances;
                          the numeric story is double-only.

  todo-tag                TODO/FIXME without an issue tag. Write
                          `TODO(#123): ...` so every deferred item is
                          trackable; untagged TODOs rot.

  dense-scan-in-kernel    Element-wise `Matrix::operator()(r, c)` reads
                          inside a loop in the hot LP kernel files
                          (src/lp/{simplex,interior_point,sparse_matrix,
                          sparse_cholesky}.cpp). Walk the CSR/CSC arrays
                          (lp/sparse_matrix.h) instead. Writes (setup/
                          assembly) are exempt. Waive on the access line,
                          or on the Matrix declaration to cover every
                          access of that identifier.

  stale-waiver            A waiver comment whose rule no longer fires on
                          the line it covers. Stale waivers hide future
                          regressions of the same rule; delete them when
                          the code they excused goes away. (Waivers for
                          the AST-checked rules are only staleness-checked
                          when the AST pass actually ran on the file — the
                          regex approximations cannot prove absence.)

Modes: the determinism rules (rng-outside-common, unordered-iteration,
pointer-keyed-container, unannotated-mutex, detached-thread) have two
implementations. With --compdb pointing at a compile_commands.json
directory and the python `clang.cindex` bindings importable, each
translation unit is parsed with libclang and the rules run on real types —
catching e.g. iteration over an unordered member declared in another file.
Without libclang (or for headers, or when a file fails to parse) the
regex approximations run instead; the fallback is per-file and silent in
the findings, counted in the summary line. The remaining rules are
regex-only everywhere.

Waivers: a comment on the offending line or on the line directly above it
silences that one finding. Two spellings are accepted:

    // lint:allow-unordered-iteration -- keys are sorted before hashing.
    // mecsched-lint: waive(unordered-iteration) -- keys sorted below.

Always append a `-- reason` so the waiver self-documents. A waiver that no
longer suppresses anything is itself reported (stale-waiver, not
waivable).

Usage:
    mecsched_lint.py [--root DIR] [--compdb DIR] [--github] [paths...]
    mecsched_lint.py --self-test       # verify every rule fires + waivers

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".cc", ".h", ".hpp"}

# Directories (relative to the scan root) whose code is "model/solver" code
# for the float-in-model rule.
MODEL_DIRS = ("src/mec", "src/lp", "src/ilp", "src/assign", "src/dta")

# Files exempt from rng-outside-common: the blessed RNG facility itself.
RNG_HOME = re.compile(r"src/common/rng[^/]*$")

# The one file allowed to touch raw std synchronization primitives: it
# wraps them in the annotated vocabulary everything else must use.
TSA_HOME = "src/common/thread_annotations.h"

# Solver hot-path files watched by dense-scan-in-kernel.
HOT_KERNEL_FILES = {
    "src/lp/simplex.cpp",
    "src/lp/basis_lu.cpp",
    "src/lp/interior_point.cpp",
    "src/lp/sparse_matrix.cpp",
    "src/lp/sparse_cholesky.cpp",
}

RULES = {
    "rng-outside-common",
    "unordered-iteration",
    "pointer-keyed-container",
    "unannotated-mutex",
    "detached-thread",
    "naked-new",
    "float-in-model",
    "todo-tag",
    "dense-scan-in-kernel",
    "stale-waiver",
}

# Rules whose authoritative implementation is the libclang pass; the regex
# versions are approximations (same-file type information only), so their
# waivers are exempt from staleness checking unless the AST pass ran.
DETERMINISM_RULES = {
    "rng-outside-common",
    "unordered-iteration",
    "pointer-keyed-container",
    "unannotated-mutex",
    "detached-thread",
}

RE_WAIVER = re.compile(
    r"lint:allow-(?P<rule>[a-z][a-z-]*)"
    r"|mecsched-lint:\s*waive\((?P<rule2>[a-z][a-z-]*)\)")


class Finding:
    def __init__(self, path: Path, rel: str, line: int, rule: str,
                 message: str):
        self.path = path
        self.rel = rel
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def github(self) -> str:
        """One GitHub Actions workflow-command annotation."""
        return (f"::error file={self.rel},line={self.line},"
                f"title=mecsched-lint [{self.rule}]::{self.message}")


def strip_comments_and_strings(text: str) -> list[str]:
    """Return per-line source with comments and string/char literals blanked.

    Length and line structure are preserved so column-free line numbers stay
    valid. Comment text is also returned blanked, so rules never match words
    inside comments — waivers are handled separately on the raw lines.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    buf = []
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                buf.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                buf.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1 : i + 18]) if i > 0 and text[i - 1] == "R" else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    buf.append('"')
                    i += 1
                    continue
                state = "string"
                buf.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                buf.append("'")
                i += 1
                continue
            buf.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                buf.append("\n")
            else:
                buf.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                buf.append("  ")
                i += 2
            else:
                buf.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                buf.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                buf.append('"')
                i += 1
            else:
                buf.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "char":
            if c == "\\":
                buf.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                buf.append("'")
                i += 1
            else:
                buf.append(" ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                buf.append(raw_delim)
                i += len(raw_delim)
            else:
                buf.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(buf).split("\n")


RE_LOOP_KW = re.compile(r"\b(for|while)\s*\(")


def loop_line_mask(code_lines: list[str]) -> list[bool]:
    """Marks lines that are inside (or start) a for/while loop.

    Brace-depth heuristic over comment-stripped code: a `{` that follows a
    loop header opens a loop scope; a header followed by `;` (no braces) is
    a single-statement loop confined to that statement. Preprocessor tricks
    can fool this — the rule using it accepts per-line waivers for a reason.
    """
    mask = [False] * len(code_lines)
    scopes: list[str] = []  # "loop" | "other" per open brace
    pending = False  # saw a loop keyword, waiting for its { or ;
    header_parens = 0
    header_done = False
    for idx, line in enumerate(code_lines):
        if pending or "loop" in scopes:
            mask[idx] = True
        events = [(m.start(), "kw") for m in RE_LOOP_KW.finditer(line)]
        events += [(i, c) for i, c in enumerate(line) if c in "(){};"]
        for _, ev in sorted(events):
            if ev == "kw":
                pending, header_parens, header_done = True, 0, False
                mask[idx] = True
            elif ev == "(" and pending and not header_done:
                header_parens += 1
            elif ev == ")" and pending and not header_done:
                header_parens -= 1
                header_done = header_parens == 0
            elif ev == "{":
                scopes.append("loop" if pending and header_done else "other")
                pending = False
            elif ev == "}":
                if scopes:
                    scopes.pop()
            elif ev == ";" and pending and header_done:
                pending = False  # single-statement loop body ended
    return mask


class SourceFile:
    """One source file with every shared per-file pass computed at most
    once: comment stripping, the loop mask, and the waiver scan. Rules all
    read from here instead of re-deriving their own views."""

    def __init__(self, path: Path, rel: str, text: str | None = None):
        self.path = path
        self.rel = rel
        self.raw = (path.read_text(encoding="utf-8", errors="replace")
                    if text is None else text)
        self.raw_lines = self.raw.split("\n")
        self._code_lines: list[str] | None = None
        self._code_joined: str | None = None
        self._loop_mask: list[bool] | None = None
        self._waivers: list[tuple[int, str]] | None = None

    @property
    def code_lines(self) -> list[str]:
        if self._code_lines is None:
            self._code_lines = strip_comments_and_strings(self.raw)
        return self._code_lines

    @property
    def code_joined(self) -> str:
        if self._code_joined is None:
            self._code_joined = "\n".join(self.code_lines)
        return self._code_joined

    @property
    def loop_mask(self) -> list[bool]:
        if self._loop_mask is None:
            self._loop_mask = loop_line_mask(self.code_lines)
        return self._loop_mask

    @property
    def waivers(self) -> list[tuple[int, str]]:
        """(0-based line index, rule) for every waiver comment."""
        if self._waivers is None:
            self._waivers = []
            for idx, line in enumerate(self.raw_lines):
                for m in RE_WAIVER.finditer(line):
                    self._waivers.append(
                        (idx, m.group("rule") or m.group("rule2")))
        return self._waivers


class FileLint:
    """Finding collection + waiver bookkeeping for one file.

    report() drops a finding when a waiver covers it (same line or the
    line above) and records which waiver fired, so the stale-waiver pass
    can flag the ones that never did."""

    def __init__(self, sf: SourceFile):
        self.sf = sf
        self.findings: list[Finding] = []
        self._waiver_sites = {(idx, rule) for idx, rule in sf.waivers}
        self.used_waivers: set[tuple[int, str]] = set()

    def _waiver_for(self, lineno: int, rule: str) -> int | None:
        for idx in (lineno - 1, lineno - 2):  # trailing, or line above
            if (idx, rule) in self._waiver_sites:
                return idx
        return None

    def report(self, lineno: int, rule: str, message: str,
               alt_sites: tuple[int, ...] = ()) -> None:
        for site in (lineno, *alt_sites):
            idx = self._waiver_for(site, rule)
            if idx is not None:
                self.used_waivers.add((idx, rule))
                return
        self.findings.append(
            Finding(self.sf.path, self.sf.rel, lineno, rule, message))


RE_RAND = re.compile(r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b")
RE_TIME_SEED = re.compile(
    r"\b(mt19937(_64)?|default_random_engine|minstd_rand0?|SplitMix64|Rng)\b"
    r"(\s+\w+)?\s*[({].*\b(time\s*\(|clock\s*\(|system_clock|steady_clock|"
    r"high_resolution_clock)"
)
RE_NEW = re.compile(r"(?<!\w)new\s+(?!\()[A-Za-z_:<]")
RE_PLACEMENT_NEW = re.compile(r"(?<!\w)new\s*\(")
RE_DELETE = re.compile(r"(?<!\w)delete(\s*\[\s*\])?\s+[A-Za-z_*]")
RE_FLOAT = re.compile(r"(?<![\w.])float(?![\w.])")
RE_TODO = re.compile(r"\b(TODO|FIXME)\b")
RE_TODO_TAGGED = re.compile(r"\b(TODO|FIXME)\s*\(#\d+\)")
RE_UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(map|set|multimap|multiset)\s*<[^;]*>\s*\n?\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*[;={]"
)
RE_RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*(?P<expr>[^)]+)\)")
RE_DENSE_DECL = re.compile(
    r"\b(?:const\s+)?Matrix\s*&?\s+(?P<name>[A-Za-z_]\w*)\s*(?:[;=({,)]|$)"
)
RE_PTR_KEYED = re.compile(
    r"\bstd::(map|set|multimap|multiset)\s*<[^,<>]*\*\s*[,>]")
RE_RAW_SYNC = re.compile(
    r"\bstd::(recursive_timed_mutex|recursive_mutex|shared_timed_mutex|"
    r"shared_mutex|timed_mutex|mutex|condition_variable_any|"
    r"condition_variable|lock_guard|unique_lock|scoped_lock)\b")
RE_DETACH = re.compile(r"\.\s*detach\s*\(\s*\)")

MSG_RNG_RAND = ("std::rand/srand/random_device: use common/rng so runs "
                "are reproducible from --seed")
MSG_RNG_TIME = ("time-seeded RNG: seed from the scenario/config seed, "
                "never from the clock")
MSG_PTR_KEYED = ("ordered container keyed on a pointer: iteration order is "
                 "address order (allocator-dependent); key on a stable id")
MSG_RAW_SYNC = ("raw std synchronization primitive: use mecsched::Mutex/"
                "MutexLock/CondVar (common/thread_annotations.h) so Clang's "
                "thread-safety analysis sees the lock")
MSG_DETACH = ("detached thread: detached threads race process teardown; "
              "own and join every thread (see exec/thread_pool.h)")


def unordered_iteration_msg(base: str) -> str:
    return (f"iteration over unordered container '{base}': bucket order is "
            "layout-dependent; sort keys first or use std::map")


def regex_determinism_rules(fl: FileLint) -> None:
    """Regex approximations of the AST-checked rules (fallback mode)."""
    sf = fl.sf
    rng_home = RNG_HOME.search(sf.rel) is not None
    tsa_home = sf.rel == TSA_HOME

    unordered_names = set()
    for m in RE_UNORDERED_DECL.finditer(sf.code_joined):
        unordered_names.add(m.group("name"))

    for idx, line in enumerate(sf.code_lines, start=1):
        if not rng_home:
            if RE_RAND.search(line):
                fl.report(idx, "rng-outside-common", MSG_RNG_RAND)
            if RE_TIME_SEED.search(line):
                fl.report(idx, "rng-outside-common", MSG_RNG_TIME)
        if RE_PTR_KEYED.search(line):
            fl.report(idx, "pointer-keyed-container", MSG_PTR_KEYED)
        if not tsa_home and RE_RAW_SYNC.search(line):
            fl.report(idx, "unannotated-mutex", MSG_RAW_SYNC)
        if RE_DETACH.search(line):
            fl.report(idx, "detached-thread", MSG_DETACH)
        for fm in RE_RANGE_FOR.finditer(line):
            expr = fm.group("expr").strip()
            base = re.split(r"[.\->\[(]", expr, maxsplit=1)[0].strip().lstrip("*&")
            if base in unordered_names:
                fl.report(idx, "unordered-iteration",
                          unordered_iteration_msg(base))


def regex_core_rules(fl: FileLint) -> None:
    """The rules that are regex-implemented in every mode."""
    sf = fl.sf
    in_model = any(sf.rel.startswith(d + "/") or sf.rel == d
                   for d in MODEL_DIRS)

    for idx, line in enumerate(sf.code_lines, start=1):
        if RE_NEW.search(line) and not RE_PLACEMENT_NEW.search(line):
            fl.report(idx, "naked-new",
                      "naked new: use std::make_unique/make_shared or a "
                      "container")
        if RE_DELETE.search(line):
            fl.report(idx, "naked-new",
                      "naked delete: ownership belongs to smart pointers")
        if in_model and RE_FLOAT.search(line):
            fl.report(idx, "float-in-model",
                      "float in model/solver code: the numeric story is "
                      "double-only (LP pivots and certificates assume it)")

    # Dense element-wise scans on the solver hot path (hot files only).
    if sf.rel in HOT_KERNEL_FILES:
        dense_decl: dict[str, int] = {}
        for idx, line in enumerate(sf.code_lines, start=1):
            for dm in RE_DENSE_DECL.finditer(line):
                dense_decl.setdefault(dm.group("name"), idx)
        if dense_decl:
            access = re.compile(
                r"\b(?P<name>" + "|".join(map(re.escape, sorted(dense_decl)))
                + r")\s*\(")
            mask = sf.loop_mask
            for idx, line in enumerate(sf.code_lines, start=1):
                if not mask[idx - 1]:
                    continue
                for am in access.finditer(line):
                    name = am.group("name")
                    decl = dense_decl[name]
                    if decl == idx:
                        continue  # the declaration's own constructor call
                    if re.match(r"[^()]*\)\s*=(?!=)", line[am.end():]):
                        continue  # plain write: assembly/setup, not a scan
                    # A waiver on the declaration covers every access.
                    fl.report(idx, "dense-scan-in-kernel",
                              f"element-wise read of dense Matrix '{name}' "
                              "in a loop on the solver hot path: walk the "
                              "CSR/CSC arrays (lp/sparse_matrix.h) or add a "
                              "deliberate waiver",
                              alt_sites=(decl,))

    # TODO tagging is checked on raw lines: TODOs live in comments. Waiver
    # lines are skipped wholesale — their reason text is not a TODO.
    for idx, line in enumerate(sf.raw_lines, start=1):
        if RE_TODO.search(line) and not RE_TODO_TAGGED.search(line):
            if not RE_WAIVER.search(line):
                fl.report(idx, "todo-tag",
                          "untagged TODO/FIXME: write TODO(#<issue>): so it "
                          "is trackable")


def stale_waiver_pass(fl: FileLint, ast_ran: bool) -> None:
    """Flags waivers that did not suppress anything this run.

    Waivers for determinism rules are only judged when the AST pass ran on
    the file: the regex approximations can miss findings the AST sees
    (e.g. iteration over a member declared in another file), and a waiver
    the active mode cannot match is not provably stale.
    """
    for idx, rule in fl.sf.waivers:
        if rule not in RULES or rule == "stale-waiver":
            fl.findings.append(Finding(
                fl.sf.path, fl.sf.rel, idx + 1, "stale-waiver",
                f"waiver names unknown rule '{rule}'"))
            continue
        if (idx, rule) in fl.used_waivers:
            continue
        if rule in DETERMINISM_RULES and not ast_ran:
            continue
        fl.findings.append(Finding(
            fl.sf.path, fl.sf.rel, idx + 1, "stale-waiver",
            f"waiver for '{rule}' no longer suppresses anything; delete it"))


def lint_file(sf: SourceFile,
              ast_findings: list[tuple[int, str, str]] | None = None
              ) -> list[Finding]:
    """Lints one file. `ast_findings` (line, rule, message) replaces the
    regex determinism rules when the AST pass parsed the file."""
    fl = FileLint(sf)
    if ast_findings is not None:
        for lineno, rule, message in ast_findings:
            fl.report(lineno, rule, message)
    else:
        regex_determinism_rules(fl)
    regex_core_rules(fl)
    stale_waiver_pass(fl, ast_ran=ast_findings is not None)
    fl.findings.sort(key=lambda f: (f.line, f.rule))
    return fl.findings


# --- libclang (AST) pass ---------------------------------------------------

RE_AST_UNORDERED = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")
RE_AST_PTR_KEYED = re.compile(
    r"\bstd::(map|set|multimap|multiset)<[^,<>]*\*\s*[,>]")
RE_AST_RAW_SYNC = RE_RAW_SYNC
RE_AST_RNG_TYPE = re.compile(
    r"\b(mt19937(_64)?|default_random_engine|minstd_rand0?|ranlux\w+|"
    r"knuth_b|SplitMix64)\b")
CLOCK_SPELLINGS = {"now", "time", "clock"}


class AstPass:
    """Determinism rules on real types, via clang.cindex.

    Construction raises when the bindings or the native libclang are
    unavailable — callers fall back to the regex approximations. Per-file
    parse failures (no compile command, hard errors) degrade the same way:
    findings_for() returns None and the caller reruns the regex rules.
    """

    def __init__(self, compdb_dir: Path | None):
        from clang import cindex  # ImportError -> no AST mode

        self.cindex = cindex
        self.index = cindex.Index.create()  # LibclangError -> no AST mode
        self.db = None
        if compdb_dir is not None:
            self.db = cindex.CompilationDatabase.fromDirectory(
                str(compdb_dir))
        self.parsed = 0
        self.failed = 0

    def _args_for(self, path: Path) -> list[str] | None:
        cmds = self.db.getCompileCommands(str(path)) if self.db else None
        if not cmds:
            return None
        raw = list(cmds[0].arguments)
        args: list[str] = []
        skip = False
        for a in raw[1:]:  # drop the compiler itself
            if skip:
                skip = False
                continue
            if a == "-c":
                continue
            if a == "-o":
                skip = True
                continue
            if a == str(path) or a == path.name:
                continue  # the source operand; parse() names it explicitly
            args.append(a)
        return args

    def findings_for(self, sf: SourceFile,
                     args: list[str] | None = None
                     ) -> list[tuple[int, str, str]] | None:
        try:
            if args is None:
                args = self._args_for(sf.path)
                if args is None:
                    return None
            tu = self.index.parse(str(sf.path), args=args)
            if any(d.severity >= self.cindex.Diagnostic.Error
                   for d in tu.diagnostics):
                return None  # types unreliable; regex fallback
            found = self._collect(tu, sf)
            self.parsed += 1
            return found
        except Exception:
            self.failed += 1
            return None

    def _collect(self, tu, sf: SourceFile) -> list[tuple[int, str, str]]:
        ck = self.cindex.CursorKind
        main_file = str(sf.path)
        rng_home = RNG_HOME.search(sf.rel) is not None
        tsa_home = sf.rel == TSA_HOME
        out: set[tuple[int, str, str]] = set()
        file_match_cache: dict[str, bool] = {}

        def in_main_file(node) -> bool:
            f = node.location.file
            if f is None:
                return False
            name = f.name
            hit = file_match_cache.get(name)
            if hit is None:
                try:
                    hit = (name == main_file or
                           Path(name).resolve() == sf.path.resolve())
                except OSError:
                    hit = False
                file_match_cache[name] = hit
            return hit

        def canonical(t) -> str:
            try:
                return t.get_canonical().spelling
            except Exception:
                return t.spelling

        def any_clock_call(node) -> bool:
            for d in node.walk_preorder():
                if d.kind in (ck.CALL_EXPR, ck.DECL_REF_EXPR) and \
                        d.spelling in CLOCK_SPELLINGS:
                    return True
            return False

        def subtree_has_unordered(node) -> bool:
            for d in node.walk_preorder():
                try:
                    if RE_AST_UNORDERED.search(canonical(d.type)):
                        return True
                except Exception:
                    continue
            return False

        def visit(node):
            if in_main_file(node):
                line = node.location.line
                kind = node.kind
                if kind in (ck.FIELD_DECL, ck.VAR_DECL):
                    ct = canonical(node.type)
                    if not tsa_home and RE_AST_RAW_SYNC.search(ct):
                        out.add((line, "unannotated-mutex", MSG_RAW_SYNC))
                    if RE_AST_PTR_KEYED.search(ct):
                        out.add((line, "pointer-keyed-container",
                                 MSG_PTR_KEYED))
                    if not rng_home and "random_device" in ct:
                        out.add((line, "rng-outside-common", MSG_RNG_RAND))
                    if not rng_home and \
                            RE_AST_RNG_TYPE.search(node.type.spelling) and \
                            any_clock_call(node):
                        out.add((line, "rng-outside-common", MSG_RNG_TIME))
                elif kind == ck.CXX_FOR_RANGE_STMT:
                    children = list(node.get_children())
                    # The body is syntactically last; the range expression
                    # (and the loop variable) come before it.
                    for ch in children[:-1]:
                        if subtree_has_unordered(ch):
                            out.add((line, "unordered-iteration",
                                     unordered_iteration_msg(
                                         ch.spelling or "<expr>")))
                            break
                elif kind == ck.DECL_REF_EXPR and \
                        node.spelling in ("rand", "srand") and not rng_home:
                    ref = node.referenced
                    if ref is not None and ref.kind == ck.FUNCTION_DECL:
                        out.add((line, "rng-outside-common", MSG_RNG_RAND))
                elif kind == ck.CALL_EXPR and node.spelling == "detach":
                    try:
                        parent = node.referenced.semantic_parent.spelling
                    except Exception:
                        parent = ""
                    if parent in ("thread", "jthread"):
                        out.add((line, "detached-thread", MSG_DETACH))
            for ch in node.get_children():
                visit(ch)

        visit(tu.cursor)
        return sorted(out)


def make_ast_pass(compdb: Path | None, quiet: bool = False):
    """AstPass or None; never raises. compdb may be the directory holding
    compile_commands.json or the file itself."""
    compdb_dir = None
    if compdb is not None:
        compdb_dir = compdb.parent if compdb.is_file() else compdb
        if not (compdb_dir / "compile_commands.json").is_file():
            if not quiet:
                print(f"mecsched_lint: no compile_commands.json under "
                      f"{compdb_dir}; using regex rules",
                      file=sys.stderr)
            return None
    try:
        return AstPass(compdb_dir)
    except Exception as e:
        if not quiet:
            print(f"mecsched_lint: libclang unavailable ({e.__class__.__name__}); "
                  "using regex rules", file=sys.stderr)
        return None


def iter_sources(root: Path, paths: list[str]) -> list[tuple[Path, str]]:
    targets = paths if paths else ["src", "bench"]
    files: list[tuple[Path, str]] = []
    for t in targets:
        p = (root / t) if not Path(t).is_absolute() else Path(t)
        if p.is_file():
            files.append((p, str(p.relative_to(root)) if p.is_relative_to(root) else str(p)))
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix in CXX_SUFFIXES and f.is_file():
                    files.append((f, str(f.relative_to(root))))
        else:
            print(f"mecsched_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


# --- self test -------------------------------------------------------------

SELF_TEST_CASES = [
    # (rule expected to fire, relative path to pretend, snippet)
    ("rng-outside-common", "src/assign/x.cpp",
     "int r = std::rand();\n"),
    ("rng-outside-common", "src/exec/x.cpp",
     "std::mt19937 gen(std::chrono::steady_clock::now().time_since_epoch()"
     ".count());\n"),
    ("unordered-iteration", "src/cli/x.cpp",
     "std::unordered_map<int, double> table;\n"
     "for (const auto& kv : table) csv << kv.first;\n"),
    ("pointer-keyed-container", "src/mec/x.cpp",
     "std::map<const Station*, double> load;\n"),
    ("pointer-keyed-container", "src/serve/x.cpp",
     "std::set<Event*> pending;\n"),
    ("unannotated-mutex", "src/serve/x.cpp",
     "mutable std::mutex mu_;\n"),
    ("unannotated-mutex", "src/exec/x.cpp",
     "const std::lock_guard<std::mutex> lock(mu_);\n"),
    ("detached-thread", "src/exec/x.cpp",
     "worker.detach();\n"),
    ("naked-new", "src/obs/x.cpp",
     "auto* p = new Widget();\n"),
    ("naked-new", "src/obs/x.cpp",
     "delete ptr;\n"),
    ("float-in-model", "src/lp/x.cpp",
     "float tolerance = 0.1f;\n"),
    ("todo-tag", "src/mec/x.cpp",
     "// TODO: make this faster\n"),
    ("dense-scan-in-kernel", "src/lp/simplex.cpp",
     "Matrix a_;\n"
     "void f() {\n"
     "  for (std::size_t r = 0; r < m; ++r) dj -= y[r] * a_(r, j);\n"
     "}\n"),
    ("dense-scan-in-kernel", "src/lp/interior_point.cpp",
     "Matrix mmat(m, m);\n"
     "while (running) {\n"
     "  acc += mmat(i, j) * d[j];\n"
     "}\n"),
    # A waiver whose rule never fires is itself a finding.
    ("stale-waiver", "src/obs/x.cpp",
     "// lint:allow-naked-new -- the new went away in a refactor.\n"
     "auto p = std::make_unique<Widget>();\n"),
    ("stale-waiver", "src/obs/x.cpp",
     "// lint:allow-no-such-rule -- typo in the rule name.\n"),
    ("stale-waiver", "src/lp/x.cpp",
     "// mecsched-lint: waive(float-in-model) -- no float left here.\n"
     "double x = 0.0;\n"),
]

SELF_TEST_CLEAN = [
    ("src/assign/x.cpp", "double r = rng.uniform();\n"),
    ("src/common/rng.cpp", "std::random_device seed_source;\n"),
    ("src/cli/x.cpp",
     "std::unordered_map<int, double> table;\n"
     "// lint:allow-unordered-iteration -- keys sorted below.\n"
     "for (const auto& kv : table) keys.push_back(kv.first);\n"),
    # The waive(...) spelling works too.
    ("src/obs/x.cpp",
     "// mecsched-lint: waive(naked-new) -- intentionally leaked singleton.\n"
     "static Registry* g = new Registry();\n"),
    ("src/obs/x.cpp", "auto p = std::make_unique<Widget>();\n"),
    ("src/cli/x.cpp", "float ui_scale = 1.0f;\n"),  # float fine outside model
    ("src/mec/x.cpp", "// TODO(#42): make this faster\n"),
    ("src/lp/x.cpp", "// a comment mentioning float and new is fine\n"),
    ("src/lp/x.cpp", 'log("string with float and new words");\n'),
    # The annotated vocabulary is what the rule wants to see.
    ("src/exec/x.cpp",
     "mutable Mutex mu_;\n"
     "const MutexLock lock(mu_);\n"),
    # The vocabulary header itself is the one sanctioned std::mutex home.
    ("src/common/thread_annotations.h",
     "std::mutex mu_;\n"
     "std::condition_variable cv_;\n"),
    # Pointer VALUES are fine; only pointer KEYS are address-ordered.
    ("src/mec/x.cpp", "std::map<std::uint64_t, Station*> by_id;\n"),
    # A determinism-rule waiver is not judged stale in regex mode: the
    # container may be declared in another file, where only the AST pass
    # can see it (e.g. a class whose members live in its header).
    ("src/exec/x.cpp",
     "// lint:allow-unordered-iteration -- keys sorted; member declared in "
     "the header.\n"
     "for (const auto& kv : index_) keys.push_back(kv.first);\n"),
    # dense-scan-in-kernel: per-line waiver on an intentional dense fallback.
    ("src/lp/simplex.cpp",
     "Matrix a_;\n"
     "void f() {\n"
     "  for (std::size_t r = 0; r < m; ++r) {\n"
     "    // lint:allow-dense-scan-in-kernel -- dense fallback path.\n"
     "    dj -= y[r] * a_(r, j);\n"
     "  }\n"
     "}\n"),
    # dense-scan-in-kernel: declaration-site waiver covers all accesses.
    ("src/lp/simplex.cpp",
     "// lint:allow-dense-scan-in-kernel -- Gauss-Jordan work matrix.\n"
     "Matrix bmat(m, m);\n"
     "for (std::size_t c = 0; c < m; ++c) piv += bmat(r, c);\n"),
    # dense-scan-in-kernel: writes are assembly, not scans.
    ("src/lp/simplex.cpp",
     "Matrix a_;\n"
     "for (std::size_t r = 0; r < m; ++r) a_(r, slack) = 1.0;\n"),
    # dense-scan-in-kernel: reads outside loops are spot reads.
    ("src/lp/simplex.cpp",
     "Matrix a_;\n"
     "double v = a_(0, 1);\n"),
    # dense-scan-in-kernel: only the hot kernel files are watched.
    ("src/lp/cholesky.cpp",
     "Matrix m_;\n"
     "for (std::size_t r = 0; r < n; ++r) x += m_(r, r);\n"),
]

# (rule-or-None, snippet) — parsed standalone by the AST pass when libclang
# is importable. None means the snippet must come back clean.
AST_SELF_TEST_CASES = [
    ("unordered-iteration",
     "#include <unordered_map>\n"
     "struct S {\n"
     "  std::unordered_map<int, int> m;\n"
     "  int sum() { int s = 0; for (auto& kv : m) s += kv.second; "
     "return s; }\n"
     "};\n"),
    ("pointer-keyed-container",
     "#include <map>\n"
     "struct Node {};\n"
     "std::map<Node*, int> g_order;\n"),
    ("unannotated-mutex",
     "#include <mutex>\n"
     "struct S { std::mutex mu; };\n"),
    ("detached-thread",
     "#include <thread>\n"
     "void f() { std::thread t([] {}); t.detach(); }\n"),
    ("rng-outside-common",
     "#include <cstdlib>\n"
     "int f() { return std::rand(); }\n"),
    ("rng-outside-common",
     "#include <chrono>\n"
     "#include <random>\n"
     "void f() {\n"
     "  std::mt19937 gen(static_cast<unsigned>(\n"
     "      std::chrono::steady_clock::now().time_since_epoch().count()));\n"
     "  (void)gen;\n"
     "}\n"),
    (None,  # sorted map: iteration order is well-defined
     "#include <map>\n"
     "int f() {\n"
     "  std::map<int, int> m;\n"
     "  int s = 0;\n"
     "  for (auto& kv : m) s += kv.second;\n"
     "  return s;\n"
     "}\n"),
    (None,  # seeded RNG: no clock in sight
     "#include <random>\n"
     "int f(unsigned seed) { std::mt19937 g(seed); return (int)g(); }\n"),
]


def self_test() -> int:
    import tempfile

    t0 = time.monotonic()
    failures = 0
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)

        def run(rel: str, snippet: str) -> list[Finding]:
            f = root / rel
            f.parent.mkdir(parents=True, exist_ok=True)
            f.write_text(snippet)
            return lint_file(SourceFile(f, rel))

        for rule, rel, snippet in SELF_TEST_CASES:
            found = run(rel, snippet)
            if not any(x.rule == rule for x in found):
                print(f"SELF-TEST FAIL: expected [{rule}] to fire on:\n"
                      f"{snippet}", file=sys.stderr)
                failures += 1
        for rel, snippet in SELF_TEST_CLEAN:
            found = run(rel, snippet)
            if found:
                print(f"SELF-TEST FAIL: expected clean, got "
                      f"{[str(x) for x in found]} on:\n{snippet}",
                      file=sys.stderr)
                failures += 1

        # GitHub annotation format.
        gh = Finding(root / "src/lp/x.cpp", "src/lp/x.cpp", 7, "naked-new",
                     "naked new: nope").github()
        want = ("::error file=src/lp/x.cpp,line=7,"
                "title=mecsched-lint [naked-new]::naked new: nope")
        if gh != want:
            print(f"SELF-TEST FAIL: github format\n  got  {gh}\n"
                  f"  want {want}", file=sys.stderr)
            failures += 1

        # AST pass, when the bindings are importable. Each fixture is
        # parsed standalone (no compilation database needed).
        ast = make_ast_pass(None, quiet=True)
        ast_mode = "unavailable (regex fallback exercised above)"
        if ast is not None:
            ast_mode = "exercised"
            ast_dir = root / "ast"
            ast_dir.mkdir()
            for i, (rule, snippet) in enumerate(AST_SELF_TEST_CASES):
                rel = f"src/ast/fixture_{i}.cpp"
                f = ast_dir / f"fixture_{i}.cpp"
                f.write_text(snippet)
                sf = SourceFile(f, rel)
                got = ast.findings_for(sf, args=["-x", "c++", "-std=c++20"])
                if got is None:
                    print(f"SELF-TEST FAIL: AST parse failed on:\n{snippet}",
                          file=sys.stderr)
                    failures += 1
                    continue
                rules_hit = {r for _, r, _ in got}
                if rule is None and rules_hit:
                    print(f"SELF-TEST FAIL: AST expected clean, got "
                          f"{sorted(rules_hit)} on:\n{snippet}",
                          file=sys.stderr)
                    failures += 1
                elif rule is not None and rule not in rules_hit:
                    print(f"SELF-TEST FAIL: AST expected [{rule}], got "
                          f"{sorted(rules_hit)} on:\n{snippet}",
                          file=sys.stderr)
                    failures += 1

            # In AST mode an unmatched determinism-rule waiver IS stale.
            stale = ast_dir / "stale.cpp"
            rel = "src/ast/stale.cpp"
            stale.write_text(
                "// lint:allow-unordered-iteration -- nothing here.\n"
                "int x = 0;\n")
            sf = SourceFile(stale, rel)
            got = ast.findings_for(sf, args=["-x", "c++", "-std=c++20"])
            found = lint_file(sf, ast_findings=got)
            if not any(x.rule == "stale-waiver" for x in found):
                print("SELF-TEST FAIL: expected stale-waiver for an "
                      "unmatched determinism waiver in AST mode",
                      file=sys.stderr)
                failures += 1

    elapsed = time.monotonic() - t0
    if failures:
        print(f"mecsched_lint self-test: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print(f"mecsched_lint self-test: all rules fire and all waivers hold "
          f"(AST pass {ast_mode}; {elapsed:.2f}s)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--compdb", default=None, metavar="DIR",
                    help="directory holding compile_commands.json; enables "
                         "the libclang pass for files it covers")
    ap.add_argument("--github", action="store_true",
                    help="emit GitHub Actions ::error annotations instead "
                         "of the plain format")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded rule fixtures and exit")
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src/ bench/)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    t0 = time.monotonic()
    root = Path(args.root).resolve()
    ast = None
    if args.compdb is not None:
        compdb = Path(args.compdb)
        if not compdb.is_absolute():
            compdb = root / compdb
        ast = make_ast_pass(compdb)

    findings: list[Finding] = []
    files = iter_sources(root, args.paths)
    ast_files = 0
    for path, rel in files:
        sf = SourceFile(path, rel)
        ast_findings = ast.findings_for(sf) if ast is not None else None
        if ast_findings is not None:
            ast_files += 1
        findings.extend(lint_file(sf, ast_findings))

    for f in findings:
        print(f.github() if args.github else f)
    elapsed = time.monotonic() - t0
    mode = (f"{ast_files} AST / {len(files) - ast_files} regex"
            if ast is not None else "regex")
    if findings:
        print(f"mecsched_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s) ({mode}; {elapsed:.2f}s)",
              file=sys.stderr)
        return 1
    print(f"mecsched_lint: clean ({len(files)} files; {mode}; "
          f"{elapsed:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
