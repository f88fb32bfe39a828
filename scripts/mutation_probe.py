#!/usr/bin/env python3
"""Mutation probe: do the Tier-1 tests notice a one-token change in a module?

Usage: python scripts/mutation_probe.py MODULE [MODULE ...]
       python scripts/mutation_probe.py --changed REV

MODULE names a file ``src/orbitcert/<MODULE>.py``.  Each mutant makes one
edit to that file: it swaps one comparison operator (< <= > >= == !=) or one
arithmetic operator (+ - * // %), or adds 1 to one integer constant.  Per
module the probe lists every such edit in source order and draws ``SAMPLE``
of them with a ``random.Random`` seeded by ``SEED`` and the module name, so
the same source gives the same mutants on every run.  With ``--changed REV``
it takes instead every mutant on the lines of ``src/orbitcert`` that
``git diff -U0 REV`` marks as added or changed in the working tree, module
by module; a module only deleted from has none.

The checkout holding this script is copied once to a temporary directory;
the working tree is never written.  The unmutated suite must pass there
first, and per module so must the test files that import it
(``importing_tests``).  Then each mutant is written into the copy, the
module's test files run on it with ``-x`` (``TIER1``), and only when they
pass does the whole Tier-1 suite run, with ``PYTHONPATH`` at the copy's
``src``; then the module is restored.  So a survivor's verdict is the full
suite's, and most killed mutants cost one short run.  A mutant is killed
when a run fails (the first failing test is reported), or exceeds
``TIMEOUT_FACTOR`` times the same tests' unmutated time or ``MEMORY_LIMIT``;
it survives when the suite passes.  One line per mutant gives the file,
line, edit and outcome; a line per module gives its test files and their
unmutated time, and a summary line the counts.  The exit code is 0 whether
or not mutants survive.
"""
from __future__ import annotations

import ast
import os
import random
import resource
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "orbitcert"
SEED = 23
SAMPLE = 20  # mutants per module
TIMEOUT_FACTOR = 4  # a mutant may take this many times the unmutated run
MEMORY_LIMIT = 2 << 30  # address space of one suite run, in bytes
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0"]
# the one edit each operator gets
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "//", "//": "*", "%": "//"}
OPERATOR_TOKENS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
                   ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
                   ast.FloorDiv: "//", ast.Mod: "%"}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 "results")


@dataclass(frozen=True)
class Mutant:
    line: int
    col: int  # 0-based offset of the replaced text in its line
    old: str
    new: str

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        if text[self.col:self.col + len(self.old)] != self.old:
            raise ValueError(f"line {self.line} has no {self.old!r} at column {self.col}")
        lines[self.line - 1] = text[:self.col] + self.new + text[self.col + len(self.old):]
        return "".join(lines)

    def describe(self, source: str) -> str:
        text = source.splitlines()[self.line - 1].strip()
        return f"{self.old} -> {self.new} in `{text}`"


def mutants(source: str) -> list[Mutant]:
    """Every one-token mutant of a module, in source order."""
    lines = source.splitlines(keepends=True)
    offsets = [0]
    for text in lines:
        offsets.append(offsets[-1] + len(text))
    out: list[Mutant] = []

    def start(node):  # ast columns count UTF-8 bytes
        return node.lineno, len(lines[node.lineno - 1].encode()[:node.col_offset].decode())

    def end(node):
        return (node.end_lineno,
                len(lines[node.end_lineno - 1].encode()[:node.end_col_offset].decode()))

    def operator(op, left, right, suffix=""):
        """The mutant swapping ``op``, the one token between two operands
        apart from parentheses, blanks, line breaks and comments; the
        augmented assignments carry the suffix "="."""
        sym = OPERATOR_TOKENS[type(op)]
        tok = sym + suffix
        (line, col), (right_line, right_col) = end(left), start(right)
        between = source[offsets[line - 1] + col:offsets[right_line - 1] + right_col]
        between = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), between)
        if re.sub(r"[\s()\\]", "", between) != tok:
            raise ValueError(f"line {line}: {between!r} is not the operator {tok!r}")
        at = offsets[line - 1] + col + between.index(tok)
        line = next(k for k in range(line, right_line + 1) if offsets[k] > at)
        out.append(Mutant(line, at - offsets[line - 1], tok, SWAPS[sym] + suffix))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in OPERATOR_TOKENS:
            operator(node.op, node.left, node.right)
        elif isinstance(node, ast.AugAssign) and type(node.op) in OPERATOR_TOKENS:
            operator(node.op, node.target, node.value, "=")
        elif isinstance(node, ast.Compare):
            for op, left, right in zip(node.ops, [node.left] + node.comparators,
                                       node.comparators):
                if type(op) in OPERATOR_TOKENS:
                    operator(op, left, right)
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.lineno == node.end_lineno):
            line, col = start(node)
            old = lines[line - 1][col:end(node)[1]]
            out.append(Mutant(line, col, old, str(node.value + 1)))
    return sorted(out, key=lambda m: (m.line, m.col))


def sample(module: str, source: str) -> list[Mutant]:
    """The probe's fixed draw of ``SAMPLE`` mutants for one module, in source order."""
    every = mutants(source)
    rng = random.Random(f"{SEED}-{module}")
    return sorted(rng.sample(every, min(SAMPLE, len(every))), key=lambda m: (m.line, m.col))


def changed_lines(diff: str) -> dict[str, set[int]]:
    """Per module of ``src/orbitcert``, the new-side line numbers of the
    hunks of a ``git diff -U0`` text."""
    lines: dict[str, set[int]] = {}
    name = None
    for text in diff.splitlines():
        if text.startswith("+++ "):
            path = Path(text[len("+++ b/"):])
            name = (path.stem if text.startswith("+++ b/") and path.parent == PACKAGE
                    and path.suffix == ".py" else None)
        elif text.startswith("@@ ") and name is not None:
            hunk = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@", text)
            start, count = int(hunk.group(1)), int(hunk.group(2) or 1)
            if count:  # a hunk that only deletes adds no line
                lines.setdefault(name, set()).update(range(start, start + count))
    return lines


def on_lines(source: str, lines: set[int]) -> list[Mutant]:
    """Every mutant of a module on the given lines, in source order."""
    return [m for m in mutants(source) if m.line in lines]


def git_diff(rev: str) -> str:
    """``git diff -U0 REV`` of ``src/orbitcert`` in the checkout."""
    return subprocess.run(["git", "diff", "-U0", "--no-color", "--no-ext-diff", rev, "--",
                           str(PACKAGE)], cwd=CHECKOUT, capture_output=True, text=True,
                          check=True).stdout


def _limit_memory() -> None:
    """Cap the suite's address space, so a mutant that allocates without
    end fails with MemoryError instead of exhausting the host."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def importing_tests(checkout: Path, module: str) -> list[str]:
    """The ``tests/test_*.py`` files of the checkout that import
    ``orbitcert.<module>`` (any import of the package, for ``__init__``),
    relative to the checkout, in name order."""
    target = "orbitcert" if module == "__init__" else f"orbitcert.{module}"
    out = []
    for path in sorted((checkout / "tests").glob("test_*.py")):
        names = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names += [f"{node.module}.{alias.name}" for alias in node.names]
        if any(name == target or name.startswith(target + ".") for name in names):
            out.append(path.relative_to(checkout).as_posix())
    return out


def run_suite(copy: Path, timeout: float | None = None,
              tests: list[str] | None = None) -> tuple[str, str, float]:
    """(outcome, first failing test, seconds) of one ``-x`` Tier-1 run in the
    copy, over the given test files or else the whole suite."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no examples carried over
    path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        proc = subprocess.run(TIER1 + (tests or []), cwd=copy, capture_output=True, text=True,
                              timeout=timeout, env={**os.environ, "PYTHONPATH": path},
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "killed", "(timeout)", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", "", seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"(exit {proc.returncode})", seconds


def probe(names: list[str], run=run_suite, select=sample,
          header: str = f"seed {SEED}, {SAMPLE} mutants per module") -> int:
    """Run ``run`` (``run_suite``) on a copy of the checkout, unmutated and
    then on each mutant that ``select(module, source)`` (``sample``) picks
    in each module: first over the module's ``importing_tests``, then, if
    those pass, over the whole suite.  Print the report under ``header``;
    1 if the unmutated suite or a module's unmutated tests fail, else 0."""
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(CHECKOUT, copy, ignore=IGNORED)
        outcome, failed, base_s = run(copy)
        if outcome != "survived":
            print(f"the unmutated suite fails at {failed}", file=sys.stderr)
            return 1
        print(f"unmutated suite: {base_s:.1f} s; {header}", flush=True)
        for name in names:
            rel = PACKAGE / f"{name}.py"
            source = (copy / rel).read_text()
            chosen = select(name, source)
            tests = importing_tests(copy, name)
            if chosen and tests:
                outcome, failed, tests_s = run(copy, tests=tests)
                if outcome != "survived":
                    print(f"the unmutated tests of {name} fail at {failed}", file=sys.stderr)
                    return 1
                print(f"{name}: {len(tests)} test files import it, {tests_s:.1f} s unmutated",
                      flush=True)
            killed = 0
            for m in chosen:
                (copy / rel).write_text(m.apply(source))
                try:
                    outcome, failed, seconds = "survived", "", 0.0
                    if tests:
                        outcome, failed, seconds = run(copy, TIMEOUT_FACTOR * tests_s, tests)
                    if outcome == "survived":
                        outcome, failed, more = run(copy, TIMEOUT_FACTOR * base_s)
                        seconds += more
                finally:
                    (copy / rel).write_text(source)
                killed += outcome == "killed"
                print(f"{rel}:{m.line}:{m.col + 1}  {m.describe(source)}  {outcome} "
                      f"({seconds:.1f} s)" + (f"  {failed}" if failed else ""), flush=True)
            print(f"{name}: {killed} killed, {len(chosen) - killed} survived "
                  f"of {len(chosen)}", flush=True)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--changed":
        try:
            lines = changed_lines(git_diff(argv[1]))
        except subprocess.CalledProcessError as err:
            print(err.stderr.strip(), file=sys.stderr)
            return 2
        return probe(sorted(lines), select=lambda name, source: on_lines(source, lines[name]),
                     header=f"every mutant on the lines changed since {argv[1]}")
    if not argv or any(not (CHECKOUT / PACKAGE / f"{name}.py").is_file() for name in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return probe(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
