"""Single-token mutation sampler for ranklab functions.

Lists every single-token mutant of the named functions, draws a seeded
sample of them, and runs pytest with ``-x`` on each mutant in a scratch
copy of the tree.  A mutant no test fails on is a survivor: it needs a
test, or an argument that it is equivalent (it cannot change an answer).

Mutations, each at one token of the function's own source text:
- a comparison flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``;
- a binary operator swapped: ``+`` and ``-``, ``^`` and ``|``, ``&`` to
  ``|``, ``<<`` and ``>>``, ``*`` and ``//``;
- an int constant raised by one.

The mutant is written over the module's text in place, with no
reformatting, because the source rules in ``tests/`` read that text.
The real tree is never written: the copy lives in a temporary directory
removed at exit.  Stdlib only.  Usage, from the repository root::

    python tools/mutants.py listdec:max_list_size harness:run_ensemble \\
        listdec:_CosetKeys.summed [--sample N] [--seed S] [--timeout T] \\
        [--tests PATH ...]

``--tests`` lists pytest paths, each run in its own pytest process in
turn until one fails (default ``tests``).  Pytest collects a directory
in its own order, whatever paths come with it, so giving the test files
nearest the mutated code before ``tests`` kills most mutants in seconds;
a survivor runs those files twice.  A run that passes ``--timeout``
seconds counts as a timeout.  Prints one line per mutant and a summary;
exits 0.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "ranklab"

SWAPS = {
    ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==",
    ast.Add: "-", ast.Sub: "+", ast.BitXor: "|", ast.BitOr: "^", ast.BitAnd: "|",
    ast.LShift: ">>", ast.RShift: "<<", ast.Mult: "//", ast.FloorDiv: "*",
}


def find_function(tree: ast.Module, qualname: str):
    """The function node named ``qualname`` (``f`` or ``Class.f``)."""
    scope = tree
    for name in qualname.split("."):
        found = [
            node for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        ]
        if not found:
            raise SystemExit(f"no function {qualname}")
        scope = found[0]
    return scope


def operator_after(tokens, end):
    """The first operator token at or after source position ``end``,
    skipping the closing brackets of the left operand."""
    for tok in tokens:
        if tok.start >= end and tok.type == tokenize.OP and tok.string not in ")]}":
            return tok
    raise ValueError(f"no operator after {end}")


def mutants_of(source: str, qualname: str):
    """Each mutant of the function: (line, column, old token, new token)."""
    func = find_function(ast.parse(source), qualname)
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for left, op in zip([node.left, *node.comparators], node.ops):
                if type(op) in SWAPS:
                    tok = operator_after(tokens, (left.end_lineno, left.end_col_offset))
                    out.append((*tok.start, tok.string, SWAPS[type(op)]))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            left = node.left if isinstance(node, ast.BinOp) else node.target
            tok = operator_after(tokens, (left.end_lineno, left.end_col_offset))
            new = SWAPS[type(node.op)] + ("=" if isinstance(node, ast.AugAssign) else "")
            out.append((*tok.start, tok.string, new))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            text = ast.get_source_segment(source, node)
            out.append((node.lineno, node.col_offset, text, str(node.value + 1)))
    return sorted(set(out))


def apply(source: str, mutant) -> str:
    line, col, old, new = mutant
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    if text[col : col + len(old)] != old:
        raise ValueError(f"token {old!r} not at {line}:{col}")
    lines[line - 1] = text[:col] + new + text[col + len(old) :]
    return "".join(lines)


def run_tests(tree: Path, tests, timeout: float) -> str:
    """'killed', 'survived' or 'timeout' for the tree as it stands."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for path in tests:
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", path]
        try:
            proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout"
        if proc.returncode != 0:
            return "killed"
    return "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="module:qualname, e.g. listdec:_CosetKeys.summed")
    parser.add_argument("--sample", type=int, default=0, help="mutants drawn per target (default 0: all)")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--tests", nargs="+", default=["tests"])
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    plan = []
    for target in args.targets:
        module, _, qualname = target.partition(":")
        path = PACKAGE / f"{module}.py"
        mutants = mutants_of((ROOT / path).read_text(encoding="utf-8"), qualname)
        if args.sample and args.sample < len(mutants):
            mutants = sorted(rng.sample(mutants, args.sample))
        plan += [(target, path, mutant) for mutant in mutants]
    counts = {}
    with tempfile.TemporaryDirectory(prefix="ranklab-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".*cache"))
        if run_tests(tree, args.tests, args.timeout) != "survived":
            raise SystemExit("the unmutated tree fails its tests")
        for target, path, mutant in plan:
            original = (tree / path).read_text(encoding="utf-8")
            (tree / path).write_text(apply(original, mutant), encoding="utf-8")
            try:
                outcome = run_tests(tree, args.tests, args.timeout)
            finally:
                (tree / path).write_text(original, encoding="utf-8")
            counts[outcome] = counts.get(outcome, 0) + 1
            line, col, old, new = mutant
            print(f"{outcome:8} {target} {path}:{line}:{col} {old} -> {new}", flush=True)
    print(" ".join(f"{name}={count}" for name, count in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
