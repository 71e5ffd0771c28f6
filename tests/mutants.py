"""Mutation score of a seeded sample of one-operator mutants.

Each mutant changes one site of ``pmcode``, ``css``, ``matrix``, ``repair``,
``stabilizer``, ``gf`` or ``cli``. Docstrings are skipped, and so are
annotations, which ``from __future__ import annotations`` never evaluates:

- an arithmetic operator swapped (``+`` and ``-``, ``*`` and ``//``, ``%``
  to ``//``, ``**`` to ``*``, ``<<`` and ``>>``, ``&`` and ``|``, ``^`` to
  ``|``), in an expression or an augmented assignment;
- a comparison swapped (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- an int constant plus 1.

The script first checks that the unmutated ``ast.unparse`` of those modules
passes tier-1, so that every kill is the mutant's. Then, for each sampled
mutant, it copies ``src``, ``tests``, ``bench`` and the top-level files the
tests read into a temporary directory, writes the mutated module there and
runs tier-1 with ``-x``, a timeout and a 4 GiB address-space cap. It prints
one line per mutant and a summary, and writes nothing in the repository. A
mutant is killed when the suite fails, and a timeout counts as a kill.
Survivors are not an error: the exit code is 0 unless the script itself
fails.

    python tests/mutants.py --seed 23 --count 60 --timeout 300

Known-equivalent mutants, which survive by design, each with its reason:

- ``cli._DECIMAL_CAP`` (``1 << 12``) plus 1 on either constant, or a
  ``<=`` against it made ``<``: the cap only decides which ints are written
  through a table of decimal strings and which by ``str``, both of which
  write the same bytes, and 2^12 is no prime, so no field has p equal to it.
- ``stabilizer.prepare_codespace``'s ``p > STATE_LIMIT`` -> ``>=``: the
  limit 2^20 is no prime, so no field has p equal to it.
- ``prepare_codespace``'s spread step ``c + t g`` -> ``c - t g``: t runs
  over all of GF(p), so the support holds the same codewords, row t then
  holding the codeword of -t, with the same amplitudes.
- ``prepare_codespace``'s ``+ 0j`` -> ``- 0j``: either casts the
  amplitudes to complex; only the sign of a zero imaginary part changes,
  and no product that is read depends on it.
- Any ``lru_cache`` ``maxsize`` plus 1, such as ``stabilizer._roots``'s: a
  cache that keeps one entry more returns the same values.
- ``gf._MR_BASES`` 11 -> 12 or 17 -> 18: a Miller-Rabin base never rejects
  a prime, and the other eleven bases still reject every composite a test
  can reach; the proven bound ``_MR_EXACT_BELOW`` is not checked by tests.
- ``gf.is_prime``'s squaring loop ``range(s - 1)`` -> ``range(s + 1)``:
  two more squarings past a^((n-1)/2) accepted no composite below 2 * 10^6.
- ``cli._parse_betas``'s ``set(text) <= set(...)`` -> ``<``: only a text
  that uses all 16 allowed characters tells a subset from a proper one.
- ``cli._check_size``'s early-out ``n * d > SWEEP_LIMIT`` -> ``n + d``: the
  exact count ``n * subfile_count(k, d)`` still refuses the same inputs,
  only later.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "qregen"
MODULES = ("pmcode", "css", "matrix", "repair", "stabilizer", "gf", "cli")
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
MEMORY = 4 << 30  # bytes of address space per mutant's suite
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider")

ARITHMETIC = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitOr,
}
COMPARISON = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def _nodes(tree: ast.Module) -> list[ast.AST]:
    """Every node of ``tree`` outside its docstrings and annotations, in
    ``ast.walk`` order, so that an index names the same node in every parse
    of one source."""
    skipped = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                skipped.append(node.body[0])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skipped.append(node.returns)
        skipped.append(getattr(node, "annotation", None))  # arguments, AnnAssign
    inside = {id(n) for top in skipped if top is not None for n in ast.walk(top)}
    return [node for node in ast.walk(tree) if id(node) not in inside]


def _slots(node: ast.AST) -> list[int]:
    """The mutable slots of one node: operator or constant 0, or the index
    of each comparison operator."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC:
        return [0]
    if isinstance(node, ast.Compare):
        return [i for i, op in enumerate(node.ops) if type(op) in COMPARISON]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [0]
    return []


def sites(sources: dict[str, str]) -> list[tuple[str, int, int]]:
    """Every (module, node index, slot) that one operator can mutate."""
    return [(module, i, slot)
            for module in MODULES
            for i, node in enumerate(_nodes(ast.parse(sources[module])))
            for slot in _slots(node)]


def _mutate(node: ast.AST, slot: int) -> None:
    if isinstance(node, ast.Compare):
        node.ops[slot] = COMPARISON[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = ARITHMETIC[type(node.op)]()


def mutant(source: str, index: int, slot: int) -> tuple[str, str]:
    """The unparsed mutant of ``source`` at one site, and a one-line label:
    the line number and the site's code before and after."""
    tree = ast.parse(source)
    node = _nodes(tree)[index]
    before = ast.unparse(node)
    _mutate(node, slot)
    after = ast.unparse(node)

    def short(text: str) -> str:
        text = " ".join(text.split())
        return text if len(text) <= 60 else text[:57] + "..."

    return ast.unparse(tree), f"{node.lineno}: {short(before)} -> {short(after)}"


def run_tier1(sources: dict[str, str], timeout: float) -> tuple[str, float]:
    """('killed', 'survived' or 'timeout', seconds) of tier-1 with ``-x``
    on a fresh temporary copy whose modules are ``sources``."""
    with tempfile.TemporaryDirectory(prefix="qregen-mutant-") as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            path = ROOT / name
            if path.is_dir():
                shutil.copytree(path, tmp / name, ignore=skip)
            else:
                shutil.copy2(path, tmp / name)
        for module, text in sources.items():
            (tmp / PACKAGE / f"{module}.py").write_text(text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        # its own session, so that a timeout also ends the CLI processes the
        # suite starts; its own address-space cap, so that a mutant that
        # lifts a size guard fails to allocate rather than fill the memory
        run = subprocess.Popen(
            [sys.executable, *TIER1, "tests"], cwd=tmp, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY)))
        try:
            code = run.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
            return "timeout", time.perf_counter() - start
        return ("survived" if code == 0 else "killed"), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=23, help="sample seed (default 23)")
    parser.add_argument("--count", type=int, default=60, help="mutants to run (default 60)")
    parser.add_argument("--timeout", type=float, default=300,
                        help="seconds of tier-1 per mutant (default 300)")
    args = parser.parse_args(argv)

    originals = {m: (ROOT / PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}
    unparsed = {m: ast.unparse(ast.parse(text)) for m, text in originals.items()}
    every = sites(originals)
    sample = random.Random(args.seed).sample(every, min(args.count, len(every)))
    print(f"{len(every)} sites in {', '.join(MODULES)}; seed {args.seed}, "
          f"{len(sample)} mutants", flush=True)

    outcome, seconds = run_tier1(unparsed, args.timeout)
    if outcome != "survived":
        print(f"error: tier-1 fails on the unmutated ast.unparse ({outcome})", file=sys.stderr)
        return 2
    print(f"tier-1 passes on the unmutated ast.unparse in {seconds:.1f} s", flush=True)

    survivors, kills = [], 0
    for module, index, slot in sample:
        text, label = mutant(originals[module], index, slot)
        outcome, seconds = run_tier1({**unparsed, module: text}, args.timeout)
        print(f"{outcome:8} {module}.py:{label}  ({seconds:.1f} s)", flush=True)
        if outcome == "survived":
            survivors.append(f"{module}.py:{label}")
        else:
            kills += 1
    print(f"score: {kills}/{len(sample)} killed, {len(survivors)} survived")
    for line in survivors:
        print(f"  survivor {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
