"""Command-line harness: encode, retrieve, repair, sweep, tradeoff, demo.

Every command reads flags, runs deterministically from --seed, and emits
line-buffered JSON or CSV; identical flags and seed produce byte-identical
output. Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from . import errors, tradeoff
from .pmcode import (
    SystemParams,
    encode_file,
    make_params,
    random_symbols,
    retrieve_file,
)
from .reference import replay
from .repair import MODES, run_repair, run_repair_extended, plan_subfiles
from .rng import SplitMix64

SWEEP_LIMIT = 10**6  # sub-file repairs plus retrievals in one check pass


class _Parser(argparse.ArgumentParser):
    """argparse's own rejections become one-line usage errors, not SystemExit."""

    def error(self, message):
        raise errors.UsageError(message)


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise errors.InvalidParams(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, without json's
    pure-Python indent encoder."""
    return _indented(obj, "\n") + "\n"


_json_key = functools.lru_cache(maxsize=256)(json.dumps)  # a dozen names recur


def _indented(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(indent=2)`` writes it where ``nl`` is the newline
    plus the current indent. Non-empty lists, tuples and str-keyed dicts
    recurse, a flat list of plain ints is one C-level join, and everything
    else (bool, None, float, str, int subclasses, other keys) is json's."""
    kind = type(obj)
    if kind is int:
        return str(obj)
    pad = nl + "  "
    if (kind is list or kind is tuple) and obj:
        if set(map(type, obj)) == {int}:  # bool is not int here, as in _ints
            return f"[{pad}{(',' + pad).join(map(str, obj))}{nl}]"
        return f"[{pad}{(',' + pad).join([_indented(x, pad) for x in obj])}{nl}]"
    if kind is dict and obj and set(map(type, obj)) == {str}:
        items = [f"{_json_key(key)}: {_indented(value, pad)}" for key, value in obj.items()]
        return f"{{{pad}{(',' + pad).join(items)}{nl}}}"
    return json.dumps(obj, indent=2).replace("\n", nl)


def _params_from_args(args) -> SystemParams:
    for name in ("n", "k", "d", "prime"):
        if getattr(args, name, None) is None:
            raise errors.InvalidParams(f"--{name} is required for this command")
    return make_params(args.n, args.k, args.d, args.prime)


def _params_json(params: SystemParams) -> dict:
    return {
        "n": params.n,
        "k": params.k,
        "d": params.d,
        "p": params.p,
        "evalPoints": list(params.eval_points),
    }


def _storage_to_json(params: SystemParams, storage: np.ndarray) -> dict:
    return {
        "params": _params_json(params),
        "subfiles": [
            [{"nodeId": i, "rowM": m, "rowMp": mp} for i, (m, mp) in enumerate(sub, 1)]
            for sub in storage.tolist()
        ],
    }


def _ints(values, bound: int | None = None) -> bool:
    """A list of plain ints (JSON true/false are not), each in [0, bound) if given."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        return False
    return bound is None or (min(values) >= 0 and max(values) < bound)


def _storage_from_json(doc) -> tuple[SystemParams, np.ndarray]:
    """A storage file's params and its (T, n, 2, a0) storage array of Python
    ints; anything malformed is a UsageError."""
    meta = doc.get("params") if isinstance(doc, dict) else None
    if not isinstance(meta, dict):
        raise errors.BadShareSet("storage file must be an object with params")
    dims = [meta.get(key) for key in ("n", "k", "d", "p")]
    points = meta.get("evalPoints")
    if not (_ints(dims) and (points is None or _ints(points))):
        raise errors.InvalidParams("storage params n, k, d, p, evalPoints must be ints")
    subfiles, n = doc.get("subfiles"), dims[0]
    if not (isinstance(subfiles, list) and subfiles and all(
        isinstance(sub, list) and len(sub) == n for sub in subfiles
    )):  # before make_params, whose work grows with n
        raise errors.BadShareSet(f"storage sub-files must each list {n} nodes")
    params = make_params(*dims, points)
    if len(subfiles) != params.subfiles:
        raise errors.BadShareSet(f"storage file needs {params.subfiles} sub-files")
    a0, dits = params.alpha0, []
    for sub in subfiles:
        for node_id, s in enumerate(sub, 1):
            node = s.get("nodeId") if isinstance(s, dict) else None
            if type(node) is not int or node != node_id:
                raise errors.BadShareSet("storage nodes must appear in id order")
            row_m, row_mp = s.get("rowM"), s.get("rowMp")
            if not (isinstance(row_m, list) and isinstance(row_mp, list)
                    and len(row_m) == len(row_mp) == a0):
                raise errors.BadShareSet(
                    f"node {node_id} needs rowM and rowMp of {a0} dits"
                )
            dits += row_m
            dits += row_mp
    # every dit at once: set, min and max run in C, a per-row check would not
    if not _ints(dits, params.p):
        raise errors.BadShareSet(f"storage dits must be ints in [0, {params.p})")
    # object, never int64: products of dits overflow int64 at large p
    return params, np.array(dits, dtype=object).reshape(params.subfiles, n, 2, a0)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.InvalidParams(f"cannot read {path}: {exc}") from None


def cmd_demo_example1(args) -> int:
    report = replay(seed=args.seed)
    matched = sum(1 for r in report if r["pass"])
    if args.format == "json":
        doc = {"golden": report, "matched": matched, "total": len(report)}
        _write_out(_json_text(doc), args.out)
    else:
        lines = []
        for r in report:
            if r["pass"]:
                lines.append(f"PASS {r['name']}")
            else:
                lines.append(
                    f"FAIL {r['name']} expected={r['expected']} got={r['got']}"
                )
        lines.append(f"{matched}/{len(report)} golden values match")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0 if matched == len(report) else 1


def cmd_encode(args) -> int:
    params = _params_from_args(args)
    symbols = _load_json(args.in_path)
    if not _ints(symbols):
        raise errors.WrongLength("--in must be a JSON array of integers")
    storage = encode_file(params, [x % params.p for x in symbols])
    _write_out(_json_text(_storage_to_json(params, storage)), args.out)
    return 0


def cmd_retrieve(args) -> int:
    params, storage = _storage_from_json(_load_json(args.in_path))
    ids = range(1, params.k + 1) if args.nodes is None else _parse_ids(args.nodes)
    symbols = retrieve_file(params, storage, ids)
    _write_out(_json_text(list(symbols)), args.out)
    return 0


def cmd_repair(args) -> int:
    if args.in_path is not None:
        flags = ("n", "k", "d", "prime", "seed")
        given = next((f for f in flags if getattr(args, f) is not None), None)
        if given:
            raise errors.InvalidParams(f"--{given} cannot be combined with --in")
        params, storage = _storage_from_json(_load_json(args.in_path))
    else:
        params = _params_from_args(args)
        rng = SplitMix64(1 if args.seed is None else args.seed)
        storage = encode_file(params, random_symbols(params, rng))
    helpers = _parse_ids(args.helpers)
    transcript = run_repair_extended(
        params, storage, args.failed, helpers, mode=args.mode
    )
    _write_out(_json_text(transcript.to_json_dict()), args.out)
    return 0


def _attempt(failures: list, record: tuple, call, *args):
    """``call(*args)``; a non-usage error appends ``record`` + (its class,)."""
    try:
        return call(*args)
    except errors.UsageError:
        raise
    except errors.QregenError as exc:
        failures.append((*record, type(exc).__name__))
        return None


def _check_pass(params: SystemParams, rng: SplitMix64, modes, trial: int = 0):
    """Encode one random message, repair every failed node from every d-helper
    set in each of ``modes`` (random u if one sub-file), retrieve from every
    k-subset. Returns (repairs, retrievals, qudit totals seen, failures); a
    failure is (trial, op/mode, case, error class), the class ``qudit-total``
    or ``wrong-message`` for a repair not moving B/k qudits or a bad retrieval.
    A pass of more than SWEEP_LIMIT sub-file repairs plus retrievals is a
    usage error, raised before anything is encoded.
    """
    n, k, d = params.n, params.k, params.d
    size = len(modes) * n * comb(n - 1, d) * params.subfiles + comb(n, k)
    if size > SWEEP_LIMIT:
        raise errors.InvalidParams(
            f"a check pass at ({n},{k},{d}) needs {size} sub-file repairs and "
            f"retrievals, over the limit of {SWEEP_LIMIT}"
        )
    symbols = random_symbols(params, rng)
    storage = encode_file(params, symbols)
    nodes, single = range(1, params.n + 1), params.subfiles == 1
    repairs, qudits, failures = 0, set(), []
    for failed in nodes:
        for helpers in combinations([i for i in nodes if i != failed], params.d):
            u = [rng.unit(params.p) for _ in range(2 * params.k - 2)] if single else None
            case = f"failed={failed} helpers={','.join(map(str, helpers))}"
            for mode in modes:
                repairs += 1
                record = (trial, f"repair/{mode}", case)
                if single:
                    t = _attempt(failures, record, run_repair,
                                 params, storage[0], failed, helpers, u, mode)
                else:
                    t = _attempt(failures, record, run_repair_extended,
                                 params, storage, failed, helpers, mode)
                if t is not None:
                    qudits.add(t.qudit_total)
                    if t.qudit_total != params.B // params.k:
                        failures.append((*record, "qudit-total"))
    subsets = list(combinations(nodes, params.k))
    message = [x % params.p for x in symbols]
    for subset in subsets:
        record = (trial, "retrieve", f"nodes={','.join(map(str, subset))}")
        got = _attempt(failures, record, retrieve_file, params, storage, subset)
        if got is not None and list(got) != message:
            failures.append((*record, "wrong-message"))
    return repairs, len(subsets), qudits, failures


def _report(failures) -> None:
    for trial, op, case, error in failures:
        print(f"failure: trial {trial} {op} {case} {error}", file=sys.stderr)


def cmd_sweep(args) -> int:
    if args.trials < 1:
        raise errors.InvalidParams(f"--trials must be at least 1, got {args.trials}")
    params = _params_from_args(args)
    rng = SplitMix64(args.seed)
    passes = [_check_pass(params, rng, (args.mode,), t) for t in range(args.trials)]
    repairs, retrievals = (sum(p[i] for p in passes) for i in (0, 1))
    qudit_seen = set().union(*(p[2] for p in passes))
    failures = [f for p in passes for f in p[3]]
    _report(failures)

    summary = {
        "params": _params_json(params),
        "seed": args.seed,
        "mode": args.mode,
        "trials": args.trials,
        "repairCases": repairs // args.trials,
        "repairTrials": repairs,
        "retrievalSubsets": retrievals // args.trials,
        "retrievalTrials": retrievals,
        "failures": len(failures),
        "quditTotal": {
            "min": min(qudit_seen, default=None),
            "max": max(qudit_seen, default=None),
            "expected": params.B // params.k,
        },
        "perHelperQudits": plan_subfiles(params).per_helper_qudits,
    }
    _write_out(_json_text(summary), args.out)
    return 0 if not failures else 1


def _parse_betas(text: str) -> list[Fraction]:
    text = text.strip()
    if not text:
        return []
    try:
        return [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise errors.InvalidParams(
            f"--betas needs comma-separated rationals, got {text!r}"
        ) from None


def cmd_tradeoff(args) -> int:
    k, d, b = args.k, args.d, args.B
    if k is None or d is None or b is None:
        raise errors.InvalidParams("--k, --d and --B are required for tradeoff")
    tradeoff.check_regime(k, d, 0, 0, b)  # before dividing by k * d
    if args.betas is not None:
        betas = _parse_betas(args.betas)
    else:
        base = Fraction(b, k * d)
        betas = [base * t for t in (1, 2, 3, 4)]
    rows = tradeoff.tradeoff_table(k, d, b, betas)
    _write_out(tradeoff.table_csv(rows), args.out)
    if d >= 2 * k - 2:
        try:
            point = tradeoff.optimal_point(k, d, b)
            classical = tradeoff.classical_msr_bandwidth(k, d, b)
            print(
                f"optimal alpha={point.alpha} d_beta_q={point.beta * d} "
                f"classical_msr_bandwidth={classical}"
            )
        except errors.Indivisible as exc:
            print(f"warning: {exc}")
    else:
        print(f"warning: no simultaneous optimum, d={d} < 2k-2={2 * k - 2}")
    return 0


def cmd_selftest(args) -> int:
    rng = SplitMix64(args.seed)
    params = make_params(6, 3, 4, 13)
    base = _check_pass(params, rng, ("linear", "symplectic"))[3]
    ext = _check_pass(make_params(6, 2, 3, 13), rng, ("linear",))[3]
    stored = encode_file(params, random_symbols(params, rng))[0]
    _attempt(base, (0, "repair/statevector", "failed=1 helpers=2,4,5,6"),
             run_repair, params, stored, 1, (2, 4, 5, 6), None, "statevector")
    _report(base + ext)
    ops = [{f[1].split("/")[0] for f in records} for records in (base, ext)]
    point = tradeoff.optimal_point(3, 4, 12)
    checks = [
        ("golden-replay", all(r["pass"] for r in replay(seed=args.seed))),
        ("dual-containment",
         "DualContainmentViolated" not in {f[3] for f in base + ext}),
        ("exact-repair", "repair" not in ops[0]),
        ("retrieval", "retrieve" not in ops[0] | ops[1]),
        ("extension-repair", "repair" not in ops[1]),
        ("tradeoff-optimum", point.alpha == 4 and point.beta * point.d == 4),
    ]
    lines = [f"{'PASS' if passed else 'FAIL'} {name}" for name, passed in checks]
    passed = sum(ok for _, ok in checks)
    lines.append(f"{passed}/{len(checks)} selftest checks pass")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(checks) else 1


def _parse_ids(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise errors.InvalidParams(f"expected comma-separated ids, got {text!r}") from None


@functools.cache  # one per process; parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qregen",
        description=(
            "Simulator for entanglement-assisted exact-repair regenerating codes"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, *int_flags):
        """A subcommand taking --out plus exactly the integer flags it reads."""
        sp = sub.add_parser(name, help=help, allow_abbrev=False)  # --n is not --nodes
        sp.set_defaults(func=func)
        for flag in int_flags:
            sp.add_argument(f"--{flag}", type=int)
        sp.add_argument("--out", default=None)
        return sp

    sp = add_command("demo-example1", cmd_demo_example1,
                     "replay the six-node reference values")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add_command("encode", cmd_encode, "encode a message file across n nodes",
                     "n", "k", "d", "prime")
    sp.add_argument("--in", dest="in_path", required=True)

    sp = add_command("retrieve", cmd_retrieve, "rebuild the message from k nodes")
    sp.add_argument("--in", dest="in_path", required=True)
    sp.add_argument("--nodes", default=None, help="comma-separated node ids")

    sp = add_command("repair", cmd_repair, "regenerate a failed node from d helpers",
                     "n", "k", "d", "prime")
    sp.add_argument("--seed", type=int)  # no default, so that --seed with --in shows
    sp.add_argument("--mode", choices=MODES, default="linear")
    sp.add_argument("--in", dest="in_path", default=None)
    sp.add_argument("--failed", type=int, required=True)
    sp.add_argument("--helpers", required=True, help="comma-separated helper ids")

    sp = add_command("sweep", cmd_sweep, "exhaustive repair and retrieval trials",
                     "n", "k", "d", "prime")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--mode", choices=MODES, default="linear")
    sp.add_argument("--trials", type=int, default=20)

    sp = add_command("tradeoff", cmd_tradeoff, "tabulate the storage-bandwidth bounds",
                     "k", "d", "B")
    sp.add_argument("--betas", default=None, help="comma-separated rationals")

    sp = add_command("selftest", cmd_selftest, "quick verification battery")
    sp.add_argument("--seed", type=int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except errors.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.QregenError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
