"""Command-line harness: encode, retrieve, repair, sweep, tradeoff, demo.

Every command reads flags, runs deterministically from --seed, and emits
line-buffered JSON or CSV; identical flags and seed produce byte-identical
output. Exit codes: 0 success, 1 verification failure, 2 usage error.

``COMMANDS`` declares each command's handler and flags once. ``main`` parses a
command and then distinct ``--flag value`` pairs of its flags, each value valid,
in one loop; any other argv goes to the argparse parser built from the table,
which words every refusal and the help.

Documents are ``json.dumps(doc, indent=2)``'s text, from ``_json_text``. The
storage file, the repair transcript and the retrieved message are their ints in
order, each followed by a literal piece of a layout that ``json.dumps`` writes
once per shape (a ``_Doc``). A storage file's node ids are among those ints, so
its layout has a handful of distinct pieces whatever n is. Every int but the
last is in [0, p); while (distinct pieces) x p stays within ``_DECIMAL_CAP``,
the text is one gather out of cached columns of ``str(v) + piece`` and one
join, and past it each int takes ``str``.

A storage file is read as bytes, and ``_STORED``, an LRU of 8 keyed by those
exact bytes (not by path or mtime), keeps its validated params and storage
array, the array read-only and, like all field data, in ``exact_dtype(1, p)``:
int64 up to p = 3037000493, Python ints above. Ints leave arrays only for
JSON and for error messages. Retrieves and repairs that read the same stored
file again in one process skip ``json.load`` and validation; the decode, the
repair and its checks still run in full. A file this process encoded is cached
from its write: ``encode --out`` puts the params and storage it wrote under the
bytes it wrote, so even its first read is a hit. A malformed file raises before anything is cached, so it fails alike
on every read. The bytes decode as ``open(path, encoding="utf-8")`` reads them:
universal newlines, a BOM refused. A read finds its entry by comparing its
bytes with each key, and re-files the entry under that key, whose hash is
cached, so a hit hashes nothing. A one-shot process gains nothing and pays one
hash of the bytes, on insert.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections.abc import Callable
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from . import errors, repair, tradeoff
from .matrix import exact_dtype
from .pmcode import (
    SystemParams,
    encode_file,
    make_params,
    random_symbols,
    retrieve_file,
    subfile_count,
)
from .reference import replay
from .repair import MODES
from .rng import SplitMix64

SWEEP_LIMIT = 10**6  # node sub-files stored; sub-file repairs plus retrievals per sweep
# the most rows of "str(v) + piece" a document's table holds, (distinct pieces)
# x p: 2^12 strings take 0.6 ms and 0.25 MB to build (shared 2-core VM); 2^16
# would take 11 ms and 4 MB, more than a one-shot call writes back. A document
# past it takes str() of each int.
_DECIMAL_CAP = 1 << 12
# layout placeholders; json writes them "\u0000...", as no int, key or mode prints
_SLOT, _PART = "\x00slot", "\x00part"
_ID_CHARS = re.compile(r"[0-9,\s]*")  # \s is what str.strip() strips


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
        sys.stdout.write(text)  # every document ends in a newline


class _Doc(NamedTuple):
    """A document's text compiled for its ints: ``head``, then each int but
    the last followed by its piece, then the last int and ``tail``. ``follows``
    is one str for a flat list, else each int's piece, or with a ``table`` the
    distinct ones. For each field element v below ``size``, row ``offsets[i]
    + v`` of a table is ``str(v)`` + int i's piece, ``follows[offsets[i] // size]``."""

    head: str
    tail: str
    follows: tuple[str, ...] | str
    size: int = 0
    table: np.ndarray | None = None  # None past the budget
    offsets: np.ndarray | int = 0  # int16, as every row is below _DECIMAL_CAP


_LIST = _Doc("[\n  ", "\n]\n", ",\n  ")  # a flat list, as json.dumps(indent=2) writes it


@functools.lru_cache(maxsize=64)
def _column(piece: str, size: int) -> np.ndarray:
    """``str(v) + piece`` for every v below ``size``, as an object array."""
    return np.array([str(v) + piece for v in range(size)], dtype=object)


def _compile(head: str, tail: str, follows, size: int) -> _Doc:
    """A _Doc with a table of ``size`` rows per distinct piece of
    ``follows``, one cached column each, while they number at most
    _DECIMAL_CAP rows; past that, with none and every int's piece."""
    if isinstance(follows, str):
        distinct, ids = [follows], 0
    else:
        index = {}  # each distinct piece's column, in order of first use
        ids = np.fromiter((index.setdefault(piece, len(index)) for piece in follows),
                          dtype=np.intp, count=len(follows))
        distinct = list(index)
    if len(distinct) * size > _DECIMAL_CAP:
        return _Doc(head, tail, follows, size)
    table = np.concatenate([_column(piece, size) for piece in distinct])
    pieces = follows if isinstance(follows, str) else tuple(distinct)
    return _Doc(head, tail, pieces, size, table, np.int16(ids * size))


@functools.lru_cache(maxsize=16)
def _list_doc(p: int) -> _Doc:
    """A flat list of field elements, its table sized to p."""
    return _compile(*_LIST[:3], p)


def _json_text(obj, doc: _Doc = _LIST) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte. ``obj`` is the
    document itself, or an int array: the ints of a flat list, or of
    ``doc`` in order. While every int but the last is of int64 and in [0,
    ``doc.size``), as in every document sized to p, those ints with their
    following pieces are one gather out of its table and the text one join;
    past its budget, while p is within the cap, a gather of ``str(v)``. Any
    other array takes ``str`` of each int, interleaved with the same pieces."""
    if not isinstance(obj, np.ndarray):
        return json.dumps(obj, indent=2) + "\n"
    values = obj.ravel()
    if not values.size:  # only a list holds no int
        return "[]\n"
    body = values[:-1]  # as uint64, a negative int is past any size
    fielded = body.size and body.dtype == np.int64 and body.view(np.uint64).max() < doc.size
    if fielded and doc.table is not None:
        strs = doc.table[doc.offsets + body].tolist()
        strs[0] = doc.head + strs[0]  # short: the text is copied once, by the join
        strs.append(str(values[-1]) + doc.tail)
        return "".join(strs)
    follows = doc.follows
    if doc.table is not None and not isinstance(follows, str):  # each int's piece
        follows = [follows[i] for i in (doc.offsets // doc.size).tolist()]
    if fielded and doc.size <= _DECIMAL_CAP:  # past the budget: one column of str(v)
        strs = [*_column("", doc.size)[body].tolist(), str(values[-1])]
    else:
        strs = list(map(str, values.tolist()))
    if isinstance(follows, str):
        return doc.head + follows.join(strs) + doc.tail
    text = [*strs, *follows]
    text[::2], text[1::2] = strs, follows
    return doc.head + "".join(text) + doc.tail


def _check_size(n: int, k: int, d: int) -> None:
    """Refuse, before make_params, storage of over SWEEP_LIMIT node sub-files."""
    m = 2 * k - 2
    # T = C(d, m) >= d once m < d, so n * d rules out a huge T before it is
    # computed; make_params rejects anything outside 2 <= m <= d < n at once
    if 2 <= m <= d < n and (
        m < d and n * d > SWEEP_LIMIT or n * subfile_count(k, d) > SWEEP_LIMIT
    ):
        raise errors.InvalidParams(f"({n},{k},{d}) stores n * C(d, 2k-2) node "
                                   f"sub-files, over the limit of {SWEEP_LIMIT}")


def _params_from_args(args) -> SystemParams:
    for name in ("n", "k", "d", "prime"):
        if getattr(args, name, None) is None:
            raise errors.InvalidParams(f"--{name} is required for this command")
    _check_size(args.n, args.k, args.d)
    return make_params(args.n, args.k, args.d, args.prime)


def _params_json(params: SystemParams) -> dict:
    return {"n": params.n, "k": params.k, "d": params.d, "p": params.p,
            "evalPoints": list(params.eval_points)}


def _layout(skeleton, fragments=()) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
    """``skeleton``'s text as the literal pieces around its _SLOTs, in
    (fixed, unit) pairs: a document of c copies reads each pair's fixed pieces
    and then its unit pieces c - 1 times, one piece before each int and one
    after the last. The i-th [_PART, _PART] stands for copies of
    ``fragments[i]``, which holds a _SLOT, joined by the text between its
    _PARTs and indented as after its comma."""
    shared = {}  # one str per distinct piece: a row's separators repeat

    def split(text: str) -> list[str]:
        return [shared.setdefault(piece, piece) for piece in text.split(json.dumps(_SLOT))]

    pieces = (json.dumps(skeleton, indent=2) + "\n").split(json.dumps(_PART))
    layout, carry = [], ""
    for text, sep, part in zip(pieces[::2], pieces[1::2], fragments):
        head = split(carry + text)
        frag = split(json.dumps(part, indent=2).replace("\n", sep[1:]))
        layout.append(((*head[:-1], head[-1] + frag[0], *frag[1:-1]),
                       (frag[-1] + sep + frag[0], *frag[1:-1])))
        carry = frag[-1]
    layout.append((tuple(split(carry + pieces[-1])), ()))
    return tuple(layout)


def _storage_layout(params: SystemParams):
    row = [_SLOT] * params.alpha0
    node = dict(nodeId=_SLOT, rowM=row, rowMp=row)
    skeleton = {"params": _params_json(params), "subfiles": [_PART, _PART]}
    return _layout(skeleton, ([node] * params.n,))


def _layout_doc(layout, copies: int, p: int) -> _Doc:
    """A ``_layout`` of ``copies`` copies compiled, its table sized to p."""
    pieces = [piece for fixed, unit in layout for piece in (*fixed, *unit * (copies - 1))]
    return _compile(pieces[0], pieces[-1], tuple(pieces[1:-1]), p)


@functools.lru_cache(maxsize=16)
def _storage_doc(params: SystemParams) -> _Doc:
    return _layout_doc(_storage_layout(params), params.subfiles, params.p)


def _storage_text(params: SystemParams, storage: np.ndarray) -> str:
    """The storage file: each sub-file lists every node's id, rowM and rowMp."""
    copies, n, _, a0 = storage.shape
    values = np.empty((copies, n, 2 * a0 + 1), storage.dtype)
    values[..., 0] = np.arange(1, n + 1)
    values[..., 1:] = storage.reshape(copies, n, 2 * a0)
    return _json_text(values, _storage_doc(params))


def _transcript_layout(mode: str, d: int, a0: int, single: bool):
    row, col = [_SLOT] * a0, [_SLOT] * (2 * a0)
    parts = dict(
        css=dict(HX=[col] * a0, HZ=[col] * a0, Lam1=col, Lam2=col, u=col, uPrime=col),
        payloads=[dict(helperId=_SLOT, yX=_SLOT, yZ=_SLOT, quditsSent=1)] * (2 * a0),
        syndrome=dict(sX=row, sZ=row), regenerated=dict(nodeId=_SLOT, rowM=row, rowMp=row))
    skeleton = {"failedNode": _SLOT, "helpers": [_SLOT] * d, "mode": mode,
                **(parts if single else dict.fromkeys(parts, [_PART, _PART])),
                "quditTotal": _SLOT}
    return _layout(skeleton, () if single else parts.values())


@functools.lru_cache(maxsize=16)
def _transcript_doc(mode: str, d: int, a0: int, copies: int, p: int) -> _Doc:
    return _layout_doc(_transcript_layout(mode, d, a0, copies == 1), copies, p)


def _transcript_text(t: repair.RepairTranscript) -> str:
    """The repair transcript; with one sub-file its four per-sub-file fields
    hold that sub-file's entry itself, not a one-entry list. Every int but
    the last, quditTotal, is an id or a field element, below p."""
    copies, _, a0 = t.regenerated.shape
    sent = np.concatenate([t.css.helpers[:, None], t.payloads], axis=1)
    rows = t.regenerated.reshape(copies, -1)
    values = np.concatenate([  # sent as (helperId, yX, yZ) per qudit
        [t.failed_node, *t.helpers], t.css.block.ravel(), sent.swapaxes(1, 2).ravel(),
        rows.ravel(),
        np.concatenate([np.full((copies, 1), t.failed_node), rows], axis=1).ravel(),
        [t.qudit_total]])
    return _json_text(values, _transcript_doc(t.mode, len(t.helpers), a0, copies, t.css.p))


def _ints(values, bound: int | None = None) -> bool:
    """A list of plain ints (JSON true/false are not), each in [0, bound) if given."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        return False
    return bound is None or (min(values) >= 0 and max(values) < bound)


def _storage_from_json(doc) -> tuple[SystemParams, np.ndarray]:
    """A storage file's params and its (T, n, 2, a0) storage array in
    ``exact_dtype(1, p)``; anything malformed is a UsageError."""
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
    _check_size(*dims[:3])
    params = make_params(*dims, points)
    if points is not None and not _ints(points, params.p):  # make_params refuses 0
        raise errors.InvalidParams(
            f"storage evalPoints must be ints in [1, {params.p})"
        )
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
    # fromiter converts a list to int64 faster than np.array does
    dits = np.fromiter(dits, dtype=exact_dtype(1, params.p), count=len(dits))
    return params, dits.reshape(params.storage_shape)


def _load_json(data: bytes):
    """The document ``json.load(open(path, encoding="utf-8"))`` reads from a
    file of these bytes: UTF-8 with universal newlines, a BOM refused."""
    return json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


_STORED: dict[bytes, tuple[SystemParams, np.ndarray]] = {}  # insertion order is recency


def _cache_storage(data: bytes, params: SystemParams, storage: np.ndarray):
    """Make ``(params, storage)``, the array read-only, the newest entry of
    ``_STORED`` under ``data``; the oldest goes past 8 entries."""
    storage.flags.writeable = False
    _STORED.pop(data, None)
    _STORED[data] = params, storage
    if len(_STORED) > 8:  # a collector and a newcomer read the same stored bytes
        del _STORED[next(iter(_STORED))]
    return params, storage


def _stored(data: bytes) -> tuple[SystemParams, np.ndarray]:
    """``_storage_from_json`` of a storage file's bytes, its array read-only.
    An entry is found by comparing bytes, newest first, and re-filed under
    its own key, whose hash is cached, so a hit hashes nothing."""
    for key in reversed(_STORED):
        if key == data:
            return _cache_storage(key, *_STORED[key])
    return _cache_storage(data, *_storage_from_json(_load_json(data)))


def _read(path: str, parse):
    """``parse`` of the bytes in ``path``, read once; a file that cannot be
    read or parsed is a usage error naming it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return parse(data)
    # ValueError: bad UTF-8, bad JSON or an int of over 4300 digits
    except (OSError, ValueError, RecursionError) as exc:
        raise errors.InvalidParams(f"cannot read {path}: {exc}") from None


def cmd_demo_example1(args) -> int:
    report = replay(seed=args.seed)
    matched = sum(1 for r in report if r["pass"])
    if args.format == "json":
        doc = {"golden": report, "matched": matched, "total": len(report)}
        _write_out(_json_text(doc), args.out)
    else:
        lines = [f"PASS {r['name']}" if r["pass"] else
                 f"FAIL {r['name']} expected={r['expected']} got={r['got']}"
                 for r in report]
        lines.append(f"{matched}/{len(report)} golden values match")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0 if matched == len(report) else 1


def cmd_encode(args) -> int:
    params = _params_from_args(args)
    symbols = _read(args.in_path, _load_json)
    if not _ints(symbols):
        raise errors.WrongLength("--in must be a JSON array of integers")
    # contiguous, as a parse of the file builds it; encode_file's is a view
    storage = np.ascontiguousarray(encode_file(params, symbols))
    text = _storage_text(params, storage)
    _write_out(text, args.out)
    if args.out is not None:  # written: the file's bytes, where "\n" is written as is
        _cache_storage(text.encode("utf-8"), params, storage)
    return 0


def cmd_retrieve(args) -> int:
    params, storage = _read(args.in_path, _stored)
    ids = range(1, params.k + 1) if args.nodes is None else _parse_ids(args.nodes)
    _write_out(_json_text(retrieve_file(params, storage, ids), _list_doc(params.p)),
               args.out)
    return 0


def cmd_repair(args) -> int:
    if args.in_path is not None:
        flags = ("n", "k", "d", "prime", "seed")
        given = next((f for f in flags if getattr(args, f) is not None), None)
        if given:
            raise errors.InvalidParams(f"--{given} cannot be combined with --in")
        params, storage = _read(args.in_path, _stored)
    else:
        params = _params_from_args(args)
        rng = SplitMix64(1 if args.seed is None else args.seed)
        storage = encode_file(params, random_symbols(params, rng))
    helpers = _parse_ids(args.helpers)
    # looked up at call time, so that a wrapper on qregen.repair.run_repair sees it
    transcript = repair.run_repair(params, storage, args.failed, helpers, mode=args.mode)
    _write_out(_transcript_text(transcript), args.out)
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
    set in each of ``modes`` (one random u per case), retrieve from every
    k-subset. Returns (qudit totals seen, failures); a failure is (trial,
    op/mode, case, error class), the class ``qudit-total`` or
    ``wrong-message`` for a repair not moving B/k qudits or a bad retrieval.
    """
    symbols = random_symbols(params, rng)
    storage = encode_file(params, symbols)
    nodes = range(1, params.n + 1)
    qudits, failures = set(), []
    for failed in nodes:
        for helpers in combinations([i for i in nodes if i != failed], params.d):
            u = [rng.unit(params.p) for _ in range(2 * params.k - 2)]
            case = f"failed={failed} helpers={','.join(map(str, helpers))}"
            for mode in modes:
                record = (trial, f"repair/{mode}", case)
                t = _attempt(failures, record, repair.run_repair,
                             params, storage, failed, helpers, u, mode)
                if t is not None:
                    qudits.add(t.qudit_total)
                    if t.qudit_total != params.B // params.k:
                        failures.append((*record, "qudit-total"))
    for subset in combinations(nodes, params.k):
        record = (trial, "retrieve", f"nodes={','.join(map(str, subset))}")
        got = _attempt(failures, record, retrieve_file, params, storage, subset)
        if got is not None and got.tolist() != symbols:
            failures.append((*record, "wrong-message"))
    return qudits, failures


def _report(failures) -> None:
    for trial, op, case, error in failures:
        print(f"failure: trial {trial} {op} {case} {error}", file=sys.stderr)


def cmd_sweep(args) -> int:
    if args.trials < 1:
        raise errors.InvalidParams(f"--trials must be at least 1, got {args.trials}")
    params = _params_from_args(args)
    n = params.n  # one pass: every repair of every sub-file, every retrieval
    cases, subsets = n * comb(n - 1, params.d), comb(n, params.k)
    size = cases * params.subfiles + subsets
    if args.trials * size > SWEEP_LIMIT:  # before anything is encoded
        raise errors.InvalidParams(
            f"a check pass at ({n},{params.k},{params.d}) needs {size} "
            f"sub-file repairs and retrievals, and --trials {args.trials} runs "
            f"{args.trials * size} in all, over the limit of {SWEEP_LIMIT}"
        )
    rng = SplitMix64(args.seed)
    passes = [_check_pass(params, rng, (args.mode,), t) for t in range(args.trials)]
    qudit_seen = set().union(*(p[0] for p in passes))
    failures = [f for p in passes for f in p[1]]
    _report(failures)

    summary = {
        "params": _params_json(params),
        "seed": args.seed,
        "mode": args.mode,
        "trials": args.trials,
        "repairCases": cases,
        "repairTrials": cases * args.trials,
        "retrievalSubsets": subsets,
        "retrievalTrials": subsets * args.trials,
        "failures": len(failures),
        "quditTotal": {
            "min": min(qudit_seen, default=None),
            "max": max(qudit_seen, default=None),
            "expected": params.B // params.k,
        },
        "perHelperQudits": params.family.size // params.d,
    }
    _write_out(_json_text(summary), args.out)
    return 0 if not failures else 1


def _parse_betas(text: str) -> list[Fraction]:
    text = text.strip()
    if not text:
        return []
    try:
        # Fraction also reads "1_0" as 10, "\u0661" as 1 and "1e100000000"
        # for minutes
        if set(text) <= set("0123456789+-./, "):
            return [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        pass
    raise errors.InvalidParams(f"--betas needs comma-separated rationals, got {text!r}")


def cmd_tradeoff(args) -> int:
    k, d, b = args.k, args.d, args.B
    if k is None or d is None or b is None:
        raise errors.InvalidParams("--k, --d and --B are required for tradeoff")
    tradeoff.check_regime(k, d, 0, 0, b)  # before dividing by k * d
    betas = ([Fraction(b * t, k * d) for t in (1, 2, 3, 4)] if args.betas is None
             else _parse_betas(args.betas))
    rows = tradeoff.tradeoff_table(k, d, b, betas)
    _write_out(tradeoff.table_csv(rows), args.out)
    if d >= 2 * k - 2:
        try:
            point = tradeoff.optimal_point(k, d, b)
            classical = tradeoff.classical_msr_bandwidth(k, d, b)
            print(f"optimal alpha={point.alpha} d_beta_q={point.beta * d} "
                  f"classical_msr_bandwidth={classical}")
        except errors.Indivisible as exc:
            print(f"warning: {exc}")
    else:
        print(f"warning: no simultaneous optimum, d={d} < 2k-2={2 * k - 2}")
    return 0


def cmd_selftest(args) -> int:
    rng = SplitMix64(args.seed)
    params = make_params(6, 3, 4, 13)
    base = _check_pass(params, rng, ("linear", "symplectic"))[1]
    ext = _check_pass(make_params(6, 2, 3, 13), rng, ("linear",))[1]
    storage = encode_file(params, random_symbols(params, rng))
    _attempt(base, (0, "repair/statevector", "failed=1 helpers=2,4,5,6"),
             repair.run_repair, params, storage, 1, (2, 4, 5, 6), None, "statevector")
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


def _int(text: str) -> int:
    """``int(text)`` for ASCII digits between blanks, after an optional
    leading -: int() alone also reads "1_0" as 10 and "\\u0661" as 1."""
    digits = text.strip().removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")  # argparse's words


def _parse_ids(text: str) -> list[int]:
    """Comma-separated ids of ASCII digits, blanks around each allowed: one
    check of the whole string, then int() of each part, which refuses a blank
    part, a blank inside one and more digits than it converts."""
    try:
        if _ID_CHARS.fullmatch(text):
            return list(map(int, text.split(",")))
    except ValueError:
        pass
    raise errors.InvalidParams(f"expected comma-separated ids, got {text!r}")


class _Flag(NamedTuple):  # one flag of a command, in argparse's keywords
    dest: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None


_PARAMS = {f"--{name}": _Flag(name, _int) for name in ("n", "k", "d", "prime")}
_OUT = {"--out": _Flag("out")}
_SEED = {"--seed": _Flag("seed", _int, 1)}
_MODE = {"--mode": _Flag("mode", default="linear", choices=MODES)}
# name: (handler, help, its flags in --help's order), for parser and loop alike
COMMANDS: dict[str, tuple[Callable, str, dict[str, _Flag]]] = {
    "demo-example1": (cmd_demo_example1, "replay the six-node reference values", {
        **_OUT, **_SEED, "--format": _Flag("format", default="text", choices=("text", "json"))}),
    "encode": (cmd_encode, "encode a message file across n nodes", {
        **_PARAMS, **_OUT, "--in": _Flag("in_path", required=True)}),
    "retrieve": (cmd_retrieve, "rebuild the message from k nodes", {
        **_OUT, "--in": _Flag("in_path", required=True),
        "--nodes": _Flag("nodes", help="comma-separated node ids")}),
    "repair": (cmd_repair, "regenerate a failed node from d helpers", {
        **_PARAMS, **_OUT,
        "--seed": _Flag("seed", _int),  # no default, so that --seed with --in shows
        **_MODE, "--in": _Flag("in_path"), "--failed": _Flag("failed", _int, required=True),
        "--helpers": _Flag("helpers", required=True, help="comma-separated helper ids")}),
    "sweep": (cmd_sweep, "exhaustive repair and retrieval trials", {
        **_PARAMS, **_OUT, **_SEED, **_MODE, "--trials": _Flag("trials", _int, 20)}),
    "tradeoff": (cmd_tradeoff, "tabulate the storage-bandwidth bounds", {
        **{f"--{name}": _Flag(name, _int) for name in ("k", "d", "B")}, **_OUT,
        "--betas": _Flag("betas", help="comma-separated rationals")}),
    "selftest": (cmd_selftest, "quick verification battery", {**_OUT, **_SEED}),
}


@functools.cache  # one per process; parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qregen", description=(
        "Simulator for entanglement-assisted exact-repair regenerating codes"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help, allow_abbrev=False)  # --n is not --nodes
        sp.set_defaults(func=func)
        for flag, spec in flags.items():
            sp.add_argument(flag, **spec._asdict())
    return parser


def _parse_fast(argv: list[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` of a command and then distinct
    ``--flag value`` pairs of its flags, each value valid and not starting with
    -, every required flag given; None for any other argv, left to argparse."""
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    func, _, flags = COMMANDS[argv[0]]
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        spec = flags.get(flag)
        if spec is None or flag in given or value.startswith("-"):
            return None
        try:
            value = spec.type(value)
        except argparse.ArgumentTypeError:
            return None
        if spec.choices is not None and value not in spec.choices:
            return None
        given[flag] = value
    if any(spec.required and flag not in given for flag, spec in flags.items()):
        return None
    return argparse.Namespace(command=argv[0], func=func, **{
        spec.dest: given.get(flag, spec.default) for flag, spec in flags.items()})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # a Namespace is never falsy
        args = _parse_fast(argv) or build_parser().parse_args(argv)
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
