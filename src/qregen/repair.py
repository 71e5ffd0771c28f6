"""Three-stage exact repair of a failed node, plus the d > 2k-2 extension.

Stage 1 builds the repair-time CSS code for (failed node, helper set).
Stage 2 has each helper compute, from its own storage only, the pair
y_x = lam1_j * (row_m . vbar_f) and y_z = lam2_j * (row_mp . vbar_f), and
encode it as the Pauli X(y_x)Z(y_z) on its qudit of the shared state.
Stage 3 measures the stabilizers: because HZ (L1 Vt) = HX (L2 Vt) =
[I | lam_f I], the syndromes come out as sX = S1 vbar_f + lam_f S2 vbar_f
and sZ = S1' vbar_f + lam_f S2' vbar_f, which after swapping the two
blocks is exactly (row_m, row_mp) of the failed node. Every helper ships
one qudit, so a single sub-scheme costs 2k-2 qudits total.

``run_repair`` takes one sub-file's (n, 2, a0) slice of ``encode_file``'s
storage array and ``run_repair_extended`` the whole (T, n, 2, a0) array;
``helper_encode`` sees only the two rows of its own node.

For d > 2k-2 the file is C(d, 2k-2) independent sub-files; each one
repairs through a distinct (2k-2)-subset of the d helpers (subsets in
colexicographic order). A helper participates in exactly C(d-1, 2k-3)
sub-schemes and sends one qudit in each, so the grand total is
C(d, 2k-2) * (2k-2) = B/k qudits. Note the naive count of one qudit per
helper per sub-file, d * C(d, 2k-2) in total, would overshoot B/k whenever
d > 2k-2; only helpers inside a sub-file's subset transmit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from collections.abc import Sequence

import numpy as np

from .css import RepairCSS, build_repair_css
from .errors import (
    InvalidHelperSet,
    ModeUnavailable,
    NotAHelper,
    RegenerationMismatch,
)
from .pmcode import SystemParams
from .stabilizer import (
    PauliError,
    Syndrome,
    syndrome_linear,
    syndrome_statevector,
    syndrome_symplectic,
)
from .tradeoff import classical_msr_bandwidth

MODES = ("linear", "symplectic", "statevector")


@dataclass(frozen=True)
class HelperPayload:
    """One helper's contribution to one sub-scheme: a single qudit."""

    helper_id: int
    y_x: int
    y_z: int

    def to_json_dict(self) -> dict:
        return {
            "helperId": self.helper_id, "yX": self.y_x, "yZ": self.y_z, "quditsSent": 1
        }


@dataclass(frozen=True)
class RepairTranscript:
    """Full record of one repair.

    For a single sub-scheme ``css``, ``payloads`` and ``syndrome`` are
    scalar-shaped; for an extended repair each becomes a tuple with one
    entry per sub-file, in sub-file order.
    """

    failed_node: int
    helpers: tuple[int, ...]
    mode: str
    css: RepairCSS | tuple[RepairCSS, ...]
    payloads: tuple
    syndrome: Syndrome | tuple[Syndrome, ...]
    qudit_total: int

    @property
    def extended(self) -> bool:
        return isinstance(self.css, tuple)

    @property
    def regenerated(self) -> tuple:
        """The failed node's rows (row_m, row_mp), which are the syndrome's
        (s_x, s_z); for an extended repair, one such pair per sub-file."""
        if self.extended:
            return tuple((s.s_x, s.s_z) for s in self.syndrome)
        return self.syndrome.s_x, self.syndrome.s_z

    def to_json_dict(self) -> dict:
        if self.extended:
            css = [c.to_json_dict() for c in self.css]
            payloads = [[p.to_json_dict() for p in part] for part in self.payloads]
            syndrome = [{"sX": list(s.s_x), "sZ": list(s.s_z)} for s in self.syndrome]
            regenerated = [self._node_json(*rows) for rows in self.regenerated]
        else:
            css = self.css.to_json_dict()
            payloads = [p.to_json_dict() for p in self.payloads]
            syndrome = {"sX": list(self.syndrome.s_x), "sZ": list(self.syndrome.s_z)}
            regenerated = self._node_json(*self.regenerated)
        return {
            "failedNode": self.failed_node,
            "helpers": list(self.helpers),
            "mode": self.mode,
            "css": css,
            "payloads": payloads,
            "syndrome": syndrome,
            "regenerated": regenerated,
            "quditTotal": self.qudit_total,
        }

    def _node_json(self, row_m, row_mp) -> dict:
        return {"nodeId": self.failed_node, "rowM": list(row_m), "rowMp": list(row_mp)}


@dataclass(frozen=True)
class SubfilePlan:
    """Assignment of sub-files to helper-slot subsets."""

    subsets: tuple[tuple[int, ...], ...]
    per_helper_qudits: int


def helper_encode(
    params: SystemParams,
    repair_css: RepairCSS,
    node_id: int,
    rows: Sequence[Sequence[int]],
) -> HelperPayload:
    """The two precoded dits helper ``node_id`` computes from its own rows
    (row_m, row_mp)."""
    try:
        j = repair_css.helpers.index(node_id)
    except ValueError:
        raise NotAHelper(
            f"node {node_id} not in helper set {repair_css.helpers}"
        ) from None
    own_m, own_mp = (  # row_m . vbar_f and row_mp . vbar_f
        sum(x * v for x, v in zip(row, repair_css.vbar_f, strict=True))
        for row in rows
    )
    return HelperPayload(
        helper_id=node_id,
        y_x=repair_css.lam1[j] * own_m % params.p,
        y_z=repair_css.lam2[j] * own_mp % params.p,
    )


def _syndrome_backend(mode: str):
    if mode not in MODES:
        raise ModeUnavailable(f"unknown mode {mode!r}; pick one of {MODES}")
    if mode == "statevector":
        return syndrome_statevector  # raises TooLarge, a ModeUnavailable, if too big
    return syndrome_linear if mode == "linear" else syndrome_symplectic


def run_repair(
    params: SystemParams,
    storage_t: np.ndarray,
    failed: int,
    helpers: Sequence[int],
    u: Sequence[int] | None = None,
    mode: str = "linear",
) -> RepairTranscript:
    """Repair one sub-file's share of a failed node from 2k-2 helpers.

    ``storage_t`` is one sub-file's (n, 2, a0) storage array, entry
    [i - 1] node i's rows; it includes the failed node, whose rows are used
    only to assert exactness of the regeneration.
    """
    backend = _syndrome_backend(mode)
    repair_css = build_repair_css(params, failed, helpers, u)
    shape = (params.n, 2, params.alpha0)
    if storage_t.shape != shape:
        raise InvalidHelperSet(f"need one sub-file's storage of shape {shape}")
    rows = storage_t.tolist()  # plain ints: numpy object rows iterate slower
    payloads = tuple(
        helper_encode(params, repair_css, s, rows[s - 1]) for s in repair_css.helpers
    )
    err = PauliError.make(
        params.p, [pl.y_x for pl in payloads], [pl.y_z for pl in payloads]
    )
    syndrome = backend(repair_css.group, err)
    # measured block order is (sZ, sX); the final swap puts row_m first
    regenerated = (syndrome.s_x, syndrome.s_z)
    original = tuple(map(tuple, rows[failed - 1]))
    if regenerated != original:
        raise RegenerationMismatch(
            f"node {failed} repaired to {regenerated}, stored {original}"
        )
    return RepairTranscript(
        failed_node=failed,
        helpers=repair_css.helpers,
        mode=mode,
        css=repair_css,
        payloads=payloads,
        syndrome=syndrome,
        qudit_total=len(payloads),
    )


def _colex(subsets) -> list[tuple[int, ...]]:
    return sorted(subsets, key=lambda s: tuple(reversed(s)))


def plan_subfiles(params: SystemParams) -> SubfilePlan:
    """All (2k-2)-subsets of the d helper slots, colex order."""
    m = 2 * params.k - 2
    subsets = _colex(combinations(range(params.d), m))
    return SubfilePlan(
        subsets=tuple(subsets),
        per_helper_qudits=comb(params.d - 1, m - 1),
    )


def run_repair_extended(
    params: SystemParams,
    storage: np.ndarray,
    failed: int,
    helpers: Sequence[int],
    mode: str = "linear",
) -> RepairTranscript:
    """Repair across all sub-files using d helpers.

    ``storage`` is ``encode_file``'s (T, n, 2, a0) array. Sub-file t repairs
    through the t-th colex (2k-2)-subset of the sorted helper list. With
    d = 2k-2 there is a single sub-file and the result is exactly
    ``run_repair``'s transcript.
    """
    if len(storage) != params.subfiles:
        raise InvalidHelperSet(
            f"need storage for {params.subfiles} sub-files, got {len(storage)}"
        )
    hs = tuple(sorted(helpers))
    if len(hs) != params.d or len(set(hs)) != params.d:
        raise InvalidHelperSet(f"need {params.d} distinct helpers")
    if params.subfiles == 1:
        return run_repair(params, storage[0], failed, hs, None, mode)

    plan = plan_subfiles(params)
    parts = [
        run_repair(
            params,
            storage[t],
            failed,
            tuple(hs[i] for i in subset),
            None,
            mode,
        )
        for t, subset in enumerate(plan.subsets)
    ]
    return RepairTranscript(
        failed_node=failed,
        helpers=hs,
        mode=mode,
        css=tuple(part.css for part in parts),
        payloads=tuple(part.payloads for part in parts),
        syndrome=tuple(part.syndrome for part in parts),
        qudit_total=sum(part.qudit_total for part in parts),
    )


def bandwidth_report(params: SystemParams, transcript: RepairTranscript) -> dict:
    """Storage alpha = B/k, the transcript's qudit download, and the classical
    minimum-storage repair download (B/k) * d / (d - k + 1), exact."""
    return {
        "alpha": params.alpha,
        "dBetaQ": transcript.qudit_total,
        "BOverK": params.B // params.k,
        "classicalMSRBandwidth": classical_msr_bandwidth(params.k, params.d, params.B),
    }
