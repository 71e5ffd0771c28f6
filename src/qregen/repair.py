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

from .css import RepairCSS, build_repair_css
from .errors import (
    InvalidHelperSet,
    ModeUnavailable,
    NotAHelper,
    RegenerationMismatch,
)
from .matrix import dot
from .pmcode import NodeStorage, SystemParams
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

    For a single sub-scheme ``css``, ``payloads``, ``syndrome`` and
    ``regenerated`` are scalar-shaped; for an extended repair each becomes
    a tuple with one entry per sub-file, in sub-file order.
    """

    failed_node: int
    helpers: tuple[int, ...]
    mode: str
    css: RepairCSS | tuple[RepairCSS, ...]
    payloads: tuple
    syndrome: Syndrome | tuple[Syndrome, ...]
    regenerated: NodeStorage | tuple[NodeStorage, ...]
    qudit_total: int

    @property
    def extended(self) -> bool:
        return isinstance(self.css, tuple)

    def to_json_dict(self) -> dict:
        if self.extended:
            css = [c.to_json_dict() for c in self.css]
            payloads = [[p.to_json_dict() for p in part] for part in self.payloads]
            syndrome = [{"sX": list(s.s_x), "sZ": list(s.s_z)} for s in self.syndrome]
            regenerated = [r.to_json_dict() for r in self.regenerated]
        else:
            css = self.css.to_json_dict()
            payloads = [p.to_json_dict() for p in self.payloads]
            syndrome = {"sX": list(self.syndrome.s_x), "sZ": list(self.syndrome.s_z)}
            regenerated = self.regenerated.to_json_dict()
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


@dataclass(frozen=True)
class SubfilePlan:
    """Assignment of sub-files to helper-slot subsets."""

    subsets: tuple[tuple[int, ...], ...]
    per_helper_qudits: int


def helper_encode(
    params: SystemParams, repair_css: RepairCSS, storage: NodeStorage
) -> HelperPayload:
    """The two precoded dits a helper computes from its own rows."""
    try:
        j = repair_css.helpers.index(storage.node_id)
    except ValueError:
        raise NotAHelper(
            f"node {storage.node_id} not in helper set {repair_css.helpers}"
        ) from None
    field = params.field
    vbar_f = params.point_powers(repair_css.failed_node)
    return HelperPayload(
        helper_id=storage.node_id,
        y_x=field.mul(repair_css.lam1[j], dot(field, storage.row_m, vbar_f)),
        y_z=field.mul(repair_css.lam2[j], dot(field, storage.row_mp, vbar_f)),
    )


def _syndrome_backend(mode: str):
    if mode not in MODES:
        raise ModeUnavailable(f"unknown mode {mode!r}; pick one of {MODES}")
    if mode == "statevector":
        return syndrome_statevector  # raises TooLarge, a ModeUnavailable, if too big
    return syndrome_linear if mode == "linear" else syndrome_symplectic


def run_repair(
    params: SystemParams,
    all_storage: Sequence[NodeStorage],
    failed: int,
    helpers: Sequence[int],
    u: Sequence[int] | None = None,
    mode: str = "linear",
) -> RepairTranscript:
    """Repair one sub-file's share of a failed node from 2k-2 helpers.

    ``all_storage`` is the per-node storage of one code instance, indexed
    by node_id - 1; it includes the failed node, whose content is used only
    to assert exactness of the regeneration.
    """
    backend = _syndrome_backend(mode)
    repair_css = build_repair_css(params, failed, helpers, u)
    if len(all_storage) != params.n:
        raise InvalidHelperSet(f"need storage for all {params.n} nodes")
    payloads = tuple(
        helper_encode(params, repair_css, all_storage[s - 1])
        for s in repair_css.helpers
    )
    err = PauliError.make(
        params.p, [pl.y_x for pl in payloads], [pl.y_z for pl in payloads]
    )
    syndrome = backend(repair_css.group, err)
    # measured block order is (sZ, sX); the final swap puts row_m first
    regenerated = NodeStorage(failed, row_m=syndrome.s_x, row_mp=syndrome.s_z)
    original = all_storage[failed - 1]
    if (regenerated.row_m, regenerated.row_mp) != (original.row_m, original.row_mp):
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
        regenerated=regenerated,
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
    all_storage: Sequence[Sequence[NodeStorage]],
    failed: int,
    helpers: Sequence[int],
    mode: str = "linear",
) -> RepairTranscript:
    """Repair across all sub-files using d helpers.

    ``all_storage`` is indexed [subfile][node_id - 1]. Sub-file t repairs
    through the t-th colex (2k-2)-subset of the sorted helper list. With
    d = 2k-2 there is a single sub-file and the result is exactly
    ``run_repair``'s transcript.
    """
    if len(all_storage) != params.subfiles:
        raise InvalidHelperSet(
            f"need storage for {params.subfiles} sub-files, got {len(all_storage)}"
        )
    hs = tuple(sorted(helpers))
    if len(hs) != params.d or len(set(hs)) != params.d:
        raise InvalidHelperSet(f"need {params.d} distinct helpers")
    if params.subfiles == 1:
        return run_repair(params, all_storage[0], failed, hs, None, mode)

    plan = plan_subfiles(params)
    parts = [
        run_repair(
            params,
            all_storage[t],
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
        regenerated=tuple(part.regenerated for part in parts),
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
