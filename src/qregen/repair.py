"""Three-stage exact repair of a failed node, across every sub-file.

Stage 1 builds the repair-time CSS code for (failed node, helper set).
Stage 2 has each helper compute, from its own storage only, the pair
y_x = lam1_j * (row_m . vbar_f) and y_z = lam2_j * (row_mp . vbar_f), and
encode it as the Pauli X(y_x)Z(y_z) on its qudit of the shared state.
Stage 3 measures the stabilizers: because HZ (L1 Vt) = HX (L2 Vt) =
[I | lam_f I], the syndromes come out as sX = S1 vbar_f + lam_f S2 vbar_f
and sZ = S1' vbar_f + lam_f S2' vbar_f, which after swapping the two
blocks is exactly (row_m, row_mp) of the failed node. Every helper ships
one qudit, so one sub-file costs 2k-2 qudits.

``run_repair`` takes ``encode_file``'s whole (T, n, 2, a0) storage array
and d helpers, and runs the three stages once per sub-file;
``helper_encode`` sees only the two rows of its own node. The file is
T = C(d, 2k-2) sub-files (one when d = 2k-2); each one repairs through a
distinct (2k-2)-subset of the d helpers (subsets in colexicographic
order). A helper participates in exactly C(d-1, 2k-3) sub-files and sends
one qudit in each, so the grand total is C(d, 2k-2) * (2k-2) = B/k
qudits. Note the naive count of one qudit per helper per sub-file,
d * C(d, 2k-2) in total, would overshoot B/k whenever d > 2k-2; only
helpers inside a sub-file's subset transmit.
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
    """Full record of one repair: ``css``, ``payloads`` and ``syndrome``
    hold one entry per sub-file, in sub-file order."""

    failed_node: int
    helpers: tuple[int, ...]
    mode: str
    css: tuple[RepairCSS, ...]
    payloads: tuple[tuple[HelperPayload, ...], ...]
    syndrome: tuple[Syndrome, ...]
    qudit_total: int

    @property
    def regenerated(self) -> tuple:
        """The failed node's rows (row_m, row_mp) in each sub-file, which are
        that sub-file's syndrome (s_x, s_z)."""
        return tuple((s.s_x, s.s_z) for s in self.syndrome)

    def to_json_dict(self) -> dict:
        """The transcript as JSON; with one sub-file its four per-sub-file
        fields hold that sub-file's entry itself, not a one-entry list."""
        parts = {
            "css": [c.to_json_dict() for c in self.css],
            "payloads": [[p.to_json_dict() for p in part] for part in self.payloads],
            "syndrome": [{"sX": list(s.s_x), "sZ": list(s.s_z)} for s in self.syndrome],
            "regenerated": [
                {"nodeId": self.failed_node, "rowM": list(m), "rowMp": list(mp)}
                for m, mp in self.regenerated
            ],
        }
        if len(self.css) == 1:
            parts = {key: value[0] for key, value in parts.items()}
        return {
            "failedNode": self.failed_node,
            "helpers": list(self.helpers),
            "mode": self.mode,
            **parts,
            "quditTotal": self.qudit_total,
        }


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


def run_repair(
    params: SystemParams,
    storage: np.ndarray,
    failed: int,
    helpers: Sequence[int],
    u: Sequence[int] | None = None,
    mode: str = "linear",
) -> RepairTranscript:
    """Regenerate every sub-file's share of a failed node from d helpers.

    ``storage`` is ``encode_file``'s (T, n, 2, a0) array, entry [t, i - 1]
    node i's rows in sub-file t; it includes the failed node, whose rows are
    used only to assert exactness of the regeneration. Sub-file t repairs
    through the t-th colex (2k-2)-subset of the sorted helpers, each with
    the same free vector ``u``.
    """
    backend = _syndrome_backend(mode)
    shape = (params.subfiles, params.n, 2, params.alpha0)
    if storage.shape != shape:
        raise InvalidHelperSet(f"need storage of shape {shape}")
    hs = tuple(sorted(helpers))
    if (
        len(hs) != params.d
        or len(set(hs)) != params.d
        or failed in hs
        or hs[0] < 1
        or hs[-1] > params.n
    ):
        raise InvalidHelperSet(
            f"need {params.d} distinct helpers in [1, {params.n}] "
            f"excluding node {failed}"
        )
    parts = []
    for rows, subset in zip(storage.tolist(), plan_subfiles(params).subsets):
        # plain ints from tolist: numpy object rows iterate slower
        repair_css = build_repair_css(params, failed, [hs[i] for i in subset], u)
        sent = tuple(
            helper_encode(params, repair_css, s, rows[s - 1]) for s in repair_css.helpers
        )
        err = PauliError.make(params.p, [pl.y_x for pl in sent], [pl.y_z for pl in sent])
        syndrome = backend(repair_css.group, err)
        # measured block order is (sZ, sX); the final swap puts row_m first
        regenerated = (syndrome.s_x, syndrome.s_z)
        original = tuple(map(tuple, rows[failed - 1]))
        if regenerated != original:
            raise RegenerationMismatch(
                f"node {failed} repaired to {regenerated}, stored {original}"
            )
        parts.append((repair_css, sent, syndrome))
    css, payloads, syndromes = zip(*parts)
    return RepairTranscript(
        failed_node=failed,
        helpers=hs,
        mode=mode,
        css=css,
        payloads=payloads,
        syndrome=syndromes,
        qudit_total=sum(map(len, payloads)),
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
