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
and d helpers. Every helper applies the same vbar_f in every sub-file, so
stage 2's dots for the whole file are one product: ``helper_encode``
multiplies the helpers' rows, and only theirs, by vbar_f. Stages 1 and 3
run once per sub-file, and each payload scales its helper's dots by that
sub-file's lam1_j and lam2_j. The file is T = C(d, 2k-2) sub-files (one
when d = 2k-2); each one repairs through a distinct (2k-2)-subset of the
d helpers (subsets in colexicographic order). A helper participates in
exactly C(d-1, 2k-3) sub-files and sends one qudit in each, so the grand
total is C(d, 2k-2) * (2k-2) = B/k qudits. Note the naive count of one
qudit per helper per sub-file, d * C(d, 2k-2) in total, would overshoot
B/k whenever d > 2k-2; only helpers inside a sub-file's subset transmit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from collections.abc import Sequence

import numpy as np

from .css import RepairCSS, build_repair_css
from .errors import InvalidHelperSet, ModeUnavailable, RegenerationMismatch
from .matrix import matmul_mod
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


def helper_encode(
    params: SystemParams,
    storage: np.ndarray,
    failed: int,
    helpers: Sequence[int],
) -> np.ndarray:
    """Every helper's two dots in every sub-file, as one (T, d, 2) object
    array of Python ints: entry [t, j] is (row_m . vbar_f, row_mp . vbar_f)
    of node ``helpers[j]`` in sub-file t. Only the helpers' rows are read."""
    vbar_f = np.array(params.point_powers(failed), dtype=object)
    return matmul_mod(storage[:, [h - 1 for h in helpers]], vbar_f, params.p)


def _syndrome_backend(mode: str):
    if mode not in MODES:
        raise ModeUnavailable(f"unknown mode {mode!r}; pick one of {MODES}")
    if mode == "statevector":
        return syndrome_statevector  # raises TooLarge, a ModeUnavailable, if too big
    return syndrome_linear if mode == "linear" else syndrome_symplectic


def plan_subfiles(params: SystemParams) -> list[tuple[int, ...]]:
    """All (2k-2)-subsets of the d helper slots, colex order."""
    subsets = combinations(range(params.d), 2 * params.k - 2)
    return sorted(subsets, key=lambda s: s[::-1])


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
    if not 1 <= failed <= params.n:
        raise InvalidHelperSet(f"failed node {failed} out of range")
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
    p = params.p
    dots = helper_encode(params, storage, failed, hs).tolist()
    stored = storage[:, failed - 1].tolist()  # read only to check the result
    parts = []
    for subset, sub_dots, rows in zip(plan_subfiles(params), dots, stored):
        repair_css = build_repair_css(params, failed, [hs[i] for i in subset], u)
        y_x = [lam * sub_dots[i][0] % p for lam, i in zip(repair_css.lam1, subset)]
        y_z = [lam * sub_dots[i][1] % p for lam, i in zip(repair_css.lam2, subset)]
        sent = tuple(map(HelperPayload, repair_css.helpers, y_x, y_z))
        syndrome = backend(repair_css.group, PauliError.make(p, y_x, y_z))
        # measured block order is (sZ, sX); the final swap puts row_m first
        regenerated = (syndrome.s_x, syndrome.s_z)
        original = tuple(map(tuple, rows))
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
