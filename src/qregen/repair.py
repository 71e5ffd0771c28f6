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
and d helpers. The file is T = C(d, 2k-2) sub-files (one when d = 2k-2),
each repairing through a distinct (2k-2)-subset of the helpers: row t of
``plan_subfiles``, in colex order. Stage 1 builds one code per sub-file.
Stage 2 is one product for the file, as every helper applies the same
vbar_f (``helper_encode`` reads the helpers' rows and only theirs), and
every payload is the stacked (T, 2, 2k-2) lam1 and lam2 times those dots
gathered through the subsets. Stage 3 measures each sub-file into one
(T, 2, a0) array. A helper joins exactly C(d-1, 2k-3) sub-files and sends
one qudit in each, so the total is C(d, 2k-2) * (2k-2) = B/k qudits; the
naive count of one qudit per helper per sub-file, d * C(d, 2k-2), would
overshoot B/k whenever d > 2k-2, as only a sub-file's subset transmits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from collections.abc import Sequence

import numpy as np

from .css import RepairCSS, build_repair_css, check_helpers
from .errors import InvalidHelperSet, ModeUnavailable, RegenerationMismatch
from .matrix import matmul_mod
from .pmcode import SystemParams
from .stabilizer import syndrome_linear, syndrome_statevector, syndrome_symplectic
from .tradeoff import classical_msr_bandwidth

MODES = ("linear", "symplectic", "statevector")


@dataclass(frozen=True, eq=False)
class RepairTranscript:
    """Full record of one repair, in sub-file order: ``css`` holds each
    sub-file's code, ``payloads`` is the (T, 2, 2k-2) array whose entry
    [t, :, j] is the qudit (y_x, y_z) sent by ``css[t].helpers[j]``, and
    ``regenerated`` the (T, 2, a0) array of the failed node's rows
    (row_m, row_mp), each sub-file's syndrome (s_x, s_z). Equality is
    identity, as for the arrays' own ``==`` no single truth value exists."""

    failed_node: int
    helpers: tuple[int, ...]
    mode: str
    css: tuple[RepairCSS, ...]
    payloads: np.ndarray
    regenerated: np.ndarray

    @property
    def qudit_total(self) -> int:
        """One qudit per payload: (2k-2) T = B/k."""
        return self.payloads[:, 0].size

    def to_json_dict(self) -> dict:
        """The transcript as JSON; with one sub-file its four per-sub-file
        fields hold that sub-file's entry itself, not a one-entry list."""
        rows = self.regenerated.tolist()
        parts = {
            "css": [c.to_json_dict() for c in self.css],
            "payloads": [
                [{"helperId": h, "yX": y_x, "yZ": y_z, "quditsSent": 1}
                 for h, y_x, y_z in zip(c.helpers, *sent)]
                for c, sent in zip(self.css, self.payloads.tolist())
            ],
            "syndrome": [{"sX": m, "sZ": mp} for m, mp in rows],
            "regenerated": [
                {"nodeId": self.failed_node, "rowM": m, "rowMp": mp} for m, mp in rows
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


def plan_subfiles(params: SystemParams) -> np.ndarray:
    """All (2k-2)-subsets of the d helper slots in colex order, as the
    (T, 2k-2) int array whose row t lists sub-file t's slots."""
    subsets = combinations(range(params.d), 2 * params.k - 2)
    return np.array(sorted(subsets, key=lambda s: s[::-1]))


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
    hs = check_helpers(params, failed, helpers, params.d)
    backend = _syndrome_backend(mode)
    shape = (params.subfiles, params.n, 2, params.alpha0)
    if storage.shape != shape:
        raise InvalidHelperSet(f"need storage of shape {shape}")
    p = params.p
    subsets = plan_subfiles(params)
    codes = tuple(build_repair_css(params, failed, [hs[i] for i in s], u) for s in subsets)
    lam = np.array([(c.lam1, c.lam2) for c in codes], dtype=object)  # (T, 2, 2k-2)
    dots = helper_encode(params, storage, failed, hs)  # (T, d, 2)
    payloads = lam * dots[np.arange(len(codes))[:, None], subsets].swapaxes(1, 2) % p
    # measured block order is (sZ, sX); the final swap puts row_m first
    regenerated = np.array([backend(c.group, *y) for c, y in zip(codes, payloads)])
    stored = storage[:, failed - 1]  # read only to check the result
    bad = np.flatnonzero((regenerated != stored).any(axis=(1, 2)))
    if len(bad):
        t = bad[0]
        raise RegenerationMismatch(
            f"sub-file {t}: node {failed} repaired to {regenerated[t].tolist()}, "
            f"stored {stored[t].tolist()}"
        )
    return RepairTranscript(failed, hs, mode, codes, payloads, regenerated)


def bandwidth_report(params: SystemParams, transcript: RepairTranscript) -> dict:
    """Storage alpha = B/k, the transcript's qudit download, and the classical
    minimum-storage repair download (B/k) * d / (d - k + 1), exact."""
    return {
        "alpha": params.alpha,
        "dBetaQ": transcript.qudit_total,
        "BOverK": params.B // params.k,
        "classicalMSRBandwidth": classical_msr_bandwidth(params.k, params.d, params.B),
    }
