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
``params.family``, in colex order, computed once per code. Stage 1
checks u and the d helpers, once, moves the cached codes of the T
subsets to the recent end and hands the cold subsets to the CSS cache's
builder in one batch, reads each code with one ``build_repair_css`` call
per sub-file, a cache hit that checks nothing, stacks their blocks into
one ``RepairCSS``, scales that stack by u once, and checks HX HZ^T = 0
for all T codes in one stacked product on views of that stack. Stage 2
is one product for the file, as every helper applies the same vbar_f
(``helper_encode`` reads the helpers' rows and only theirs), and every
payload is the stack's (T, 2, 2k-2) lam1 and lam2 times those dots
gathered through the subsets. Stage 3 measures every sub-file in one
batched syndrome of the checked stack into one (T, 2, a0) array, in
every mode: the state-vector backend prepares all T codespaces as one
stack. A helper joins exactly C(d-1, 2k-3) sub-files and sends one qudit
in each, so the total is C(d, 2k-2) * (2k-2) = B/k qudits; the naive
count of one qudit per helper per sub-file, d * C(d, 2k-2), would
overshoot B/k whenever d > 2k-2, as only a sub-file's subset transmits.

Storage, blocks, dots, payloads and syndromes are all field data in
``exact_dtype(1, p)``, so no step of a repair casts between dtypes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .css import RepairCSS, _admit, _hit, build_repair_css, check_helpers, check_u, scale
from .errors import ModeUnavailable, RegenerationMismatch
from .matrix import matmul_mod
from .pmcode import SystemParams, check_storage
from .stabilizer import (
    StabGroup,
    syndrome_linear,
    syndrome_statevector,
    syndrome_symplectic,
)
from .tradeoff import classical_msr_bandwidth

MODES = ("linear", "symplectic", "statevector")


@dataclass(frozen=True, eq=False)
class RepairTranscript:
    """Full record of one repair, in sub-file order: ``css`` is the stack
    of the T sub-files' codes, ``payloads`` is the (T, 2, 2k-2) array whose
    entry [t, :, j] is the qudit (y_x, y_z) sent by ``css.helpers[t, j]``, and
    ``regenerated`` the (T, 2, a0) array of the failed node's rows
    (row_m, row_mp), each sub-file's syndrome (s_x, s_z). Equality is
    identity, as for the arrays' own ``==`` no single truth value exists."""

    failed_node: int
    helpers: tuple[int, ...]
    mode: str
    css: RepairCSS
    payloads: np.ndarray
    regenerated: np.ndarray

    @property
    def qudit_total(self) -> int:
        """One qudit per payload: (2k-2) T = B/k."""
        return self.payloads[:, 0].size


def helper_encode(
    params: SystemParams,
    storage: np.ndarray,
    failed: int,
    helpers: Sequence[int],
) -> np.ndarray:
    """Every helper's two dots in every sub-file, as one (T, d, 2) array in
    the storage's dtype: entry [t, j] is (row_m . vbar_f, row_mp . vbar_f)
    of node ``helpers[j]`` in sub-file t. Only the helpers' rows are read."""
    vbar_f = params.powers[failed - 1, : params.alpha0]
    return matmul_mod(storage[:, [h - 1 for h in helpers]], vbar_f, params.p)


def _syndrome_backend(mode: str):
    if mode not in MODES:
        raise ModeUnavailable(f"unknown mode {mode!r}; pick one of {MODES}")
    if mode == "statevector":
        return syndrome_statevector  # raises TooLarge, a ModeUnavailable, if too big
    return syndrome_linear if mode == "linear" else syndrome_symplectic


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
    check_storage(params, storage)
    u = None if u is None else check_u(params, u)  # before any block is built
    p = params.p
    helper_sets = np.array(hs)[params.family]  # (T, 2k-2): row t is sub-file t's
    keys = [tuple(s) for s in helper_sets.tolist()]
    # hits become the most recent, then cold subsets of the checked helpers join
    cold = [t for t, h in enumerate(keys) if _hit((params, failed, h)) is None]
    if cold:
        _admit(params, failed, helper_sets[cold])
    # T hits, each its cached code, kept while bench/test_bench.py pins
    # css.build_calls == T and tests/test_trace_targets.py their spans,
    # until ROADMAP item 3b
    blocks = np.array([build_repair_css(params, failed, h).block for h in keys])
    blocks.flags.writeable = False  # as every block is
    css = RepairCSS(failed, helper_sets, blocks if u is None else scale(params, blocks, u), p)
    group = StabGroup(x_type=css.hx, z_type=css.hz, p=p)  # one HX HZ^T check
    dots = helper_encode(params, storage, failed, hs)  # (T, d, 2)
    sent = dots[np.arange(len(keys))[:, None], params.family].swapaxes(1, 2)  # (T, 2, 2k-2)
    payloads = css.lams * sent % p
    # measured block order is (sZ, sX); the final swap puts row_m first
    regenerated = np.stack(backend(group, payloads[:, 0], payloads[:, 1]), axis=1)
    stored = storage[:, failed - 1]  # read only to check the result
    bad = np.flatnonzero((regenerated != stored).any(axis=(1, 2)))
    if len(bad):
        t = bad[0]
        raise RegenerationMismatch(
            f"sub-file {t}: node {failed} repaired to {regenerated[t].tolist()}, "
            f"stored {stored[t].tolist()}"
        )
    return RepairTranscript(failed, hs, mode, css, payloads, regenerated)


def bandwidth_report(params: SystemParams, transcript: RepairTranscript) -> dict:
    """Storage alpha = B/k, the transcript's qudit download, and the classical
    minimum-storage repair download (B/k) * d / (d - k + 1), exact."""
    return {
        "alpha": params.alpha,
        "dBetaQ": transcript.qudit_total,
        "BOverK": params.B // params.k,
        "classicalMSRBandwidth": classical_msr_bandwidth(params.k, params.d, params.B),
    }
