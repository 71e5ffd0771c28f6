"""Known-good values for the six-node reference instance (6, 3, 4, p=13).

This instance is small enough to check by hand and fixes every artifact of
the construction: the encoding Vandermonde, the lam values, the helper
block for failed node 1 with helpers {2, 4, 5, 6}, both precoding
diagonals, and both parity-check matrices. The replay runs the whole
pipeline and compares each artifact entry for entry, then repairs node 1
from a seeded random message and checks bit-exact regeneration.
"""

from __future__ import annotations

from .css import build_repair_css
from .matrix import vandermonde
from .pmcode import encode_file, make_params, random_symbols
from .repair import run_repair
from .rng import SplitMix64

GOLDEN = {
    "V": [
        [1, 1, 1, 1],
        [1, 2, 4, 8],
        [1, 3, 9, 1],
        [1, 4, 3, 12],
        [1, 5, 12, 8],
        [1, 6, 10, 8],
    ],
    "lambda": [1, 4, 9, 3, 12, 10],
    "V_helpers": [
        [1, 2, 4, 8],
        [1, 4, 3, 12],
        [1, 5, 12, 8],
        [1, 6, 10, 8],
    ],
    "lambda_tilde": [9, 7, 6, 3],
    "lambda_tilde_prime": [11, 5, 11, 2],
    "HX": [[11, 10, 3, 9], [4, 2, 1, 0]],
    "HZ": [[12, 9, 12, 6], [2, 7, 4, 0]],
}

FAILED_NODE = 1
HELPERS = (2, 4, 5, 6)


def replay(seed: int = 1) -> list[dict]:
    """Recompute every reference artifact and diff it against the table.

    Returns one record per check: {"name", "pass", "expected", "got"}.
    The final record exercises the full repair path on a seeded message.
    """
    params = make_params(6, 3, 4, 13)
    repair_css = build_repair_css(params, FAILED_NODE, HELPERS)

    computed = {
        "V": vandermonde(params.field, params.eval_points, 4).to_rows(),
        "lambda": list(params.lam),
        "V_helpers": vandermonde(
            params.field, [params.eval_points[s - 1] for s in HELPERS], 4
        ).to_rows(),
        "lambda_tilde": list(repair_css.lam1),
        "lambda_tilde_prime": list(repair_css.lam2),
        "HX": repair_css.hx.tolist(),
        "HZ": repair_css.hz.tolist(),
    }

    report = []
    for name, got in computed.items():
        expected = GOLDEN[name]
        report.append(
            {"name": name, "pass": got == expected, "expected": expected, "got": got}
        )

    rng = SplitMix64(seed)
    symbols = random_symbols(params, rng)
    storage = encode_file(params, symbols)
    transcript = run_repair(params, storage, FAILED_NODE, HELPERS, mode="linear")
    expected = storage[0, FAILED_NODE - 1].tolist()
    got = transcript.regenerated[0].tolist()
    report.append(
        {"name": "exact_regeneration", "pass": got == expected, "expected": expected,
         "got": got}
    )
    return report
