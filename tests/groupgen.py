"""Shared generators for random stabilizer groups and Pauli errors."""

from qregen.gf import GF
from qregen.matrix import Mat
from qregen.stabilizer import StabGroup

from linalg import rank, right_kernel


def random_group(p, n_qudits, r_x, rng):
    """A commuting pair: HZ rows drawn from the right kernel of HX."""
    field = GF(p)
    while True:
        hx = Mat(field, r_x, n_qudits, [rng.below(p) for _ in range(r_x * n_qudits)])
        kernel = right_kernel(hx)
        if rank(hx) == r_x and kernel:
            break
    rows = []
    for _ in range(len(kernel)):
        coeffs = [rng.below(p) for _ in kernel]
        rows.append(
            [sum(c * v[j] for c, v in zip(coeffs, kernel)) % p
             for j in range(n_qudits)]
        )
    hz = Mat.from_rows(field, rows)
    return StabGroup(x_type=hx.data, z_type=hz.data, p=p)


def random_error(p, n_qudits, rng):
    """Exponent vectors (x, z) of an error X(x)Z(z), entries in [0, p)."""
    return (
        [rng.below(p) for _ in range(n_qudits)],
        [rng.below(p) for _ in range(n_qudits)],
    )
