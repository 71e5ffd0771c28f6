"""The dense p^N state-vector reference for ``qregen.stabilizer``.

``reference_codespace`` applies the codespace projector, p shift tables per
X generator summed in t order, to a computational basis state over all p^N
amplitudes. Basis states are tried in index order from ``start_basis``
until one projects to a nonzero vector, so a test can also build codespace
states other than the projector image of |0>.
"""

import numpy as np


class DenseSpace:
    """Index bookkeeping for N qudits of dimension p, qudit 0 most significant."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.size = p**n
        # digits[i] = base-p expansion of i
        self.digits = np.indices((p,) * n).reshape(n, -1).T
        self.radix = p ** np.arange(n - 1, -1, -1)
        self.omega_pow = np.exp(2j * np.pi * np.arange(p) / p)

    def shift_indices(self, g) -> np.ndarray:
        """Flat index of j + g (componentwise mod p) for every j."""
        return ((self.digits + np.asarray(g)) % self.p) @ self.radix

    def phase_exponents(self, h) -> np.ndarray:
        """h . j mod p for every basis index j."""
        return (self.digits @ np.asarray(h)) % self.p

    def apply_pauli(self, state: np.ndarray, x, z) -> np.ndarray:
        """X(x)Z(z)|j> = w^(z.j) |j + x>."""
        out = np.empty_like(state)
        out[self.shift_indices(x)] = self.omega_pow[self.phase_exponents(z)] * state
        return out

    def dense(self, support: np.ndarray, amps: np.ndarray) -> np.ndarray:
        """The p^N vector of a (support, amplitudes) pair."""
        state = np.zeros(self.size, dtype=complex)
        state[support @ self.radix] = amps
        return state

    def support_form(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero entries of a p^N vector as (digit rows, amplitudes)."""
        nonzero = np.flatnonzero(state)
        return self.digits[nonzero], state[nonzero]


def reference_codespace(group, start_basis=0):
    """(normalized projector image, basis index) of the first basis state
    from ``start_basis`` on that survives the projector."""
    p = group.p
    space = DenseSpace(p, group.n)
    z_masks = [space.phase_exponents(h) == 0 for h in group.z_type.to_rows()]
    x_shifts = [
        [space.shift_indices([t * x for x in g]) for t in range(p)]
        for g in group.x_type.to_rows()
    ]
    for basis in range(start_basis, space.size):
        state = np.zeros(space.size, dtype=complex)
        state[basis] = 1.0
        for mask in z_masks:
            state = state * mask
        for shifts in x_shifts:
            acc = np.zeros_like(state)
            for idx in shifts:
                acc[idx] += state
            state = acc / p
        norm = np.linalg.norm(state)
        if norm > 1e-9:
            return state / norm, basis
    raise AssertionError("no basis state survives")


def reference_exponent(space, state, a, b):
    """Eigenvalue exponent read off the fully moved state X(a)Z(b)|state>."""
    moved = space.apply_pauli(state, a, b)
    i0 = int(np.argmax(np.abs(state)))
    ratio = moved[i0] / state[i0]
    s = int(round(space.p * (np.angle(ratio) % (2 * np.pi)) / (2 * np.pi))) % space.p
    return s, abs(ratio - space.omega_pow[s])
