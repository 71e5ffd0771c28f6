"""Independent GF(p) reference that checks every output of the benchmark.

It shares no code with ``qregen``: the canonical packing and the node rows
v_i^T M are recomputed here from the generated message, in plain Python.
Evaluation points are v_i = i, which is what the program picks whenever the
lam values v_i^(k-1) are pairwise distinct; every workload is chosen so that
they are, and the checker rejects a storage file that says otherwise.
"""

from __future__ import annotations

from math import comb


class Code:
    """Sizes of an (n, k, d, p) product-matrix code."""

    def __init__(self, n: int, k: int, d: int, p: int):
        self.n, self.k, self.d, self.p = n, k, d, p
        self.a0 = k - 1
        self.subfiles = comb(d, 2 * k - 2)
        self.sub_symbols = 2 * self.a0 * (self.a0 + 1)
        self.B = self.sub_symbols * self.subfiles
        lam = {pow(v, self.a0, p) for v in range(1, n + 1)}
        if len(lam) != n:
            raise ValueError(f"v_i = i gives repeated lam values for {(n, k, d, p)}")

    def node_vector(self, node_id: int) -> list[int]:
        """v_i = [vbar_i, lam_i * vbar_i] with vbar_i = (1, v, ..., v^(a0-1))."""
        p = self.p
        vbar = [pow(node_id, t, p) for t in range(self.a0)]
        lam = pow(node_id, self.a0, p)
        return vbar + [lam * x % p for x in vbar]

    def _symmetric(self, values: list[int]) -> list[list[int]]:
        a0 = self.a0
        m = [[0] * a0 for _ in range(a0)]
        it = iter(values)
        for i in range(a0):
            for j in range(i, a0):
                m[i][j] = m[j][i] = next(it) % self.p
        return m

    def stored_rows(self, message: list[int]) -> list[list[tuple[list[int], list[int]]]]:
        """[subfile][node_id - 1] -> (row_m, row_mp), from the canonical packing.

        A sub-file's symbols fill the upper triangles of S1, S2, S1', S2' in
        that order, row-major; M = [S1; S2] and M' = [S1'; S2'].
        """
        p, a0 = self.p, self.a0
        tri = a0 * (a0 + 1) // 2
        vecs = [self.node_vector(i) for i in range(1, self.n + 1)]
        out = []
        for t in range(self.subfiles):
            sym = message[t * self.sub_symbols : (t + 1) * self.sub_symbols]
            s1, s2, s1p, s2p = (self._symmetric(sym[j * tri : (j + 1) * tri]) for j in range(4))
            m, mp = s1 + s2, s1p + s2p
            out.append([
                (
                    [sum(v[r] * m[r][c] for r in range(2 * a0)) % p for c in range(a0)],
                    [sum(v[r] * mp[r][c] for r in range(2 * a0)) % p for c in range(a0)],
                )
                for v in vecs
            ])
        return out


def check_storage(code: Code, doc: dict, rows) -> str | None:
    """None when an encode output file holds exactly ``rows``; else the first fault."""
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    params = doc.get("params")
    want = {"n": code.n, "k": code.k, "d": code.d, "p": code.p,
            "evalPoints": list(range(1, code.n + 1))}
    if params != want:
        return f"params {params} != {want}"
    subs = doc.get("subfiles")
    if not isinstance(subs, list) or len(subs) != code.subfiles:
        return "wrong sub-file count"
    for t, sub in enumerate(subs):
        if not isinstance(sub, list) or len(sub) != code.n:
            return f"sub-file {t} does not hold {code.n} nodes"
        for i, node in enumerate(sub):
            if node != {"nodeId": i + 1, "rowM": rows[t][i][0], "rowMp": rows[t][i][1]}:
                return f"sub-file {t} node {i + 1} differs"
    return None


def check_retrieve(message: list[int], out) -> str | None:
    return None if out == message else "retrieved symbols differ from the message"


def check_repair(code: Code, rows, failed: int, helpers: list[int], mode: str,
                 doc: dict) -> str | None:
    """None when a repair transcript regenerates the failed node with B/k qudits."""
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    if doc.get("failedNode") != failed or doc.get("helpers") != sorted(helpers):
        return "transcript names another repair"
    if doc.get("mode") != mode:
        return f"mode {doc.get('mode')} != {mode}"
    if doc.get("quditTotal") != code.B // code.k:
        return f"quditTotal {doc.get('quditTotal')} != B/k = {code.B // code.k}"
    regen = doc.get("regenerated")
    parts = [regen] if code.subfiles == 1 else regen
    if not isinstance(parts, list) or len(parts) != code.subfiles:
        return "wrong number of regenerated sub-files"
    for t, part in enumerate(parts):
        row_m, row_mp = rows[t][failed - 1]
        if part != {"nodeId": failed, "rowM": row_m, "rowMp": row_mp}:
            return f"sub-file {t}: regenerated rows differ from the stored rows"
    return None
