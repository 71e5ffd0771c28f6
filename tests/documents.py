"""The CLI's storage and transcript documents built as dicts, the reference
that ``cli._json_text`` must write byte for byte as ``json.dumps(indent=2)``."""


def storage_doc(params, storage) -> dict:
    return {
        "params": {
            "n": params.n,
            "k": params.k,
            "d": params.d,
            "p": params.p,
            "evalPoints": list(params.eval_points),
        },
        "subfiles": [
            [{"nodeId": i, "rowM": m, "rowMp": mp} for i, (m, mp) in enumerate(sub, 1)]
            for sub in storage.tolist()
        ],
    }


def css_doc(code) -> dict:
    """A code's six fields as lists; for a stack, each a list over its codes."""
    return {
        "HX": code.hx.tolist(),
        "HZ": code.hz.tolist(),
        "Lam1": code.lam1.tolist(),
        "Lam2": code.lam2.tolist(),
        "u": code.u.tolist(),
        "uPrime": code.u_prime.tolist(),
    }


def transcript_doc(t) -> dict:
    """The transcript; with one sub-file its four per-sub-file fields hold
    that sub-file's entry itself, not a one-entry list."""
    rows = t.regenerated.tolist()
    stack = css_doc(t.css)
    parts = {
        "css": [dict(zip(stack, fields)) for fields in zip(*stack.values())],
        "payloads": [
            [{"helperId": h, "yX": y_x, "yZ": y_z, "quditsSent": 1}
             for h, y_x, y_z in zip(helpers, *sent)]
            for helpers, sent in zip(t.css.helpers.tolist(), t.payloads.tolist())
        ],
        "syndrome": [{"sX": m, "sZ": mp} for m, mp in rows],
        "regenerated": [
            {"nodeId": t.failed_node, "rowM": m, "rowMp": mp} for m, mp in rows
        ],
    }
    if len(rows) == 1:
        parts = {key: value[0] for key, value in parts.items()}
    return {
        "failedNode": t.failed_node,
        "helpers": list(t.helpers),
        "mode": t.mode,
        **parts,
        "quditTotal": t.qudit_total,
    }
