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
    return {
        "HX": code.hx.tolist(),
        "HZ": code.hz.tolist(),
        "Lam1": list(code.lam1),
        "Lam2": list(code.lam2),
        "u": list(code.u),
        "uPrime": list(code.u_prime),
    }


def transcript_doc(t) -> dict:
    """The transcript; with one sub-file its four per-sub-file fields hold
    that sub-file's entry itself, not a one-entry list."""
    rows = t.regenerated.tolist()
    parts = {
        "css": [css_doc(c) for c in t.css],
        "payloads": [
            [{"helperId": h, "yX": y_x, "yZ": y_z, "quditsSent": 1}
             for h, y_x, y_z in zip(c.helpers, *sent)]
            for c, sent in zip(t.css, t.payloads.tolist())
        ],
        "syndrome": [{"sX": m, "sZ": mp} for m, mp in rows],
        "regenerated": [
            {"nodeId": t.failed_node, "rowM": m, "rowMp": mp} for m, mp in rows
        ],
    }
    if len(t.css) == 1:
        parts = {key: value[0] for key, value in parts.items()}
    return {
        "failedNode": t.failed_node,
        "helpers": list(t.helpers),
        "mode": t.mode,
        **parts,
        "quditTotal": t.qudit_total,
    }
