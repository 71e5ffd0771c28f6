"""Entanglement-assisted exact-repair regenerating codes at desk scale.

Encode a file across n nodes with a product-matrix code over GF(p),
retrieve it from any k nodes, and regenerate a failed node exactly from
d helpers by classically simulating CSS stabilizer syndrome extraction.
At the simultaneous optimum both the per-node storage and the repair
download equal B/k.
"""
