"""Draws without replacement from the package's SplitMix64 stream."""


def sample(rng, seq, count):
    """count distinct elements of seq, drawn without replacement."""
    pool = list(seq)
    if count > len(pool):
        raise ValueError("not enough elements to sample")
    return [pool.pop(rng.below(len(pool))) for _ in range(count)]
