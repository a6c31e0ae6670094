"""Helpers shared by the test modules."""


def is_block_homogeneous(p, block: str, *extra: str) -> bool:
    """True when every term of ``p`` has the same combined degree over the named blocks."""
    idx = p.shape.block_indices(block)
    for name in extra:
        idx = idx + p.shape.block_indices(name)
    return len({sum(e[i] for i in idx) for e in p.terms}) <= 1
