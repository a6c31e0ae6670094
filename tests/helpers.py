"""Helpers shared by the test modules."""
from cylcert.certified import bounds_for_target
from cylcert.problem import SphereBlock


def is_block_homogeneous(p, block: str, *extra: str) -> bool:
    """True when every term of ``p`` has the same combined degree over the named blocks."""
    idx = p.shape.block_indices(block)
    for name in extra:
        idx = idx + p.shape.block_indices(name)
    return len({sum(e[i] for i in idx) for e in p.terms}) <= 1


def sphere_constants(f, m: int, r: int, *, split: bool = False):
    """:func:`bounds_for_target` for ``f`` over its sphere blocks.

    The joint block has dimension r+1 and degree m; split, a circle of
    degree m and a block of dimension r+1 and degree 2.  Only the sizes
    of the blocks enter the constants.
    """
    caps = [(2, m), (r + 1, 2)] if split else [(r + 1, m)]
    blocks = [SphereBlock(tuple(range(dim)), degree) for dim, degree in caps]
    return bounds_for_target(f, f.shape.n, blocks)
