"""Helpers shared by the test modules."""
import importlib.util
import types
from pathlib import Path

from cylcert.certified import bounds_for_target
from cylcert.problem import SphereBlock

ROOT = Path(__file__).resolve().parent.parent


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


def largest_family_member() -> dict:
    """The problem object of the bench family's n = 2 Polya member polya2-K56."""
    path = ROOT / "perfbench" / "family.py"
    family = types.ModuleType("perfbench_family")
    family.__file__ = str(path)
    # executed from its source text, so nothing is written beside it
    exec(compile(path.read_text(), str(path), "exec"), family.__dict__)
    return family.largest_member()


def snapshot_tool() -> types.ModuleType:
    """``tools/snapshot.py``, imported from its file."""
    path = ROOT / "tools" / "snapshot.py"
    spec = importlib.util.spec_from_file_location("snapshot_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
