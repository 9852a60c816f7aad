"""Every resource limit, and the one check that refuses a need over one.

Limits are checked before the work or memory they bound is allocated, and a
refusal raises ResourceLimitError (exit 4).  Modules read ``budget.NAME`` at
call time, so patching one attribute moves every check that reads it.
Memory is charged in bytes: 8 w^2 for a dense float block w wide, |c|^2 / 8
for the meet masks of c, and |c| / 8 per extension of the tuple fold.  Each
rule prints the count MEMORY_BYTES allows: 4096, 32768 and 2^30 / |c|.
"""

from math import isqrt

from .errors import ResourceLimitError

MEMORY_BYTES = 2 ** 27
# simplices of a complex, a refinement or an order-2 basis, tuple-fold
# extensions, and the vertex pairs of a random complex, each a possible edge;
# at the limit a complex takes about 100 MB, a refinement 210 MB
SIMPLEX_LIMIT = 2 ** 18
CONNECTION_TUPLE_LIMIT = 2000  # tuples of a basis of order 3 or more
# entry pairs of one product, or of the vertex spread's last slot; a product
# forms them a 64th of the limit at a time, at some 100 bytes a pair
PRODUCT_PAIR_LIMIT = 2 ** 24
MAX_INDEX_FIELD_WORK = 10 ** 8  # orderings times (vertices + link entries)
MAX_TRAJECTORY_BYTES = 2 ** 28  # the flow's reported states


def require(need, limit, what: str):
    """ResourceLimitError "{what}, limit is {limit}" unless need <= limit."""
    if not need <= limit:
        raise ResourceLimitError(f"{what}, limit is {limit}")


def require_dense(k: int, width: int):
    require(width, isqrt(MEMORY_BYTES // 8),
            f"degree-{k} block is {width} wide for a dense eigensolve")


def require_pairs(pairs: int):
    require(pairs, PRODUCT_PAIR_LIMIT, f"product needs {pairs} entry pairs")


def meet_mask_simplices() -> int:
    return isqrt(8 * MEMORY_BYTES)


def fold_extensions(simplices: int) -> int:
    return min(SIMPLEX_LIMIT, 8 * MEMORY_BYTES // max(simplices, 1))
