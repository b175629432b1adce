"""Exact empirical 2-Wasserstein distance between equal-size sample sets.

With uniform weights on n points per side, the Kantorovich problem has a
permutation solution, so the exact distance reduces to a linear assignment
over the squared-distance cost matrix, which is filled in numpy. The
assignment solver (Crouse 2016) is scipy's compiled extension, loaded by
itself at the first solve, without the rest of scipy. It keeps duals only
for its columns and starts them at zero. Adding a constant to a row or a
column of the costs changes no assignment's rank, so each solve warms the
solver with column prices from a forward auction (Bertsekas 1988): two
eps-scaling phases, each stopped once at most ceil(n/200) rows are
unassigned, on a float32 matrix of the points scaled by a power of two,
freed before the float64 matrix is filled. That matrix is filled already
transposed, targets by sources, and shifted by the prices on its rows and
then by each column's minimum: the solver's columns are the auction's
bidders, and their zero duals are each bidder's exact best response under
the prices, where the prices themselves are only eps-accurate. The solver,
still exact, finishes from near-optimal duals. Columns on which every point
of both sets agrees add +0.0 to every cost, so the solve skips them.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from .errors import NonFinite, PairingMismatch, TooLarge
from .linalg import sample_pair

__all__ = ["empirical_w2", "MAX_EXACT"]

MAX_EXACT = 4096
# the auction's eps in its two phases, as fractions of the median of every
# ceil(n/64)-th entry of every ceil(n/64)-th row of its cost matrix
_EPS_STEPS = (0.006, 0.0015)


def cdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and the rows of y.

    Each entry is summed one column at a time, as scipy's ``cdist`` sums it
    for ``"sqeuclidean"``, so the bits are the same; a square that overflows
    is inf, without a warning.
    """
    return _fill(x, y)


def _fill(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``cdist`` in the dtype of x, which y shares. Eight rows of x are
    filled at a time against a contiguous copy of y's columns, through one
    reused (8, m) buffer. The auction's float32 fill calls it directly, so
    the module-level ``cdist`` is the float64 fill alone."""
    out = np.zeros((len(x), len(y)), dtype=x.dtype)
    columns = np.ascontiguousarray(y.T)
    buf = np.empty((8, len(y)), dtype=x.dtype)
    with np.errstate(over="ignore"):
        for start in range(0, len(x), 8):
            block = out[start : start + 8]
            diff = buf[: len(block)]
            for k, column in enumerate(columns):
                np.subtract(x[start : start + 8, k, None], column, out=diff)
                diff *= diff
                block += diff
    return out


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal ``(rows, cols)`` of a square cost matrix, from scipy's solver."""
    return _lsap()(cost)


# the first solve loads scipy's assignment extension and nothing else of
# scipy: importing scipy.optimize costs a process about 0.6 s and 49 MB,
# while a solve at a few hundred points takes milliseconds
@functools.cache
def _lsap():
    """scipy's compiled ``linear_sum_assignment``, loaded from its extension
    file and registered as ``scipy.optimize._lsap``; finding scipy's folder
    imports no scipy module. Raises ImportError if scipy is not installed or
    its optimize folder has no such file."""
    name = "scipy.optimize._lsap"
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("the exact solve needs scipy, which is not installed")
    folder = Path(scipy.submodule_search_locations[0]) / "optimize"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_lsap{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"scipy's assignment extension _lsap is not in {folder}")
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    sys.modules[name] = module
    loader.exec_module(module)
    return module.linear_sum_assignment


def empirical_w2(x: np.ndarray, y: np.ndarray) -> float:
    """Exact W2 between two equal-size point sets with uniform weights.

    Solves the assignment problem on the squared Euclidean cost matrix and
    returns the square root of the mean squared distance over the optimal
    matching, summed from the points. Five steps, with one n-by-n matrix
    live at a time:

    1. Columns on which every point of both sets holds one value are
       skipped: each adds +0.0 to every cost, so no cost changes its bits.
    2. The auction prices the targets in two eps-scaling phases on a
       float32 matrix of the points, moved by their minima and scaled by
       2**-e so that their largest spread lies in [0.5, 1); no float32
       cost overflows, and none underflows wholesale. The float32 matrix
       is then freed.
    3. The float64 matrix is filled already transposed, targets by sources,
       shifted on its rows by the prices times 2**(2e) and then by each
       column's minimum, so that each solver column has minimum 0, which
       its zero starting duals match exactly.
    4. The solver finds the optimal matching; the shifts change no
       assignment's rank, so it is optimal for the unshifted costs, up to
       ties and the shifts' rounding.
    5. The total is re-summed from the points.

    Deterministic for fixed inputs.

    Raises PairingMismatch if the sets differ in count or are empty,
    DimensionMismatch if they differ in width, TooLarge above 4096 points
    per side, and NonFinite if a squared distance overflows.
    """
    xs, ys = sample_pair(x, y)
    n = xs.shape[0]
    if n == 0:
        raise PairingMismatch("cannot transport between empty sample sets")
    if n > MAX_EXACT:
        raise TooLarge(f"exact assignment is capped at {MAX_EXACT} points, got {n}")
    kept = (xs != xs[0]).any(axis=0) | (ys != xs[0]).any(axis=0)
    xs, ys = xs[:, kept], ys[:, kept]
    # halved, the spreads cannot overflow, and the points are scaled before
    # they are moved, so neither can their differences; a kept column's
    # spread is not 0
    lo = np.minimum(xs.min(axis=0), ys.min(axis=0))
    hi = np.maximum(xs.max(axis=0), ys.max(axis=0))
    e = int(np.frexp((0.5 * hi - 0.5 * lo).max(initial=0.0))[1]) + 1
    small = _fill(*((np.ldexp(a, -e) - np.ldexp(lo, -e)).astype(np.float32) for a in (xs, ys)))
    block = -(-n // 64)
    # a zero median means most sampled pairs coincide; a zero matrix means
    # every assignment is optimal, and any positive step will do
    unit = np.median(small[::block, ::block]) or small.max() or 1.0
    price = np.zeros(n, dtype=np.float32)
    for step in _EPS_STEPS:
        price = _auction_prices(small, step * unit, price)
    del small
    cost = cdist(ys, xs)
    # squared distances are never negative, so the max is finite exactly when
    # every entry is; unlike isfinite(cost) it needs no n-by-n mask
    top = cost.max()
    if not np.isfinite(top):
        raise NonFinite("squared distances between the sample sets overflow")
    # the prices stay under twice the largest cost plus both steps (see
    # _auction_prices), so the shifted costs stay under about three times
    # it; scaling by a power of two changes no entry above the subnormal range
    exponent = 2 * e
    if top > np.finfo(np.float64).max / 4:
        cost *= 0.25
        exponent -= 2
    cost += np.ldexp(price.astype(np.float64), exponent)[:, None]
    cost -= cost.min(axis=0)
    # the solver's rows are the targets; cols[i] is source i's target
    targets, sources = linear_sum_assignment(cost)
    cols = np.empty(n, dtype=np.intp)
    cols[sources] = targets
    # the costs are shifted, so the total comes from the points, each pair
    # summed one column at a time as cdist sums it, to the same bits
    sq = np.zeros(n)
    for k in range(xs.shape[1]):
        diff = xs[:, k] - ys[cols, k]
        sq += diff * diff
    total = float(sq.sum()) / n
    return float(np.sqrt(max(total, 0.0)))


def _auction_prices(cost: np.ndarray, eps: float, price: np.ndarray) -> np.ndarray:
    """Column prices from one early-stopped Jacobi phase of the forward
    auction with step eps, started from ``price`` with every row unassigned,
    all in the dtype of ``cost``.

    Each round, every unassigned row bids for the column that minimises
    ``cost[i, j] + price[j]``: that column's price, plus the gap between the
    row's best and second-best values, plus eps. Each column takes its
    highest bid (ties to the lowest row) and evicts its previous holder.
    The phase stops once at most ceil(n/200) rows are unassigned, after a
    round whose bids went to fewer than 1/16 as many columns as there were
    bidders, or, as a time backstop, once it has read 32 matrices' worth of
    rows.

    At least two columns are unbid, at their starting price, in every
    round, so no price exceeds ``cost.max() + price.max() + eps`` (from a
    zero start, ``cost.max() + eps``), and at n = 1 no round runs. Rows are
    read ceil(n/64) at a time into one buffer, about 1/64 of the matrix.
    The prices only speed the exact solve; they never decide it.
    """
    n = cost.shape[0]
    block = -(-n // 64)
    eps = cost.dtype.type(eps)
    price = price.astype(cost.dtype)
    holder = np.full(n, -1)  # the row holding each column
    held = np.full(n, -1)  # the column each row holds
    buf = np.empty((block, n), dtype=cost.dtype)
    free = np.arange(n)
    read = 0
    while free.size > -(-n // 200) and read < 32 * n:
        read += free.size
        best = np.empty(free.size, dtype=np.intp)
        bid = np.empty(free.size, dtype=cost.dtype)
        for start in range(0, free.size, block):
            rows = free[start : start + block]
            at = np.arange(rows.size)
            values = buf[: rows.size]
            np.take(cost, rows, axis=0, out=values, mode="clip")
            values += price
            j = values.argmin(axis=1)
            first = values[at, j]
            values[at, j] = np.inf
            bid[start : start + rows.size] = price[j] + (values.min(axis=1) - first) + eps
            best[start : start + rows.size] = j
        # a stable sort keeps the rows in order among equal bids
        order = np.argsort(-bid, kind="stable")
        cols, firsts = np.unique(best[order], return_index=True)
        won = order[firsts]
        evicted = holder[cols]
        held[evicted[evicted >= 0]] = -1
        holder[cols] = free[won]
        held[free[won]] = cols
        price[cols] = bid[won]
        free = np.flatnonzero(held < 0)
        # tied rows all bid for the same column, which takes one of them a
        # round; the solver resolves such ties faster than more rounds would
        if 16 * cols.size < bid.size:
            break
    return price
