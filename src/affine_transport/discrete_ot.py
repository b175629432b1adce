"""Exact empirical 2-Wasserstein distance between equal-size sample sets.

With uniform weights on n points per side, the Kantorovich problem has a
permutation solution, so the exact distance reduces to a linear assignment
over the squared-distance cost matrix, which is filled in numpy. The
assignment solver (Crouse 2016) is scipy's compiled extension, loaded by
itself at the first solve, without the rest of scipy. It keeps duals only
for its columns and starts them at zero. Adding a constant to a row or a
column of the costs changes no assignment's rank, so each solve first
shifts the costs by column prices from a forward auction (Bertsekas 1988),
stopped once at most ceil(n/200) rows are unassigned, then by each row's
minimum, and hands the solver the transpose: its columns are the auction's
bidders, and their zero duals are each bidder's exact best response under
the prices, where the prices themselves are only eps-accurate. The solver,
still exact, finishes from near-optimal duals.
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


def cdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and the rows of y.

    Each entry is summed one column at a time, as scipy's ``cdist`` sums it
    for ``"sqeuclidean"``, so the bits are the same; a square that overflows
    is inf, without a warning. Eight rows of x are filled at a time against
    a contiguous copy of y's columns, through one reused (8, m) buffer.
    """
    out = np.zeros((len(x), len(y)))
    columns = np.ascontiguousarray(y.T)
    buf = np.empty((8, len(y)))
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

    Solves the assignment problem on the squared Euclidean cost matrix,
    shifted by the auction's column prices and then by each row's minimum,
    and returns the square root of the mean squared distance over the
    optimal matching, summed from the points. The solver runs on the
    shifted matrix transposed in place, so that each of its columns has
    minimum 0, which its zero starting duals match exactly. The shifts
    change no assignment's rank, so the matching is optimal for the
    unshifted costs, up to ties and the shifts' rounding. Deterministic for
    fixed inputs.

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
    cost = cdist(xs, ys)
    # squared distances are never negative, so the max is finite exactly when
    # every entry is; unlike isfinite(cost) it needs no n-by-n mask
    top = cost.max()
    if not np.isfinite(top):
        raise NonFinite("squared distances between the sample sets overflow")
    # the prices stay under the largest cost plus one step, so the shifted
    # costs stay under about twice it; scaling by a power of two changes no
    # entry above the subnormal range
    if top > np.finfo(np.float64).max / 4:
        cost *= 0.25
    cost += _auction_prices(cost)
    cost -= cost.min(axis=1)[:, None]
    _transpose(cost)
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


def _transpose(a: np.ndarray) -> None:
    """Transpose the square matrix a in place, swapping (64, 64) tiles
    through one reused tile buffer, so no second n-by-n array is made."""
    n, block = a.shape[0], 64
    buf = np.empty((block, block))
    for i in range(0, n, block):
        for j in range(i, n, block):
            upper, lower = a[i : i + block, j : j + block], a[j : j + block, i : i + block]
            held = buf[: upper.shape[0], : upper.shape[1]]
            np.copyto(held, lower.T)
            if j > i:
                lower[...] = upper.T
            upper[...] = held


def _auction_prices(cost: np.ndarray) -> np.ndarray:
    """Column prices from one early-stopped Jacobi phase of the forward auction.

    Each round, every unassigned row bids for the column that minimises
    ``cost[i, j] + price[j]``: that column's price, plus the gap between the
    row's best and second-best values, plus a step eps. Each column takes
    its highest bid (ties to the lowest row) and evicts its previous holder.
    eps is 0.003 of the median of every ceil(n/64)-th entry of every
    ceil(n/64)-th row. The phase stops once at most ceil(n/200) rows are
    unassigned, after a round whose bids went to fewer than 1/16 as many
    columns as there were bidders, or, as a time backstop, once it has read
    32 matrices' worth of rows.

    At least two columns are unbid, at price 0, in every round, so no
    price exceeds the largest cost plus eps, and at n = 1 no round runs.
    Rows are read ceil(n/64) at a time into one buffer, about 1/64 of the
    matrix. The prices only speed the exact solve; they never decide it.
    """
    n = cost.shape[0]
    block = -(-n // 64)
    # a zero median means most sampled pairs coincide; a zero matrix means
    # every assignment is optimal, and any positive step will do
    eps = 0.003 * (np.median(cost[::block, ::block]) or cost.max() or 1.0)
    price = np.zeros(n)
    holder = np.full(n, -1)  # the row holding each column
    held = np.full(n, -1)  # the column each row holds
    buf = np.empty((block, n))
    free = np.arange(n)
    read = 0
    while free.size > -(-n // 200) and read < 32 * n:
        read += free.size
        best = np.empty(free.size, dtype=np.intp)
        bid = np.empty(free.size)
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
