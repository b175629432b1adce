"""Peak memory of the bulk path: reading, writing and fitting a dataset, and
estimating its moments, each hold a small multiple of its rows, never a copy
of its text or of its centred rows. The learning curve's peak does not grow
with its repeat count, and is a small multiple of its holdout's rows. An
exact W2 solve holds its cost matrix and little more.

tracemalloc sees numpy's buffers as well as Python objects. The peak counts
what the call returns, so reading a dataset costs at least its rows once.
It sees only this process: where saving and reading a pair fork a child
(``data._FORK_MIN_ROWS``), the bounds hold for the parent, and the child's
own memory is not counted.
"""

import tracemalloc

import numpy as np
import pytest

from affine_transport import (
    at_map,
    data,
    dataset_fingerprint,
    empirical_w2,
    estimate_moments,
    fit,
    load_csv,
    load_pair,
    save_dataset,
    subset,
)
from affine_transport.cli import learning_curve
from affine_transport.linalg import sample_matrix
from helpers import linear_pair, puck_pair

N = 20_000
MAX_ROWS_MULTIPLE = 3.0
# reading keeps the parsed array itself, so only the chunk loadtxt is parsing
# and that chunk's finite mask come on top of it
MAX_LOAD_ROWS_MULTIPLE = 1.2
# fit, estimate_moments and at_map read the rows in place and sum their
# moments over 64 KiB chunks; they peak at 0.11-0.13x of these rows
MAX_MOMENTS_ROWS_MULTIPLE = 0.15
# the sample-matrix gate reads the rows in place and tests them for NaN and
# infinity by their min and max, with no mask of the rows
MAX_GATE_ROWS_MULTIPLE = 0.01
# bytes the learning curve's peak may grow by from 20 to 2000 repeats
MAX_CURVE_GROWTH = 1 << 20
# the curve scores a holdout this large one map at a time, with the errors
# squared in place; it peaks at 1.7x of the held-out rows
MAX_CURVE_HOLDOUT_MULTIPLE = 2.5
# the fingerprint hashes the rows in place
MAX_FINGERPRINT_ROWS_MULTIPLE = 0.1
# the solve shifts its cost matrix in place; the auction that prices it runs
# first, on a float32 matrix of half the size that is freed before the
# float64 one is filled, and reads it through a buffer of about 1/64 of it
MAX_SOLVE_COST_MULTIPLE = 1.05


@pytest.fixture(scope="module")
def saved_pair(tmp_path_factory):
    source, target = linear_pair(3, N, noise=0.01, target_scales=(2.0, 0.5, 1.3))
    path = tmp_path_factory.mktemp("bulk") / "source.csv"
    save_dataset(source, path, paired=(target, path.with_name("target.csv")))
    return source, target, path


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "step",
    ["load_csv", "save_dataset", "save_pair", "fit", "estimate_moments", "at_map",
     "sample_matrix"],
)
def test_peak_memory_is_a_small_multiple_of_the_rows(saved_pair, tmp_path, step):
    source, target, path = saved_pair
    calls = {
        "load_csv": (load_csv, path),
        "save_dataset": (save_dataset, source, tmp_path / "copy.csv"),
        "save_pair": (save_dataset, source, tmp_path / "copy.csv", (target, tmp_path / "other.csv")),
        "fit": (fit, source, target),
        "estimate_moments": (estimate_moments, source.rows),
        "at_map": (at_map, source.rows, target.rows),
        "sample_matrix": (sample_matrix, source.rows, "rows"),
    }
    bound = {
        "load_csv": MAX_LOAD_ROWS_MULTIPLE,
        "sample_matrix": MAX_GATE_ROWS_MULTIPLE,
        **dict.fromkeys(("fit", "estimate_moments", "at_map"), MAX_MOMENTS_ROWS_MULTIPLE),
    }.get(step, MAX_ROWS_MULTIPLE)
    peak = _peak_bytes(*calls[step])
    assert peak <= bound * source.rows.nbytes, (
        f"{step} peaked at {peak / source.rows.nbytes:.2f}x the rows' {source.rows.nbytes} bytes"
    )


@pytest.mark.parametrize("way", ["one-process", "fork"])
@pytest.mark.parametrize("step", ["load_pair", "save_dataset", "save_pair"])
def test_bulk_io_peak_holds_in_this_process_on_both_paths(saved_pair, tmp_path, monkeypatch,
                                                          step, way):
    source, target, path = saved_pair
    monkeypatch.setattr(data, "_FORK_MIN_ROWS", 0 if way == "fork" else 1 << 62)
    calls = {
        "load_pair": (load_pair, path, path.with_name("target.csv")),
        "save_dataset": (save_dataset, source, tmp_path / "copy.csv"),
        "save_pair": (save_dataset, source, tmp_path / "copy.csv", (target, tmp_path / "other.csv")),
    }
    # reading keeps both files' rows; writing is bounded by one side's rows, as above
    if step == "load_pair":
        limit = MAX_LOAD_ROWS_MULTIPLE * (source.rows.nbytes + target.rows.nbytes)
    else:
        limit = MAX_ROWS_MULTIPLE * source.rows.nbytes
    peak = _peak_bytes(*calls[step])
    assert peak <= limit, f"{step} on the {way} path peaked at {peak} bytes, above {limit:.0f}"


def test_fingerprint_copies_no_rows(saved_pair):
    source, _, _ = saved_pair
    peak = _peak_bytes(dataset_fingerprint, source)
    assert peak <= MAX_FINGERPRINT_ROWS_MULTIPLE * source.rows.nbytes, (
        f"dataset_fingerprint peaked at {peak} bytes for {source.rows.nbytes} bytes of rows"
    )


def test_learning_curve_peak_does_not_grow_with_repeats():
    # repeats are fitted in blocks of at most 20 and scored one at a time.
    # Python's and numpy's free lists keep a few hundred KiB of small freed
    # objects whatever the work; holding every repeat's moments and maps at
    # once would add several MB at 2000 repeats
    source, target = puck_pair(5, 512, noise=0.01)
    pool, hold = np.arange(64), np.arange(64, 512)
    args = (subset(source, pool), subset(target, pool), subset(source, hold), subset(target, hold))
    few = _peak_bytes(learning_curve, *args, [8], 20, 5)
    many = _peak_bytes(learning_curve, *args, [8], 2000, 5)
    assert many - few <= MAX_CURVE_GROWTH, f"peak {few} bytes at 20 repeats, {many} at 2000"


def test_learning_curve_peak_is_a_small_multiple_of_the_holdout():
    # 20 repeats make one block, but its maps are not all scored at once
    source, target = linear_pair(3, 2048 + N, noise=0.01, target_scales=(2.0, 0.5, 1.3))
    pool, hold = np.arange(2048), np.arange(2048, 2048 + N)
    hold_s, hold_t = subset(source, hold), subset(target, hold)
    args = (subset(source, pool), subset(target, pool), hold_s, hold_t)
    peak = _peak_bytes(learning_curve, *args, [8, 32, 128, 512], 20, 5)
    assert peak <= MAX_CURVE_HOLDOUT_MULTIPLE * hold_s.rows.nbytes, (
        f"learning_curve peaked at {peak / hold_s.rows.nbytes:.2f}x the holdout's "
        f"{hold_s.rows.nbytes} bytes"
    )


def test_exact_solve_peak_is_its_cost_matrix():
    source, target = puck_pair(2, 2048, noise=0.01)
    empirical_w2(source.rows[:2], target.rows[:2])  # the solver loads outside the measurement
    peak = _peak_bytes(empirical_w2, source.rows, target.rows)
    cost_bytes = source.n * target.n * 8
    assert peak <= MAX_SOLVE_COST_MULTIPLE * cost_bytes, (
        f"empirical_w2 peaked at {peak / cost_bytes:.4f}x its {cost_bytes}-byte cost matrix"
    )
