"""Peak memory of the bulk path: reading, writing and fitting a dataset each
hold a small multiple of its rows, never a copy of its text. The learning
curve's peak does not grow with its repeat count.

tracemalloc sees numpy's buffers as well as Python objects. The peak counts
what the call returns, so reading a dataset costs at least its rows once.
"""

import tracemalloc

import numpy as np
import pytest

from affine_transport import dataset_fingerprint, fit, load_csv, save_dataset, subset
from affine_transport.cli import learning_curve
from helpers import linear_pair, puck_pair

N = 20_000
MAX_ROWS_MULTIPLE = 3.0
# reading keeps the parsed array itself, so only the chunk loadtxt is parsing
# and that chunk's finite mask come on top of it
MAX_LOAD_ROWS_MULTIPLE = 1.2
# fit reads the rows in place and sums their moments over 64 KiB chunks;
# it peaks at 0.11x of these rows
MAX_FIT_ROWS_MULTIPLE = 0.15
# bytes the learning curve's peak may grow by from 20 to 2000 repeats
MAX_CURVE_GROWTH = 1 << 20
# the fingerprint hashes the rows in place
MAX_FINGERPRINT_ROWS_MULTIPLE = 0.1


@pytest.fixture(scope="module")
def saved_pair(tmp_path_factory):
    source, target = linear_pair(3, N, noise=0.01, target_scales=(2.0, 0.5, 1.3))
    path = tmp_path_factory.mktemp("bulk") / "source.csv"
    save_dataset(source, path)
    return source, target, path


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("step", ["load_csv", "save_dataset", "save_pair", "fit"])
def test_peak_memory_is_a_small_multiple_of_the_rows(saved_pair, tmp_path, step):
    source, target, path = saved_pair
    calls = {
        "load_csv": (load_csv, path),
        "save_dataset": (save_dataset, source, tmp_path / "copy.csv"),
        "save_pair": (save_dataset, source, tmp_path / "copy.csv", (target, tmp_path / "other.csv")),
        "fit": (fit, source, target),
    }
    bound = {"load_csv": MAX_LOAD_ROWS_MULTIPLE, "fit": MAX_FIT_ROWS_MULTIPLE}.get(
        step, MAX_ROWS_MULTIPLE
    )
    peak = _peak_bytes(*calls[step])
    assert peak <= bound * source.rows.nbytes, (
        f"{step} peaked at {peak / source.rows.nbytes:.2f}x the rows' {source.rows.nbytes} bytes"
    )


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
