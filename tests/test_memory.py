"""Peak memory of the bulk path: reading, writing and fitting a dataset each
hold a small multiple of its rows, never a copy of its text.

tracemalloc sees numpy's buffers as well as Python objects. The peak counts
what the call returns, so reading a dataset costs at least its rows once.
"""

import tracemalloc

import numpy as np
import pytest

from affine_transport import dataset_fingerprint, fit, load_csv, save_dataset
from helpers import linear_pair

N = 20_000
MAX_ROWS_MULTIPLE = 3.0
# reading keeps the parsed array itself, so only the chunk loadtxt is parsing
# and that chunk's finite mask come on top of it
MAX_LOAD_ROWS_MULTIPLE = 1.2
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
    bound = MAX_LOAD_ROWS_MULTIPLE if step == "load_csv" else MAX_ROWS_MULTIPLE
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
