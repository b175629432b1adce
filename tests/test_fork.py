"""The bulk path's second process. From ``data._FORK_MIN_ROWS`` rows,
``save_dataset`` formats every other chunk of rows in a forked child, and
``load_pair`` parses the target CSV in one while the source is parsed here.
The bytes, datasets, error lines and exit codes must be those of one process,
and no path may leave a child or a zombie behind (``conftest.py`` checks
that after every test).

Each test runs the three ways the code can go: ``one`` keeps the files below
the threshold, ``fork`` lowers it to 0 so the smallest file forks, and
``no-fork`` lowers it too but removes ``os.fork``.
"""

import os
import signal

import pytest

from affine_transport import data, load_csv, load_pair, save_dataset
from affine_transport.cli import main
from helpers import linear_pair, puck_pair

WAYS = ("one", "fork", "no-fork")
# rows of the test pair: more than a chunk, and the target's rows (190 KiB)
# more than a pipe holds, so a child that sends them blocks until they are read
N = data._WRITE_CHUNK + 3


def _go(monkeypatch, way):
    monkeypatch.setattr(data, "_FORK_MIN_ROWS", 1 << 62 if way == "one" else 0)
    if way == "no-fork":
        monkeypatch.delattr(os, "fork")


def _in_child_only(monkeypatch, name, act):
    """Replace ``data.<name>`` by a function that calls ``act()`` in a forked
    child and the original here."""
    parent, original = os.getpid(), getattr(data, name)

    def replaced(*args):
        if os.getpid() != parent:
            act()
        return original(*args)

    monkeypatch.setattr(data, name, replaced)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def pair(tmp_path):
    """A saved puck pair, with a model fitted on it, in one process."""
    source, target = puck_pair(2, N, noise=0.01)
    out = tmp_path / "pair"
    out.mkdir()
    save_dataset(source, out / "source.csv", paired=(target, out / "target.csv"))
    assert main(["fit", "--source", str(out / "source.csv"), "--target", str(out / "target.csv"),
                 "--out", str(tmp_path / "model.json")]) == 0
    return out


def _set_row(path, row, line: bytes):
    """Replace data row ``row`` (1-based) of a CSV by ``line``."""
    lines = path.read_bytes().split(b"\n")
    lines[row] = line
    path.write_bytes(b"\n".join(lines))


def _break(pair, side, fault, row):
    csv = pair / f"{side}.csv"
    if fault == "missing manifest":
        data.manifest_path_for(csv).unlink()
    elif fault == "manifest not json":
        data.manifest_path_for(csv).write_text("{")
    elif fault == "directory":
        csv.unlink()
        csv.mkdir()
    else:
        _set_row(csv, row, {
            "bad cell": b"0.0,0.0,zap,1.0,2.0,3.0",
            "short row": b"0.0,0.0,1.0,2.0,3.0",
            "long row": b"0.0,0.0,1.0,2.0,3.0,4.0,5.0",
            "blank line": b"",
            "nan": b"0.0,0.0,1.0,nan,2.0,3.0",
            "inf": b"0.0,0.0,1.0,2.0,-inf,3.0",
            "not utf-8": b"0.0,0.0,1.0,2.0,3.0,\xff",
        }[fault])


ROW_FAULTS = ["bad cell", "short row", "long row", "blank line", "nan", "inf", "not utf-8"]
FILE_FAULTS = ["missing manifest", "manifest not json", "directory"]
# (fault, the data row it is put in, or 1 for a fault of the whole file)
FAULTS = [(fault, row) for fault in ROW_FAULTS for row in (1, N)] + [
    (fault, 1) for fault in FILE_FAULTS]


def _command(name, pair):
    model = str(pair.parent / "model.json")
    files = ["--source", str(pair / "source.csv"), "--target", str(pair / "target.csv")]
    out = ["--out", str(pair.parent / f"{name}.out")]
    return {
        "fit": ["fit", *files, *out],
        "eval": ["eval", "--model", model, *files, *out],
        "score": ["score", *files],
        "learning-curve": ["learning-curve", *files, "--sizes", "8", "--repeats", "2", *out],
    }[name]


def _outcomes(monkeypatch, capsys, argv):
    """(exit code, stderr) of ``argv`` on each way."""
    got = {}
    for way in WAYS:
        with monkeypatch.context() as m:
            _go(m, way)
            code = main(argv)
        got[way] = code, capsys.readouterr().err
    return got


@pytest.mark.parametrize("fault, row", FAULTS, ids=[f"{f}-{r}" for f, r in FAULTS])
def test_a_bad_target_ends_in_the_same_line_on_every_path(monkeypatch, capsys, pair, fault, row):
    _break(pair, "target", fault, row)
    got = _outcomes(monkeypatch, capsys, _command("fit", pair))
    code, err = got["one"]
    assert code == 2 and err.count("\n") == 1 and err.startswith("error[")
    assert got == dict.fromkeys(WAYS, (code, err))
    if fault in ROW_FAULTS:
        assert f"target.csv data row {row}" in err


@pytest.mark.parametrize("command", ["fit", "eval", "score", "learning-curve"])
def test_every_reader_parses_the_target_in_the_child(monkeypatch, capsys, pair, command):
    _break(pair, "target", "bad cell", N)
    got = _outcomes(monkeypatch, capsys, _command(command, pair))
    assert got["one"][0] == 2 and f"target.csv data row {N}" in got["one"][1]
    assert got == dict.fromkeys(WAYS, got["one"])


@pytest.mark.parametrize("fault", ["bad cell", "directory"])
def test_when_both_files_are_bad_the_source_error_comes_first(monkeypatch, capsys, pair, fault):
    _break(pair, "source", fault, N)
    _break(pair, "target", "nan", 1)
    got = _outcomes(monkeypatch, capsys, _command("score", pair))
    code, err = got["one"]
    assert code == 2 and "source.csv" in err and "target.csv" not in err
    assert got == dict.fromkeys(WAYS, (code, err))


def test_a_bad_source_does_not_wait_for_a_child_blocked_on_the_pipe(monkeypatch, pair):
    # the child has the whole target to send, more than the pipe holds
    _break(pair, "source", "bad cell", 1)
    _go(monkeypatch, "fork")
    with pytest.raises(data.MalformedCsv, match="source.csv data row 1"):
        load_pair(pair / "source.csv", pair / "target.csv")


@pytest.mark.parametrize("way", WAYS)
def test_load_pair_gives_the_datasets_of_load_csv(monkeypatch, pair, way):
    expected = [load_csv(pair / f"{side}.csv") for side in ("source", "target")]
    _go(monkeypatch, way)
    for got, want in zip(load_pair(pair / "source.csv", pair / "target.csv"), expected):
        assert not got.rows.flags.writeable
        assert got.rows.shape == want.rows.shape and got.rows.tobytes() == want.rows.tobytes()
        assert (got.state_dim, got.action_dim, got.domain_label, got.seed) == (
            want.state_dim, want.action_dim, want.domain_label, want.seed)


@pytest.mark.parametrize("n", [0, 1, data._WRITE_CHUNK, 2 * data._WRITE_CHUNK + 1,
                               3 * data._WRITE_CHUNK])
def test_the_fork_path_writes_the_bytes_of_one_process(monkeypatch, tmp_path, n):
    source, target = linear_pair(1, n, noise=0.1, target_scales=(2.0, 0.5, 1.3))
    files = {}
    for way in WAYS:
        out = tmp_path / way
        out.mkdir()
        with monkeypatch.context() as m:
            _go(m, way)
            save_dataset(source, out / "single.csv")
            save_dataset(source, out / "source.csv", paired=(target, out / "target.csv"))
        files[way] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(files["one"]) == 6
    assert files["fork"] == files["one"] == files["no-fork"]


def test_files_below_the_threshold_fork_no_child(monkeypatch, tmp_path):
    # 4096 rows: the benchmark's exact-solve pair, and twice its curve pair
    def no_fork():
        raise AssertionError("forked below the threshold")

    source, target = puck_pair(2, 4096, noise=0.01)
    monkeypatch.setattr(os, "fork", no_fork)
    save_dataset(source, tmp_path / "source.csv", paired=(target, tmp_path / "target.csv"))
    load_pair(tmp_path / "source.csv", tmp_path / "target.csv")


def test_a_child_that_dies_without_a_reply_is_one_error_line(monkeypatch, capsys, pair):
    _go(monkeypatch, "fork")
    _in_child_only(monkeypatch, "load_csv", _kill_self)
    assert main(_command("fit", pair)) == 2
    target = pair / "target.csv"
    assert capsys.readouterr().err == (
        f"error[ChildProcessError]: the process forked to read {target} ended with no reply "
        "(exit code -9)\n"
    )


def test_a_formatting_child_that_dies_is_one_error_line(monkeypatch, capsys, tmp_path):
    _go(monkeypatch, "fork")
    _in_child_only(monkeypatch, "_chunk_texts", _kill_self)
    argv = ["synth", "--kind", "puck", "--n", str(N), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error[ChildProcessError]: the process forked to format {tmp_path / 'source.csv'} "
        "ended with no reply (exit code -9)\n"
    )


def test_an_error_in_the_formatting_child_is_raised_here(monkeypatch, tmp_path):
    def fail():
        raise MemoryError("no room to format")

    source, target = puck_pair(2, N)
    _go(monkeypatch, "fork")
    _in_child_only(monkeypatch, "_chunk_texts", fail)
    with pytest.raises(MemoryError, match="^no room to format$"):
        save_dataset(source, tmp_path / "source.csv", paired=(target, tmp_path / "target.csv"))


def test_a_fork_that_fails_closes_the_pipe(monkeypatch, tmp_path):
    made = []

    def pipe():
        made.extend(real_pipe())
        return tuple(made)

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    real_pipe = os.pipe
    source, _ = puck_pair(2, N)
    _go(monkeypatch, "fork")
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(BlockingIOError):
        save_dataset(source, tmp_path / "source.csv")
    assert len(made) == 2
    for fd in made:
        with pytest.raises(OSError):
            os.fstat(fd)
