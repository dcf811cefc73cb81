"""tools/snapshot.py: every user-visible output, the same on any thread count;
tools/snapshot_diff.py: which of two snapshots' differences are numeric."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SNAPSHOT = os.path.join(ROOT, "tools", "snapshot.py")
SNAPSHOT_DIFF = os.path.join(ROOT, "tools", "snapshot_diff.py")

# the child pins itself to one CPU before it imports the package, so its
# thread pool has one worker
_ONE_CPU_CHILD = """
import os, runpy, sys
os.sched_setaffinity(0, {cpu})
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def _load(path):
    spec = importlib.util.spec_from_file_location(
        os.path.splitext(os.path.basename(path))[0], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(top):
    return sorted(os.path.relpath(os.path.join(d, n), top)
                  for d, _, names in os.walk(top) for n in names)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_snapshot_bytes_do_not_depend_on_the_thread_count(tmp_path):
    snapshot = _load(SNAPSHOT)
    here, pinned = tmp_path / "here", tmp_path / "pinned"
    cwd = os.getcwd()
    snapshot.snapshot(str(here))
    assert os.getcwd() == cwd

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_CHILD.format(cpu={cpu}), SNAPSHOT,
         str(pinned)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    names = _files(here)
    # 31 figure datasets of two files each; fig2's 40,401 points span two
    # of the kernel's blocks, which the unpinned pool runs concurrently
    assert len([n for n in names if n.startswith("figures" + os.sep)]) == 62
    assert names == _files(pinned)
    differ = [n for n in names if _read(here / n) != _read(pinned / n)]
    assert not differ


_CSV = "y,T12,status\n1.0e+00,2.5e-01,ok\n2.0e+00,,singular\n"
_REPR = "TransmissionPoint(y=0.5, T12=0.25, T21=0.75)\n"


def _tree(top, csv, repr_text=_REPR):
    (top / "figures").mkdir(parents=True)
    (top / "figures" / "fig.csv").write_text(csv)
    (top / "points.txt").write_text(repr_text)
    return str(top)


def test_snapshot_diff_counts_numeric_cells(tmp_path, capsys):
    old = _tree(tmp_path / "old", _CSV)
    new = _tree(tmp_path / "new",
                _CSV.replace("2.5e-01", "2.5000000000000006e-01"),
                _REPR.replace("0.75", "0.7500000000000001"))
    assert _load(SNAPSHOT_DIFF).main([old, new]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        os.path.join("figures", "fig.csv") + ": 1 numeric cells changed, "
        "largest relative change 2.22e-16 (line 2), "
        "largest absolute change 5.55e-17 (line 2)",
        "points.txt: 1 numeric cells changed, "
        "largest relative change 1.48e-16 (line 1), "
        "largest absolute change 1.11e-16 (line 1)",
        "largest relative change: 2.22e-16",
        "largest absolute change: 1.11e-16",
    ]
    # identical trees print only the totals
    assert _load(SNAPSHOT_DIFF).main([old, old]) == 0
    assert capsys.readouterr().out == (
        "largest relative change: 0\nlargest absolute change: 0\n")


_COMPLEX = ("SteadyState(alpha1=(0.5111203428396652-10.02379131941032j), "
            "J2=(0.01+0j), J3=2.225j)\n")


def test_snapshot_diff_counts_imaginary_parts(tmp_path, capsys):
    # a last digit of each imaginary part, and the sign of a zero one
    new_repr = (_COMPLEX.replace("032j", "0321j").replace("+0j", "-0j")
                .replace("2.225j", "2.2250000000000005j"))
    old = _tree(tmp_path / "old", _CSV, _COMPLEX)
    new = _tree(tmp_path / "new", _CSV, new_repr)
    assert _load(SNAPSHOT_DIFF).main([old, new]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("points.txt: 3 numeric cells changed, "
                      "largest relative change 2e-16 (line 1), "
                      "largest absolute change 1.78e-15 (line 1)")
    # the j is text: a complex cell that turns real differs
    new = _tree(tmp_path / "real", _CSV, _COMPLEX.replace("2.225j", "2.225"))
    assert _load(SNAPSHOT_DIFF).main([old, new]) == 1
    assert capsys.readouterr().out.startswith(
        "points.txt: line 1 differs outside its numbers")


@pytest.mark.parametrize("csv", [
    _CSV.replace("ok", "singular"),                    # a status cell
    _CSV.replace(",,", ",3.0e-01,"),                   # an empty cell
    _CSV.replace("T12", "T21"),                        # a column name
    _CSV + "3.0e+00,1.0e-01,ok\n",                     # a row
    _CSV.replace("2.5e-01,ok", "2.5e-01,0.0,ok"),      # a cell
])
def test_snapshot_diff_fails_on_text(tmp_path, capsys, csv):
    old = _tree(tmp_path / "old", _CSV)
    new = _tree(tmp_path / "new", csv)
    assert _load(SNAPSHOT_DIFF).main([old, new]) == 1
    assert capsys.readouterr().out.startswith(
        os.path.join("figures", "fig.csv") + ": ")


def test_snapshot_diff_fails_on_a_missing_file(tmp_path, capsys):
    old = _tree(tmp_path / "old", _CSV)
    new = _tree(tmp_path / "new", _CSV)
    os.remove(os.path.join(new, "points.txt"))
    assert _load(SNAPSHOT_DIFF).main([old, new]) == 1
    assert capsys.readouterr().out.startswith(f"points.txt: only in {old}")
