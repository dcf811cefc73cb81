"""tools/snapshot.py: every user-visible output, the same on any thread count."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SNAPSHOT = os.path.join(ROOT, "tools", "snapshot.py")

# the child pins itself to one CPU before it imports the package, so its
# thread pool has one worker
_ONE_CPU_CHILD = """
import os, runpy, sys
os.sched_setaffinity(0, {cpu})
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def _files(top):
    return sorted(os.path.relpath(os.path.join(d, n), top)
                  for d, _, names in os.walk(top) for n in names)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_snapshot_bytes_do_not_depend_on_the_thread_count(tmp_path):
    spec = importlib.util.spec_from_file_location("snapshot", SNAPSHOT)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
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
