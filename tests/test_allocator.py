"""The CLI keeps the memory it frees: repeated sweeps in one process fault
no page back in, while importing the library leaves the allocator alone."""

import ctypes
import os
import subprocess
import sys

import pytest

from conftest import SRC_DIR

# ten warm 41x41 exact sweeps in a fresh interpreter; prints the minor page
# faults per sweep
PROBE = """
import contextlib, io, resource, sys
from spinscatter import cli
assert cli._keep_freed_heap.cache_info().currsize == 0, "importing the CLI set the allocator"
argv = ["sweep", "--protocol", "entangle-impurities", "--fixed", "mode=exact", "--fixed", "k=1",
        "--fixed", "half_separation=1", "--grid", "r1:0:2:41", "--grid", "r2:0:2:41",
        "--format", "csv", "--output", sys.argv[1]]
def sweep():
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
for _ in range(3):
    sweep()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    sweep()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(not hasattr(ctypes.pythonapi, "mallopt"), reason="the C library has no mallopt")
def test_warm_sweeps_fault_no_freed_page_back_in(tmp_path):
    # glibc's default trims the heap after each block of the sweep, and the
    # next block faults the pages back in: 100 to 400 faults a sweep
    env = dict(os.environ, PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "grid.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 20
