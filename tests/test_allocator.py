"""The CLI keeps the memory it frees: repeated sweeps in one process fault
no page back in, while importing the library leaves the allocator alone."""

import ctypes
import json
import os
import subprocess
import sys

import pytest

from conftest import SRC_DIR
from spinscatter import protocols

EXACT = ["--protocol", "entangle-impurities", "--fixed", "mode=exact", "--fixed", "k=1",
         "--fixed", "half_separation=1"]
FILTER = ["--protocol", "concentrate", "--fixed", "k=1"]
# the benchmark's two grids, and a 100x100 exact grid: full kernel blocks
# of protocols._BLOCK points and a partial one, so the heap the CLI keeps
# must hold a full block
CASES = {
    "exact 41x41 csv": EXACT + ["--grid", "r1:0:2:41", "--grid", "r2:0:2:41", "--format", "csv"],
    "filter 61x61 csv": FILTER + ["--grid", "a:0.05:0.7:61", "--grid", "r:0:3:61", "--format", "csv"],
    "filter 61x61 json": FILTER + ["--grid", "a:0.05:0.7:61", "--grid", "r:0:3:61", "--format", "json"],
    "exact 100x100 csv": EXACT + ["--grid", "r1:0:2:100", "--grid", "r2:0:2:100", "--format", "csv"],
}

# ten warm sweeps of each case in one fresh interpreter; prints the minor
# page faults per sweep of each case as a json object
PROBE = """
import contextlib, io, json, resource, sys
from spinscatter import cli
assert cli._keep_freed_heap.cache_info().currsize == 0, "importing the CLI set the allocator"
cases, output = json.loads(sys.argv[1]), sys.argv[2]
faults = {}
for name, argv in cases.items():
    def sweep():
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["sweep", *argv, "--output", output]) == 0
    for _ in range(3):
        sweep()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        sweep()
    faults[name] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10
print(json.dumps(faults))
"""


@pytest.mark.skipif(not hasattr(ctypes.pythonapi, "mallopt"), reason="the C library has no mallopt")
def test_warm_sweeps_fault_no_freed_page_back_in(tmp_path):
    # glibc's default trims the heap after each block of the sweep, and the
    # next block faults the pages back in: 100 to 400 faults a sweep; a heap
    # kept smaller than one full block leaves over a thousand on 100x100
    assert 100 * 100 > protocols._BLOCK and 100 * 100 % protocols._BLOCK
    env = dict(os.environ, PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(CASES), str(tmp_path / "grid")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert list(faults) == list(CASES)
    assert {name: count for name, count in faults.items() if not count < 20} == {}
