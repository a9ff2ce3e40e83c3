"""The demos print the same bytes as before, each in a fresh process.

The demos call the public suite API, so a change to a suite's report
shows up here.  Regenerate a digest only for an intended change of output.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

DEMOS = {
    "01_exact_ring.py":
        "917103f6d0adb032024dc95cb473277ffd910c15205caea5636bf91dcce9e0db",
    "02_irreps_and_rmatrix.py":
        "16ffb41fb937d5f68eb0a37b18035e9409fefff3da43c785c5aca3cf481c01c9",
    "03_cylinder_twist.py":
        "54ae4ae0a8260a80da989d5ff02c72553075032eb327c8b653e5b0c3253db35c",
    "04_braid_group.py":
        "77f1fde39f46cd8c60d3c7d9e40c5675c4331bb168a3787e492ca73c95c9a051",
    "05_solution_family.py":
        "bbfbd02b6da52e404606f15d7b352dbe3afac900c1016d72fe3952c664b32bf1",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[name]
