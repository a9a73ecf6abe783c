"""Every demo script prints its pinned bytes, and the README's library tour
runs to the end."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each demo's stdout: a change to what a demo prints shows here
DEMO_STDOUT = {
    "character_sums.py": "b2710f0770513aa8f0d08879afa3e840b88e47b92cac0ab5d98d27845a69f48a",
    "digit_sum_discrepancy.py": "2cf789da0aa2a68ea9ac738f8f25ec8920e138baa33902810ca990d7ec9c63d6",
    "digit_sum_distribution.py": "094a5c9c1929bcb5d74750e91f8abf224d810a425bff2a686d1cf70c2679f01f",
    "floor_power_transforms.py": "76aee5660898faaa1aa227a3b530f24693ae95f3be4a68cad6467513936448fb",
    "sequences_and_nets.py": "e9384ad87c2ff2a5f1a94e068a257530a41d2cd3534b2aafd22cc66e00e46ba5",
    "uniform_discrepancy.py": "6e66152e7e76f8e872aea9ebc7f9078d223cb1547c6a6af4479e1ecc24affac0",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_STDOUT) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo]


def test_readme_tour_runs():
    text = (ROOT / "README.md").read_text()
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})


# A meta-path hook that refuses every numpy import, loaded by `site` as
# sitecustomize from the first PYTHONPATH entry.
BLOCK_NUMPY = '''
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockNumpy())
'''

# the benchmark's `points` commands at small sizes: `gen` reads its chunks
# as runs of indices, and the windows, the Delta table and the net blocks
# take theirs from ranges too; `transform` and the transformed window take
# their digit sums from the same block sums, in runs past 2**10 indices
POINTS_JOBS = [
    ["gen", "--spec", "pascal:3,2", "--count", "500", "--start", "1024"],
    ["gen", "--spec", "vdc:2", "--count", "5000", "--start", "3072"],
    ["netcheck", "--spec", "pascal:3,2", "--base", "3", "--mmax", "4", "--kmax", "3"],
    ["udisc", "--spec", "vdc:2", "--N", "128", "--kmax", "512"],
    ["udisc", "--spec", "vdc:2", "--transform", "sod:2", "--N", "32", "--kmax", "128"],
    ["udisc", "--spec", "vdc:2", "--transform", "sod:2", "--N", "64", "--kmax", "3000"],
    ["transform", "--transform", "sod:2", "--count", "3000", "--start", "1000"],
    ["transform", "--transform", "sod:1031", "--count", "2500", "--start", "1031"],
    ["ubound", "--spec", "vdc:2", "--b", "2", "--dmax", "6", "--kmax", "256"],
]


def test_demos_and_points_jobs_run_without_numpy(tmp_path, capsys):
    # every demo prints its pinned bytes, and every `points` command the
    # bytes it prints with numpy, while any numpy import fails
    from lowdisc.cli import main

    (tmp_path / "sitecustomize.py").write_text(BLOCK_NUMPY)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tmp_path), str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    blocked = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True)
    assert blocked.returncode == 1 and b"numpy is blocked" in blocked.stderr
    for demo in sorted(DEMO_STDOUT):
        proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, (demo, proc.stderr.decode())
        assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo], demo
    for job in POINTS_JOBS:
        assert main(job) == 0
        want = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "lowdisc.cli", *job], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (job, proc.stderr)
        assert proc.stdout == want, job
