"""The walkthroughs in demos/ run to completion at small sizes."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,expect", [
    ("gaussian_reconstruction.py", ["6", "2"], "error reduction"),
    ("stability_tables.py", ["3"], "headline constants"),
    ("transport_oracle.py", [], "coefficient cross-check"),
])
def test_demo_runs(tmp_path, script, args, expect):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script),
                           *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout
    if script == "gaussian_reconstruction.py":
        assert (tmp_path / "demo_output" / "gaussian_final.csv").is_file()
    if script == "stability_tables.py":
        assert len([line for line in done.stdout.splitlines()
                    if line.startswith(" pair0")]) == 3
