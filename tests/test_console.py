"""The console entry point, ``python -m hypercut.cli``, run as a subprocess:
the exit code is the one ``cli.entry`` hands to ``sys.exit``."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hypercut.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_solve_readme_instance(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    text = re.search(r"## Instance file format\n.*?```\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "h.txt").write_text(text)
    done = run_cli("solve", "--file", "h.txt", "--k", "3", "--trials", "4", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    # 0 and 1 apart put 2 and 3 together in the third part: 3 of the 4 edges
    assert done.stdout.startswith("solve h.txt: r=3 n=5 m=4 k=3 cut=3 surplus=")
    assert done.stderr == ""


def test_missing_file_exits_2(tmp_path):
    done = run_cli("solve", "--file", "absent.txt", "--k", "3", cwd=tmp_path)
    assert done.returncode == 2
    assert "input error" in done.stderr
    assert done.stdout == ""
