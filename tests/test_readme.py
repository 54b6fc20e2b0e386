"""The README's Library example and CLI commands run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from hypercut import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    code = re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    cut_value, surplus = out.getvalue().split()
    assert int(cut_value) > 0
    assert float(surplus) >= 0


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``hypercut`` line of the CLI section, in order (the solves read
    the files the gens write), with its line continuations joined."""
    lines = section("CLI").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("hypercut ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert cli.main(args) == 0, (args, capsys.readouterr().err)
        for flag in ("--out", "--report"):
            if flag in args:
                assert (tmp_path / args[args.index(flag) + 1]).is_file()
