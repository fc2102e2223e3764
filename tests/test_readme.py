"""Every ``sgclass`` command shown in README.md runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from sgclass import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argv of each ``sgclass ...`` line of the README's sh blocks,
    with its trailing comment dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines()
            if line.startswith("sgclass ")]


def test_readme_shows_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # --json writes its report here
    code, report = cli.run(argv)
    assert code == 0, report.get("error") or report.get("checks")
