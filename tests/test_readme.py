"""The README quickstarts, run as written: a README that names a removed
API or flag fails here."""
import re
import shlex
import shutil
from pathlib import Path

import pytest

from rulelink import cli

ROOT = Path(__file__).resolve().parents[1]


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


@pytest.fixture
def demo_dir(tmp_path, monkeypatch):
    """A temp working directory holding a copy of ``demo/``."""
    shutil.copytree(ROOT / "demo", tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_python_quickstart(demo_dir, capsys):
    exec(compile(_block("Quickstart (Python)", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out == "['James_Cameron', 'Titanic_(1997_film)']\n1.0\n"


def test_cli_quickstart(demo_dir):
    commands = _block("Quickstart (CLI)", "bash").replace("\\\n", " ").splitlines()
    assert len(commands) == 5
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "rulelink"
        assert cli.run(argv[1:]) == 0, line
    for name in ("features.csv", "model.json", "preds.json", "tree.dot", "weights.json"):
        assert (demo_dir / name).is_file()
