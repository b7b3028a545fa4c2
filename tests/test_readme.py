"""The README's Library example and CLI block run as written."""

import re
import shlex
from pathlib import Path

from paritylp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Each `paritylp` line of the CLI block exits 0 in a directory holding
    the README's first profile as p.json."""
    text = README.read_text()
    profile = re.search(r"```json\n(.*?)\n", text).group(1)
    (tmp_path / "p.json").write_text(profile)
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```bash\n(.*?)```", text, re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("paritylp ")]
    assert len(lines) == 10
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
