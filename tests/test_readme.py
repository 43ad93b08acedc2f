"""README's examples run as written: its python blocks against the installed
names, and its count example as the exact report."""

import re
from pathlib import Path

from regcount.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_count_example_is_the_exact_report(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    graph = re.search(r"^```\n(6 6 0\n.*?)^```", text, re.M | re.S).group(1)
    command, report = re.search(
        r"^```sh\n(regcount count .*?)\n```\n\n```json\n(.*?)^```", text, re.M | re.S
    ).groups()
    (tmp_path / "two_triangles.txt").write_text(graph)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()[1:]) == 0
    assert capsys.readouterr().out == report
