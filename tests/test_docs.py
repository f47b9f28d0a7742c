"""The README's CLI block and library quick start run and print what their
comments say."""

import json
import re
import shlex
from pathlib import Path

from kwise_kemeny.bench import CSV_HEADER
from kwise_kemeny.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def write_election(text, directory):
    """Write the election the CLI section puts in election.txt."""
    election = re.search(r"cat > election.txt <<EOF\n(.*?)EOF\n", text, re.DOTALL)
    (directory / "election.txt").write_text(election.group(1))


def test_cli_block_output(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    write_election(text, tmp_path)
    section = text[text.index("## CLI") :]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    runs = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("kwise-kemeny "):
            argv = shlex.split(line, comments=True)[1:]
            assert main(argv) == 0, line
            runs.append((argv[0], capsys.readouterr().out))
    commands = [command for command, _ in runs]
    assert commands == ["distance", "solve", "solve", "digraph", "sample", "bench"]
    outputs = [out for _, out in runs]
    assert outputs[0] == "201\n"
    dp = json.loads(outputs[1])
    assert (dp["optimum"], dp["rankings"]) == (201, [[1, 2, 3]])
    assert json.loads(outputs[2])["rankings"] == [[2, 3, 1]]
    assert outputs[3].startswith("digraph majority {\n")
    assert outputs[4].splitlines()[0] == "10 50"
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == CSV_HEADER


def test_quick_start_output(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    write_election(text, tmp_path)
    section = text[text.index("## Library quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    expected = [
        line.split("  # ", 1)[1] for line in code.splitlines() if "print(" in line
    ]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
