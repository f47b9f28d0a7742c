"""The README's library quick start runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_output(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    # the election the CLI section writes to election.txt
    election = re.search(r"cat > election.txt <<EOF\n(.*?)EOF\n", text, re.DOTALL)
    (tmp_path / "election.txt").write_text(election.group(1))
    section = text[text.index("## Library quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    expected = [
        line.split("  # ", 1)[1] for line in code.splitlines() if "print(" in line
    ]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
