import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kwise_kemeny import (
    MallowsParams,
    Profile,
    Ranking,
    cli,
    impartial_culture,
    mallows_sample,
    serialize_profile,
)
from kwise_kemeny.cli import main
from conftest import SIX_TEXT, TENSION_TEXT


@pytest.fixture
def tension_file(tmp_path):
    path = tmp_path / "tension.txt"
    path.write_text(TENSION_TEXT)
    return str(path)


@pytest.fixture
def six_file(tmp_path):
    path = tmp_path / "six.txt"
    path.write_text(SIX_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDistance:
    def test_three_wise_value(self, capsys, tension_file):
        code, out, _ = run(
            capsys, "distance", "--input", tension_file, "--rank", "1,2,3", "--k", "3"
        )
        assert code == 0
        assert out.strip() == "201"

    def test_pairwise_value(self, capsys, tension_file):
        code, out, _ = run(
            capsys, "distance", "--input", tension_file, "--rank", "1,2,3", "--k", "2"
        )
        assert code == 0
        assert out.strip() == "150"

    def test_json_flag(self, capsys, tension_file):
        code, out, _ = run(
            capsys, "distance", "--input", tension_file, "--rank", "1,2,3",
            "--k", "3", "--json",
        )
        assert code == 0
        assert json.loads(out) == {"distance": 201}

    def test_bad_permutation_is_input_error(self, capsys, tension_file):
        code, _, err = run(
            capsys, "distance", "--input", tension_file, "--rank", "1,1,3", "--k", "3"
        )
        assert code == 2
        assert "permutation" in err

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "distance", "--rank", "1,2", "--k", "2")
        assert code == 2

    def test_missing_k(self, capsys, tension_file):
        code, _, err = run(
            capsys, "distance", "--input", tension_file, "--rank", "1,2,3"
        )
        assert code == 2

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n2: 1,1,3\n")
        code, _, err = run(
            capsys, "distance", "--input", str(bad), "--rank", "1,2,3", "--k", "2"
        )
        assert code == 2
        assert "line 2" in err


class TestSolve:
    def test_dp_json_payload(self, capsys, tension_file):
        code, out, _ = run(capsys, "solve", "--input", tension_file, "--k", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimum"] == 201
        assert payload["rankings"] == [[1, 2, 3]]
        assert payload["count"] == 1
        assert payload["truncated"] is False
        assert payload["stats"]["states"] == 8
        assert payload["stats"]["millis"] >= 0

    @pytest.mark.parametrize("name, text", [
        ("tension.txt", TENSION_TEXT),
        ("toy.soc", "# FILE NAME: toy.soc\n49: 1,2,3\n48: 3,2,1\n3: 2,3,1\n"),
    ], ids=["native", "soc"])
    def test_byte_order_mark_accepted(self, capsys, tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        outputs = []
        for path in (plain, marked):
            code, out, err = run(capsys, "solve", "--input", str(path), "--k", "3")
            outputs.append((code, re.sub(r', "millis": [-+0-9.eE]+', "", out), err))
        assert outputs[0] == outputs[1]
        assert outputs[1][0] == 0

    def test_modes_agree(self, capsys, tension_file):
        optima = {}
        for mode in ("brute", "dp", "pre", "pre-refined"):
            code, out, _ = run(
                capsys, "solve", "--input", tension_file, "--k", "3", "--mode", mode
            )
            assert code == 0
            optima[mode] = json.loads(out)["optimum"]
        assert set(optima.values()) == {201}

    def test_enumerate_all(self, capsys, tmp_path):
        path = tmp_path / "tie.txt"
        path.write_text("2 2\n1: 1,2\n1: 2,1\n")
        code, out, _ = run(
            capsys, "solve", "--input", str(path), "--k", "2", "--all"
        )
        payload = json.loads(out)
        assert payload["count"] == 2
        assert sorted(payload["rankings"]) == [[1, 2], [2, 1]]

    def test_brute_guard_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nine.txt"
        path.write_text(serialize_profile(impartial_culture(9, 4, 0)))
        code, _, err = run(
            capsys, "solve", "--input", str(path), "--k", "2", "--mode", "brute"
        )
        assert code == 3
        assert "m <= 8" in err

    def test_preprocessed_solution(self, capsys, six_file):
        code, out, _ = run(
            capsys, "solve", "--input", six_file, "--k", "3", "--mode", "pre-refined"
        )
        payload = json.loads(out)
        assert payload["rankings"] == [[1, 2, 4, 3, 5, 6]]

    def test_dp_state_cap_exit_code(self, capsys, tmp_path):
        path = tmp_path / "m31.txt"
        path.write_text(serialize_profile(impartial_culture(31, 3, 0)))
        code, out, err = run(
            capsys, "solve", "--input", str(path), "--k", "3", "--mode", "dp"
        )
        assert (code, out) == (3, "")
        assert err == (
            "refused: subset DP refused: m=31 exceeds the 2^m state cap "
            "(m <= 30)\n"
        )

    def test_component_cap_exit_code(self, capsys, tmp_path):
        # c1 tops every ballot; the other 31 candidates form one cycle
        rest = list(range(2, 33))
        ballots = [[1] + rest[shift:] + rest[:shift] for shift in (0, 11, 21)]
        path = tmp_path / "m32.txt"
        path.write_text("32 3\n" + "".join(
            "1: " + ",".join(map(str, ids)) + "\n" for ids in ballots
        ))
        for mode in ("pre", "pre-refined"):
            code, out, err = run(
                capsys, "solve", "--input", str(path), "--k", "3", "--mode", mode
            )
            assert (code, out) == (3, "")
            assert err == (
                "refused: subset DP refused: a subset of 31 candidates exceeds "
                "the 2^m state cap (m <= 30)\n"
            )

    @pytest.mark.parametrize(
        "command", ["brute", "dp", "pre", "pre-refined", "distance", "digraph"]
    )
    def test_one_candidate_refuses_k_below_two(self, capsys, tmp_path, command):
        path = tmp_path / "one.txt"
        path.write_text("1 3\n3: 1\n")
        argvs = {
            "distance": [("distance", "--rank", "1")],
            "digraph": [("digraph",), ("digraph", "--refine")],
        }.get(command, [("solve", "--mode", command, *flags)
                        for flags in ((), ("--all",))])
        for k in ("0", "-1"):
            for argv in argvs:
                code, out, err = run(capsys, *argv, "--input", str(path), "--k", k)
                assert (code, out) == (2, "")
                assert err == f"error: k must satisfy 2 <= k <= m, got k={k}, m=1\n"

    def test_memory_error_is_refusal(self, capsys, monkeypatch, tension_file):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "solve", exhausted)
        code, out, err = run(capsys, "solve", "--input", tension_file, "--k", "3")
        assert (code, out) == (3, "")
        assert err.startswith("refused: out of memory")
        assert "Traceback" not in err

    def test_recursion_error_is_internal(self, capsys, monkeypatch, tension_file):
        def runaway(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "solve", runaway)
        code, out, err = run(capsys, "solve", "--input", tension_file, "--k", "3")
        assert (code, out) == (4, "")
        assert err == "internal check failed: maximum recursion depth exceeded\n"


# One candidate, and profiles whose two voters disagree on every pair, so
# optima tie and `count`/`truncated` differ between modes and flags; at
# m = 8 and 13 a counted walk reads back many tying orders.  At m = 13 and
# 16 the DP tables are larger than the cached 10-bit plans.
GOLDEN_TEXTS = {
    "six": SIX_TEXT,
    "tension": TENSION_TEXT,
    "single": "1 3\n3: 1\n",
    "reversal": "4 2\n1: 1,2,3,4\n1: 4,3,2,1\n",
    "reversal8": "8 2\n1: 1,2,3,4,5,6,7,8\n1: 8,7,6,5,4,3,2,1\n",
    "reversal13": "13 2\n1: {}\n1: {}\n".format(
        ",".join(map(str, range(1, 14))), ",".join(map(str, range(13, 0, -1)))
    ),
    "mallows16": serialize_profile(
        mallows_sample(MallowsParams(Ranking.identity(16), 0.8, 50, 1))
    ),
}

# `solve` stdout for every mode and enumeration flag (at m = 8, `dp` and
# `pre` with a limit; at m = 13 and 16, `dp` and `pre-refined`),
# `stats.millis` removed.
GOLDEN_SOLVE = [
    ('six', 3, 'brute', '',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 720}}'),
    ('six', 3, 'brute', '--all --limit 1',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 720}}'),
    ('six', 3, 'brute', '--all',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 720}}'),
    ('six', 3, 'dp', '',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 64}}'),
    ('six', 3, 'dp', '--all --limit 1',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 64}}'),
    ('six', 3, 'dp', '--all',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 64}}'),
    ('six', 3, 'pre', '',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 12}}'),
    ('six', 3, 'pre', '--all --limit 1',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 12}}'),
    ('six', 3, 'pre', '--all',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 12}}'),
    ('six', 3, 'pre-refined', '',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 12}}'),
    ('six', 3, 'pre-refined', '--all --limit 1',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 12}}'),
    ('six', 3, 'pre-refined', '--all',
     '{"optimum": 63, "rankings": [[1, 2, 4, 3, 5, 6]], "count": 1, "truncated": false, "stats": {"states": 12}}'),
    ('tension', 2, 'brute', '',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 2, 'brute', '--all --limit 1',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 2, 'brute', '--all',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 2, 'dp', '',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 2, 'dp', '--all --limit 1',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 2, 'dp', '--all',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 2, 'pre', '',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 2, 'pre', '--all --limit 1',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 2, 'pre', '--all',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 2, 'pre-refined', '',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 2, 'pre-refined', '--all --limit 1',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 2, 'pre-refined', '--all',
     '{"optimum": 146, "rankings": [[2, 3, 1]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 3, 'brute', '',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 3, 'brute', '--all --limit 1',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 3, 'brute', '--all',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 6}}'),
    ('tension', 3, 'dp', '',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 3, 'dp', '--all --limit 1',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 3, 'dp', '--all',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 3, 'pre', '',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 3, 'pre', '--all --limit 1',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 3, 'pre', '--all',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 3, 'pre-refined', '',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 3, 'pre-refined', '--all --limit 1',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('tension', 3, 'pre-refined', '--all',
     '{"optimum": 201, "rankings": [[1, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('single', 2, 'brute', '',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'brute', '--all --limit 1',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'brute', '--all',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'dp', '',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'dp', '--all --limit 1',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'dp', '--all',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'pre', '',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'pre', '--all --limit 1',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'pre', '--all',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'pre-refined', '',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'pre-refined', '--all --limit 1',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('single', 2, 'pre-refined', '--all',
     '{"optimum": 0, "rankings": [[1]], "count": 1, "truncated": false, "stats": {"states": 1}}'),
    ('reversal', 3, 'brute', '',
     '{"optimum": 10, "rankings": [[1, 2, 3, 4], [1, 2, 4, 3], [1, 4, 2, 3], [1, 4, 3, 2], [4, 1, 2, 3], [4, 1, 3, 2], [4, 3, 1, 2], [4, 3, 2, 1]], "count": 8, "truncated": false, "stats": {"states": 24}}'),
    ('reversal', 3, 'brute', '--all --limit 1',
     '{"optimum": 10, "rankings": [[1, 2, 3, 4], [1, 2, 4, 3], [1, 4, 2, 3], [1, 4, 3, 2], [4, 1, 2, 3], [4, 1, 3, 2], [4, 3, 1, 2], [4, 3, 2, 1]], "count": 8, "truncated": false, "stats": {"states": 24}}'),
    ('reversal', 3, 'brute', '--all',
     '{"optimum": 10, "rankings": [[1, 2, 3, 4], [1, 2, 4, 3], [1, 4, 2, 3], [1, 4, 3, 2], [4, 1, 2, 3], [4, 1, 3, 2], [4, 3, 1, 2], [4, 3, 2, 1]], "count": 8, "truncated": false, "stats": {"states": 24}}'),
    ('reversal', 3, 'dp', '',
     '{"optimum": 10, "rankings": [[1, 2, 3, 4]], "count": 1, "truncated": false, "stats": {"states": 16}}'),
    ('reversal', 3, 'dp', '--all --limit 1',
     '{"optimum": 10, "rankings": [[1, 2, 3, 4]], "count": 8, "truncated": true, "stats": {"states": 16}}'),
    ('reversal', 3, 'dp', '--all',
     '{"optimum": 10, "rankings": [[1, 2, 3, 4], [1, 2, 4, 3], [1, 4, 2, 3], [1, 4, 3, 2], [4, 1, 2, 3], [4, 1, 3, 2], [4, 3, 1, 2], [4, 3, 2, 1]], "count": 8, "truncated": false, "stats": {"states": 16}}'),
    ('reversal', 3, 'pre', '',
     '{"optimum": 10, "rankings": [[1, 4, 2, 3]], "count": 2, "truncated": true, "stats": {"states": 8}}'),
    ('reversal', 3, 'pre', '--all --limit 1',
     '{"optimum": 10, "rankings": [[1, 4, 2, 3]], "count": 2, "truncated": true, "stats": {"states": 8}}'),
    ('reversal', 3, 'pre', '--all',
     '{"optimum": 10, "rankings": [[1, 4, 2, 3], [1, 4, 3, 2]], "count": 2, "truncated": false, "stats": {"states": 8}}'),
    ('reversal', 3, 'pre-refined', '',
     '{"optimum": 10, "rankings": [[1, 4, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('reversal', 3, 'pre-refined', '--all --limit 1',
     '{"optimum": 10, "rankings": [[1, 4, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('reversal', 3, 'pre-refined', '--all',
     '{"optimum": 10, "rankings": [[1, 4, 2, 3]], "count": 1, "truncated": false, "stats": {"states": 8}}'),
    ('reversal8', 2, 'dp', '--all --limit 25',
     '{"optimum": 28, "rankings": [[1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 8, 7], [1, 2, 3, 4, 5, 7, 6, 8], [1, 2, 3, 4, 5, 7, 8, 6], [1, 2, 3, 4, 5, 8, 6, 7], [1, 2, 3, 4, 5, 8, 7, 6], [1, 2, 3, 4, 6, 5, 7, 8], [1, 2, 3, 4, 6, 5, 8, 7], [1, 2, 3, 4, 6, 7, 5, 8], [1, 2, 3, 4, 6, 7, 8, 5], [1, 2, 3, 4, 6, 8, 5, 7], [1, 2, 3, 4, 6, 8, 7, 5], [1, 2, 3, 4, 7, 5, 6, 8], [1, 2, 3, 4, 7, 5, 8, 6], [1, 2, 3, 4, 7, 6, 5, 8], [1, 2, 3, 4, 7, 6, 8, 5], [1, 2, 3, 4, 7, 8, 5, 6], [1, 2, 3, 4, 7, 8, 6, 5], [1, 2, 3, 4, 8, 5, 6, 7], [1, 2, 3, 4, 8, 5, 7, 6], [1, 2, 3, 4, 8, 6, 5, 7], [1, 2, 3, 4, 8, 6, 7, 5], [1, 2, 3, 4, 8, 7, 5, 6], [1, 2, 3, 4, 8, 7, 6, 5], [1, 2, 3, 5, 4, 6, 7, 8]], "count": 40320, "truncated": true, "stats": {"states": 256}}'),
    ('reversal8', 2, 'pre', '--all --limit 25',
     '{"optimum": 28, "rankings": [[1, 2, 3, 4, 5, 6, 7, 8]], "count": 1, "truncated": false, "stats": {"states": 16}}'),
    ('reversal8', 3, 'dp', '--all --limit 25',
     '{"optimum": 84, "rankings": [[1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 8, 7], [1, 2, 3, 4, 5, 8, 6, 7], [1, 2, 3, 4, 5, 8, 7, 6], [1, 2, 3, 4, 8, 5, 6, 7], [1, 2, 3, 4, 8, 5, 7, 6], [1, 2, 3, 4, 8, 7, 5, 6], [1, 2, 3, 4, 8, 7, 6, 5], [1, 2, 3, 8, 4, 5, 6, 7], [1, 2, 3, 8, 4, 5, 7, 6], [1, 2, 3, 8, 4, 7, 5, 6], [1, 2, 3, 8, 4, 7, 6, 5], [1, 2, 3, 8, 7, 4, 5, 6], [1, 2, 3, 8, 7, 4, 6, 5], [1, 2, 3, 8, 7, 6, 4, 5], [1, 2, 3, 8, 7, 6, 5, 4], [1, 2, 8, 3, 4, 5, 6, 7], [1, 2, 8, 3, 4, 5, 7, 6], [1, 2, 8, 3, 4, 7, 5, 6], [1, 2, 8, 3, 4, 7, 6, 5], [1, 2, 8, 3, 7, 4, 5, 6], [1, 2, 8, 3, 7, 4, 6, 5], [1, 2, 8, 3, 7, 6, 4, 5], [1, 2, 8, 3, 7, 6, 5, 4], [1, 2, 8, 7, 3, 4, 5, 6]], "count": 128, "truncated": true, "stats": {"states": 256}}'),
    ('reversal8', 3, 'pre', '--all --limit 25',
     '{"optimum": 84, "rankings": [[1, 8, 2, 3, 4, 5, 6, 7], [1, 8, 2, 3, 4, 5, 7, 6], [1, 8, 2, 3, 4, 7, 5, 6], [1, 8, 2, 3, 4, 7, 6, 5], [1, 8, 2, 3, 7, 4, 5, 6], [1, 8, 2, 3, 7, 4, 6, 5], [1, 8, 2, 3, 7, 6, 4, 5], [1, 8, 2, 3, 7, 6, 5, 4], [1, 8, 2, 7, 3, 4, 5, 6], [1, 8, 2, 7, 3, 4, 6, 5], [1, 8, 2, 7, 3, 6, 4, 5], [1, 8, 2, 7, 3, 6, 5, 4], [1, 8, 2, 7, 6, 3, 4, 5], [1, 8, 2, 7, 6, 3, 5, 4], [1, 8, 2, 7, 6, 5, 3, 4], [1, 8, 2, 7, 6, 5, 4, 3], [1, 8, 7, 2, 3, 4, 5, 6], [1, 8, 7, 2, 3, 4, 6, 5], [1, 8, 7, 2, 3, 6, 4, 5], [1, 8, 7, 2, 3, 6, 5, 4], [1, 8, 7, 2, 6, 3, 4, 5], [1, 8, 7, 2, 6, 3, 5, 4], [1, 8, 7, 2, 6, 5, 3, 4], [1, 8, 7, 2, 6, 5, 4, 3], [1, 8, 7, 6, 2, 3, 4, 5]], "count": 32, "truncated": true, "stats": {"states": 68}}'),
    ('reversal13', 2, 'dp', '--all --limit 25',
     '{"optimum": 78, "rankings": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 11, 13], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 11, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 12, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10, 12, 13], [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10, 13, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 10, 13], [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 10], [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 10, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 12, 10], [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 10, 11, 13], [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 10, 13, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 11, 10, 13], [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 11, 13, 10], [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 11, 10], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 10, 11, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 10, 12, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 11, 10, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 11, 12, 10], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 12, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 12, 11, 10], [1, 2, 3, 4, 5, 6, 7, 8, 10, 9, 11, 12, 13]], "count": 6227020800, "truncated": true, "stats": {"states": 8192}}'),
    ('reversal13', 3, 'dp', '--all --limit 25',
     '{"optimum": 364, "rankings": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 11, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 12, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 10, 11, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 10, 12, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 12, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 12, 11, 10], [1, 2, 3, 4, 5, 6, 7, 8, 13, 9, 10, 11, 12], [1, 2, 3, 4, 5, 6, 7, 8, 13, 9, 10, 12, 11], [1, 2, 3, 4, 5, 6, 7, 8, 13, 9, 12, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 13, 9, 12, 11, 10], [1, 2, 3, 4, 5, 6, 7, 8, 13, 12, 9, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 13, 12, 9, 11, 10], [1, 2, 3, 4, 5, 6, 7, 8, 13, 12, 11, 9, 10], [1, 2, 3, 4, 5, 6, 7, 8, 13, 12, 11, 10, 9], [1, 2, 3, 4, 5, 6, 7, 13, 8, 9, 10, 11, 12], [1, 2, 3, 4, 5, 6, 7, 13, 8, 9, 10, 12, 11], [1, 2, 3, 4, 5, 6, 7, 13, 8, 9, 12, 10, 11], [1, 2, 3, 4, 5, 6, 7, 13, 8, 9, 12, 11, 10], [1, 2, 3, 4, 5, 6, 7, 13, 8, 12, 9, 10, 11], [1, 2, 3, 4, 5, 6, 7, 13, 8, 12, 9, 11, 10], [1, 2, 3, 4, 5, 6, 7, 13, 8, 12, 11, 9, 10], [1, 2, 3, 4, 5, 6, 7, 13, 8, 12, 11, 10, 9], [1, 2, 3, 4, 5, 6, 7, 13, 12, 8, 9, 10, 11]], "count": 4096, "truncated": true, "stats": {"states": 8192}}'),
    ('reversal13', 13, 'dp', '--all --limit 25',
     '{"optimum": 8178, "rankings": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 11, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 12, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 10, 11, 12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 10, 12, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 12, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 12, 11, 10], [1, 2, 3, 4, 5, 6, 7, 8, 13, 9, 10, 11, 12], [1, 2, 3, 4, 5, 6, 7, 8, 13, 9, 10, 12, 11], [1, 2, 3, 4, 5, 6, 7, 8, 13, 9, 12, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 13, 9, 12, 11, 10], [1, 2, 3, 4, 5, 6, 7, 8, 13, 12, 9, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 13, 12, 9, 11, 10], [1, 2, 3, 4, 5, 6, 7, 8, 13, 12, 11, 9, 10], [1, 2, 3, 4, 5, 6, 7, 8, 13, 12, 11, 10, 9], [1, 2, 3, 4, 5, 6, 7, 13, 8, 9, 10, 11, 12], [1, 2, 3, 4, 5, 6, 7, 13, 8, 9, 10, 12, 11], [1, 2, 3, 4, 5, 6, 7, 13, 8, 9, 12, 10, 11], [1, 2, 3, 4, 5, 6, 7, 13, 8, 9, 12, 11, 10], [1, 2, 3, 4, 5, 6, 7, 13, 8, 12, 9, 10, 11], [1, 2, 3, 4, 5, 6, 7, 13, 8, 12, 9, 11, 10], [1, 2, 3, 4, 5, 6, 7, 13, 8, 12, 11, 9, 10], [1, 2, 3, 4, 5, 6, 7, 13, 8, 12, 11, 10, 9], [1, 2, 3, 4, 5, 6, 7, 13, 12, 8, 9, 10, 11]], "count": 4096, "truncated": true, "stats": {"states": 8192}}'),
    ('mallows16', 2, 'dp', '',
     '{"optimum": 1769, "rankings": [[1, 2, 3, 4, 5, 7, 6, 9, 8, 11, 14, 10, 12, 15, 13, 16]], "count": 1, "truncated": false, "stats": {"states": 65536}}'),
    ('mallows16', 3, 'dp', '',
     '{"optimum": 13517, "rankings": [[1, 2, 4, 3, 5, 7, 6, 8, 9, 11, 14, 10, 12, 15, 13, 16]], "count": 1, "truncated": false, "stats": {"states": 65536}}'),
    ('mallows16', 2, 'pre-refined', '',
     '{"optimum": 1769, "rankings": [[1, 2, 3, 4, 5, 7, 6, 9, 8, 11, 14, 10, 12, 15, 13, 16]], "count": 1, "truncated": false, "stats": {"states": 32}}'),
    ('mallows16', 3, 'pre-refined', '',
     '{"optimum": 13517, "rankings": [[1, 2, 4, 3, 5, 7, 6, 8, 9, 11, 14, 10, 12, 15, 13, 16]], "count": 1, "truncated": false, "stats": {"states": 34}}'),
]


class TestSolveGolden:
    @pytest.mark.parametrize("name, k, mode, flags, expected", GOLDEN_SOLVE)
    def test_stdout_matches(self, capsys, tmp_path, name, k, mode, flags, expected):
        path = tmp_path / f"{name}.txt"
        path.write_text(GOLDEN_TEXTS[name])
        code, out, err = run(
            capsys, "solve", "--input", str(path), "--k", str(k), "--mode", mode,
            *flags.split(),
        )
        assert (code, err) == (0, "")
        assert re.sub(r', "millis": [-+0-9.eE]+', "", out) == expected + "\n"


def _scaled(profile, shift):
    """``profile`` with every group count times 2^shift: the same optima
    and ties, and totals past the int32 bound."""
    return Profile(profile.m, [(ranking, count << shift) for ranking, count in profile.groups])


# Tables of 11 and 12 candidates (one and two bits above the walk's 10-bit
# low part), the 18-candidate benchmark size, and int64 tables.
DP_TEXTS = {
    "m11": serialize_profile(mallows_sample(MallowsParams(Ranking.identity(11), 1.0, 6, 11))),
    "m12": serialize_profile(mallows_sample(MallowsParams(Ranking.identity(12), 1.0, 6, 12))),
    "m18": serialize_profile(mallows_sample(MallowsParams(Ranking.identity(18), 1.0, 50, 1))),
    "wide12": serialize_profile(_scaled(
        mallows_sample(MallowsParams(Ranking.identity(12), 1.0, 6, 12)), 23)),
}

# SHA-256 of `solve --mode dp` stdout with `stats.millis` removed, per flag
# set: plain, `--json` and `--all --limit 25`.
DP_FLAGS = ("", "--json", "--all --limit 25")
GOLDEN_DP_DIGESTS = {
    ("m11", 2): (
        "54552c9c2655bc8618a72af0366a48f2ac35c48423c302c66158dbf38e654b13",
        "54552c9c2655bc8618a72af0366a48f2ac35c48423c302c66158dbf38e654b13",
        "574ea3abfe5d0c65e405aa806fee77c13d96027551e80d56a798daec29121d38",
    ),
    ("m11", 3): (
        "3f2cfabc811faf051042e6b47795dbe887ba31327869897482d2767a6b773953",
        "3f2cfabc811faf051042e6b47795dbe887ba31327869897482d2767a6b773953",
        "9448abf4e6d551f270b68fdaaafa3f21798cbb82c44038dc34b913cbbb3f36c4",
    ),
    ("m11", 11): (
        "5969b638e1d8ed7f0c3c09cab364939a745889b7e58472aa37a97bc0b9531a2e",
        "5969b638e1d8ed7f0c3c09cab364939a745889b7e58472aa37a97bc0b9531a2e",
        "6bea4b4f92edec57ac8e4d1219aa92bfd93bc7b23acad3967f35b0956d053898",
    ),
    ("m12", 2): (
        "ce36fa250633e01ad933f02698c700057eb764d0868e0b26894d78731f2c8b77",
        "ce36fa250633e01ad933f02698c700057eb764d0868e0b26894d78731f2c8b77",
        "928ee463edd91aae0e3b69e424ada72cf6749dac3434c8ce498a36d8d54f4e09",
    ),
    ("m12", 3): (
        "851a583829a255fc8099ec5cee3e4fb3b547cd2b6cd0664379d20754d86a1301",
        "851a583829a255fc8099ec5cee3e4fb3b547cd2b6cd0664379d20754d86a1301",
        "c7eb31208150f9cfac7103f3662dde05aa60075e7537622346c831c33cb8bded",
    ),
    ("m12", 12): (
        "c7c3c80f708f80e77a7f41dc1fea7a2ad8563cd1014ac1fa3417eb34812fc9d4",
        "c7c3c80f708f80e77a7f41dc1fea7a2ad8563cd1014ac1fa3417eb34812fc9d4",
        "b5b076b451dc278613dd21b10da6afb2925cf5a1d7168370996be35743c30ef2",
    ),
    ("m18", 2): (
        "7ef371187d461ff36422a2d0bf159cd97329da60049c6cd3f3638e035d7c82bf",
        "7ef371187d461ff36422a2d0bf159cd97329da60049c6cd3f3638e035d7c82bf",
        "fa2d69f5d0b98adb26cc257e07c3474e932bbcc607c86269e1849beed9153c2a",
    ),
    ("m18", 3): (
        "9b10b91c14920d63725f9829970111307409d66218b18b3763d10f8629321ac9",
        "9b10b91c14920d63725f9829970111307409d66218b18b3763d10f8629321ac9",
        "9b10b91c14920d63725f9829970111307409d66218b18b3763d10f8629321ac9",
    ),
    ("m18", 18): (
        "d42596ac70bcbc8a2f788c9ab4090075317752885dca07eb6d1011e8b74bd3f3",
        "d42596ac70bcbc8a2f788c9ab4090075317752885dca07eb6d1011e8b74bd3f3",
        "d42596ac70bcbc8a2f788c9ab4090075317752885dca07eb6d1011e8b74bd3f3",
    ),
    ("wide12", 2): (
        "7965b6740c04d93714852b713b82e39187ecc5d09883228a84d4f30138697c05",
        "7965b6740c04d93714852b713b82e39187ecc5d09883228a84d4f30138697c05",
        "8ef04df8a5e622e1ad0016936c45bd9d0fc433699f7cf368a4cb373906b779a3",
    ),
    ("wide12", 3): (
        "ee6db586bbfb0388dcae2fd5398be7a0611fea25c8a6db6180a866b2c4d14fc8",
        "ee6db586bbfb0388dcae2fd5398be7a0611fea25c8a6db6180a866b2c4d14fc8",
        "ea827ee45bef7ef19275fe10ccf2e9c002bed589b57e7e9fa69d5434779f827c",
    ),
    ("wide12", 12): (
        "539d341680ee499f934dbc9cdeba44df339be5cd84d5ebeea4c2d67cfc86942f",
        "539d341680ee499f934dbc9cdeba44df339be5cd84d5ebeea4c2d67cfc86942f",
        "642df15d691c9609f0bf8531f361e5298db0e9d4506ecfa7fe52313286d1a552",
    ),
}


@pytest.mark.parametrize("name, k", list(GOLDEN_DP_DIGESTS))
def test_dp_bytes_are_pinned(capsys, tmp_path, name, k):
    path = tmp_path / f"{name}.txt"
    path.write_text(DP_TEXTS[name])
    digests = []
    for flags in DP_FLAGS:
        code, out, err = run(
            capsys, "solve", "--input", str(path), "--k", str(k), "--mode", "dp",
            *flags.split(),
        )
        assert (code, err) == (0, "")
        out = re.sub(r', "millis": [-+0-9.eE]+', "", out)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN_DP_DIGESTS[name, k]


# SHA-256 of a `bench --json` grid with the timing fields removed: every
# mode's optimum and optimum count (`avg_consensus`) at m = 8 and 12.
BENCH_GRID = ("bench --m-list 8,12 --k-list 2,3,m --phi-list 0.5,0.8,1.0 --n 50 "
              "--instances 10 --modes dp,pre,pre-refined --json")
BENCH_GRID_SHA256 = "e539e77c2ac7422f47f34fefce2b8a1d067f1eb0a63c2cc8ab14f248dabfa279"


def test_bench_grid_is_pinned(capsys):
    code, out, err = run(capsys, *BENCH_GRID.split())
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert len(payload["cells"]) == 42
    for cell in payload["cells"]:
        for key in ("avg_ms", "max_ms", "min_ms"):
            del cell[key]
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == BENCH_GRID_SHA256


class TestDigraph:
    def test_arc_listing(self, capsys, six_file):
        code, out, _ = run(capsys, "digraph", "--input", six_file, "--k", "3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["arcs"]) == 17
        arcs = {(a["from"], a["to"]): a for a in payload["arcs"]}
        assert arcs[(4, 3)]["weight"] == 4
        assert arcs[(4, 3)]["witness"] == [3, 4, 5]
        assert payload["components"] == [[1], [2], [3, 4], [5, 6]]
        assert payload["order_unique"] is True

    def test_default_k_is_three(self, capsys, six_file):
        _, with_default, _ = run(capsys, "digraph", "--input", six_file)
        _, with_k3, _ = run(capsys, "digraph", "--input", six_file, "--k", "3")
        assert with_default == with_k3

    def test_refined_arcs_removed(self, capsys, six_file):
        code, out, _ = run(
            capsys, "digraph", "--input", six_file, "--k", "3", "--refine"
        )
        payload = json.loads(out)
        pairs = {(a["from"], a["to"]) for a in payload["arcs"]}
        assert (3, 4) not in pairs
        assert (6, 5) not in pairs
        assert len(pairs) == 15
        assert payload["components"] == [[1], [2], [4], [3], [5], [6]]

    def test_dot_output_stable(self, capsys, six_file):
        code, first, _ = run(capsys, "digraph", "--input", six_file, "--dot")
        code2, second, _ = run(capsys, "digraph", "--input", six_file, "--dot")
        assert code == code2 == 0
        assert first == second
        assert first.startswith("digraph majority {")
        assert 'c4 -> c3 [label="4"];' in first

    def test_k4_guarded(self, capsys, six_file):
        code, _, err = run(capsys, "digraph", "--input", six_file, "--k", "4")
        assert code == 3
        code, out, _ = run(
            capsys, "digraph", "--input", six_file, "--k", "4", "--force-exponential"
        )
        assert code == 0
        assert json.loads(out)["k"] == 4

    def test_k4_candidate_bound(self, capsys, tmp_path):
        path = tmp_path / "m21.txt"
        path.write_text(serialize_profile(impartial_culture(21, 3, 0)))
        code, out, err = run(
            capsys, "digraph", "--input", str(path), "--k", "4", "--force-exponential"
        )
        assert (code, out) == (3, "")
        assert err == (
            "refused: witness search refused: 21 candidates, the pair included, "
            "exceed the bound of 20 (the maximization is NP-hard for k >= 4)\n"
        )

    @pytest.mark.parametrize("text", [
        # 2^63 voters: more than int64 holds
        "4 9223372036854775808\n9223372036854775808: 1,2,3,4\n",
        # the weight of arc 1 -> 2 at k = 3, 3 * 2^62 - 1, wraps in int64
        "4 4611686018427387905\n4611686018427387904: 1,2,3,4\n1: 4,3,2,1\n",
    ])
    @pytest.mark.parametrize("argv", [
        ("digraph", "--k", "3"),
        ("digraph", "--k", "2", "--refine"),
        ("solve", "--mode", "pre", "--k", "3"),
        ("solve", "--mode", "pre-refined", "--k", "2"),
    ])
    def test_accumulation_guarded(self, capsys, tmp_path, text, argv):
        path = tmp_path / "heavy.txt"
        path.write_text(text)
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("refused: disagreement totals for n=")


# SHA-256 of `digraph` stdout, JSON and DOT, on the six-candidate fixture, on
# sampled profiles (DIGRAPH_SAMPLES) at k = 4, 5 and m, on DOMINATED_TEXT,
# and refined at k = 2 and 3 on the m = 30 profiles of PRE_TEXTS.
GOLDEN_DIGRAPHS = [
    ("six", "--k 2",
     "14b8592383a8d8e6a1d01e580427a55399b5ff27cd7ed3ed9450228f47e53448"),
    ("six", "--k 3",
     "e5bda56e379c4368dd18a3d8317c015cb69095e35365f11fb666f7bd23e8ff7c"),
    ("six", "--k 3 --refine",
     "4e2e7647f976b52fb06d283af46602978c71c6be01072e2c0dd2512521895dce"),
    ("six", "--k 4 --force-exponential",
     "d583a62c7b11e7de3019fee04dfdd50699ca3467409cc9ffa8815045c224406b"),
    ("six", "--k 4 --force-exponential --refine",
     "fcc33b0c32ae76460936342616e1f034c5d495241f338a1175ac9e30716657b8"),
    ("six", "--k 3 --dot",
     "2cdfe0da41d6c3c113df416f26e1476b0b29fb2428c39b25209b5eb1484b1e16"),
    ("m12", "--k 3 --refine",
     "626e59b32745a90d0acdc8e55ab228c33baa44cc1949952c9041e7c607c633ca"),
    ("m12", "--k 4 --force-exponential",
     "67e79d448ac94f2dbff468829acdf6ec5cde1ff06ce22c5759608448ae3a3f99"),
    ("m8", "--k 4 --force-exponential --refine",
     "99312c005e4e9395293e47b3692a385b74389b7fc76aca9d3c73dafef33a0cbc"),
    ("m8", "--k 5 --force-exponential --refine",
     "9ea1915700119e8ea662ddcce7535c923ba1a5e1a9080d0abae5faf6d1d9f151"),
    ("m9", "--k 4 --force-exponential --refine",
     "27b6afd589012630614bbf7919ceab2bf648bcf265f55dc83d461f6087791939"),
    ("m9", "--k 5 --force-exponential --refine",
     "73b0e365b7748cf17156a5173f4002f93af6766d7a101548666dbe1f30df256a"),
    ("m10", "--k 4 --force-exponential --refine",
     "940f6830cbc82b4b8ceb82db1cc6bf2da390d2ec40fd789c3fa27747a6c009b5"),
    ("m10", "--k 5 --force-exponential --refine",
     "0ce2621b51ba8827d91fde31717f5d960a1136966efd359ccfce9e25edb233a9"),
    ("dominated", "--k 4 --force-exponential --refine",
     "ed7272161e681f0daf8cbf63f8b59dc78390548b7b7bf3de664980662452548e"),
    ("m16", "--k 4 --force-exponential",
     "59bb9dcd59ed051d1c62aeacb6fdb95193a8e54b353863bb700b10a065910396"),
    ("m12", "--k 12 --force-exponential",
     "5fbcf7947db4c5bc0031adad5c14e17448a2c279f18d16e55cce0e43a0c31fb9"),
    ("m8", "--k 8 --force-exponential --refine",
     "b05df188b5f4b2dec744e1cb8d5f208fa770a9abac81bd42a8d84b34e7494479"),
    ("m9", "--k 9 --force-exponential --refine",
     "fb8417c4aedbf71516c9324bbd7e7d9dcb420f6b38ce44493d33ff0c31c9e7c2"),
    ("m10", "--k 10 --force-exponential --refine",
     "ac0a41e15b30173e6068c7cbea6bda4c9f9b38004506889528233de65bc1946a"),
    ("m30-13", "--k 2 --refine",
     "dfc8c938dec7b69ad112a0dbe257cb363952a33020d1cae58ed41a0a9ed03076"),
    ("m30-13", "--k 2 --refine --dot",
     "d06e2c9e1d5251b695e43c9967b2c0257c6e548716986c7aa238581cc0ffd16d"),
    ("m30-13", "--k 3 --refine",
     "8990c08f2faa2b2f9996ca5430ed4d0fced8ffbe6cbe429d30cfdaf9eaac124a"),
    ("m30-13", "--k 3 --refine --dot",
     "887f133e39a3f51ebb7de65e9c3d0d181b602b89a750bea70eccad8478384715"),
    ("m30-31", "--k 2 --refine",
     "01a546faf1443c731da1a411373b13bd0875dc809d9cc5458ebb9ce4bc1eba70"),
    ("m30-31", "--k 2 --refine --dot",
     "f50fd0ab4c3743346db50bf60ba7d0fae9da6ab9f4a88ede428cf2a6cd18325f"),
    ("m30-31", "--k 3 --refine",
     "0f417682af18adfc818ee1d1e7e0ceb07bfb469a7b4d588a7d21888282d290b1"),
    ("m30-31", "--k 3 --refine --dot",
     "a78a33e1ccee7a5c9ab579e18035c0685073c4c2374e06585aa5f4875f563cc9"),
    ("m30-49", "--k 2 --refine",
     "5ab6934d9edf5921456b9e34eb3efbd9abb563a17da51da2f835de14022ef36e"),
    ("m30-49", "--k 2 --refine --dot",
     "a14e9046c0dbb2ed0b460e9fa1427a987a455b2c2597fe1ac9d50f937a62f5e9"),
    ("m30-49", "--k 3 --refine",
     "0ec61d34d53dfa29419bd88b2082af2b67e1a98ee2363789c1a64b2de3ea0f6e"),
    ("m30-49", "--k 3 --refine --dot",
     "1594f633be679b26f406f64841326138fb89407210f1452f18491a45bb39ee25"),
    ("repeats30", "--k 2 --refine",
     "353383640f012fe161722f84ea9988556bf7fe655df7851ad8b3ada5bff6a5ac"),
    ("repeats30", "--k 2 --refine --dot",
     "77141390f932ba6105d571d46404b198ad1638ed80bd41e51daa84c524b6d211"),
    ("repeats30", "--k 3 --refine",
     "9c86acbdcdeece940b0ab50566d1bdf49c562d8665d8b0e52fdac96e8c7163d0"),
    ("repeats30", "--k 3 --refine --dot",
     "45dfe11285651815e0de4d0601f5a13aa1edbc63b60ca35df6dabb71762679d2"),
]


# Mallows profiles of the digraph pins: (m, phi, n, seed)
DIGRAPH_SAMPLES = {
    "m12": (12, 0.8, 50, 12),
    "m8": (8, 0.9, 50, 10),
    "m9": (9, 0.9, 50, 10),
    "m10": (10, 0.9, 50, 11),
    "m16": (16, 0.8, 50, 16),
}
# At k = 4 the arc (c1, c5) lies in the component {c1, c4, c5}, and every
# voter ranks c4 above c5: refinement must leave c4 out of its witnesses.
DOMINATED_TEXT = "5 2\n1: 2,4,5,3,1\n1: 3,1,4,5,2\n"


@pytest.mark.parametrize("name, flags, digest", GOLDEN_DIGRAPHS)
def test_digraph_bytes_are_pinned(capsys, tmp_path, name, flags, digest):
    if name == "six":
        text = SIX_TEXT
    elif name == "dominated":
        text = DOMINATED_TEXT
    elif name in PRE_TEXTS:
        text = PRE_TEXTS[name]
    else:
        m, phi, n, seed = DIGRAPH_SAMPLES[name]
        text = serialize_profile(mallows_sample(MallowsParams(Ranking.identity(m), phi, n, seed)))
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    code, out, err = run(capsys, "digraph", "--input", str(path), *flags.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _repeated_text(profile):
    """``profile``'s ballots written twice, the second time in reverse
    order and with count 1, the first with counts 1 to 3: the reader merges
    each ballot's two lines into one group."""
    ballots = [",".join(map(str, ranking.to_one_based())) for ranking, _ in profile.groups]
    lines = [f"{1 + i % 3}: {ids}" for i, ids in enumerate(ballots)]
    lines += [f"1: {ids}" for ids in reversed(ballots)]
    total = sum(1 + i % 3 for i in range(len(ballots))) + len(ballots)
    return "\n".join([f"{profile.m} {total}", *lines]) + "\n"


def _mallows30(seed):
    return mallows_sample(MallowsParams(Ranking.identity(30), 0.85, 50, seed))


# m = 30, phi = 0.85, n = 50 Mallows profiles whose k = 3 refinement runs
# five (seeds 13 and 31) or six (seed 49) passes, and the seed-31 ballots
# written with repeats.
PRE_TEXTS = {f"m30-{seed}": serialize_profile(_mallows30(seed)) for seed in (13, 31, 49)}
PRE_TEXTS["repeats30"] = _repeated_text(_mallows30(31))

# SHA-256 of `solve --mode pre-refined` stdout with `stats.millis` removed,
# per flag set.
PRE_FLAGS = ("", "--json", "--all --limit 5", "--all --limit 5 --json")
GOLDEN_PRE_DIGESTS = {
    ('m30-13', 2): (
        "b84ebf81189e5b12e861313f2da87e92b2ca88d01cd80b1fa24886c703308273",
        "b84ebf81189e5b12e861313f2da87e92b2ca88d01cd80b1fa24886c703308273",
        "31d81bf74afb39f0d9099383418d28707846fe4ff4c47d19d6ed426880e59176",
        "31d81bf74afb39f0d9099383418d28707846fe4ff4c47d19d6ed426880e59176",
    ),
    ('m30-13', 3): (
        "192c3ea4afabe4ced90fefad49ec2d3d01085cf7d84976dae7d6850395e252cb",
        "192c3ea4afabe4ced90fefad49ec2d3d01085cf7d84976dae7d6850395e252cb",
        "bf7c3b2bab7aff5e2c915fe80b12bb19548614b686b99801531ae28e236c4d9d",
        "bf7c3b2bab7aff5e2c915fe80b12bb19548614b686b99801531ae28e236c4d9d",
    ),
    ('m30-31', 2): (
        "df0b9ffdee8906987b5a508dedbf3250395035365b5d0aad745ae9b28cd60401",
        "df0b9ffdee8906987b5a508dedbf3250395035365b5d0aad745ae9b28cd60401",
        "fcf63a0ff411b470ac669de96b1d82a709861d81c2dc4ab9735b2cf28d288c49",
        "fcf63a0ff411b470ac669de96b1d82a709861d81c2dc4ab9735b2cf28d288c49",
    ),
    ('m30-31', 3): (
        "2ada1b63fa261d96ba7f4dcfb598a22cae6a52d3af8af66fc64be108d7c0a224",
        "2ada1b63fa261d96ba7f4dcfb598a22cae6a52d3af8af66fc64be108d7c0a224",
        "5edede58d35ae324291f947637f7391e898b0bb1a946fb28b69a0fcf6cdeceda",
        "5edede58d35ae324291f947637f7391e898b0bb1a946fb28b69a0fcf6cdeceda",
    ),
    ('m30-49', 2): (
        "cd38fc2747bdb32cb615bdcd70008c508a87f6ed5b6f59c73b8327fc6e21520d",
        "cd38fc2747bdb32cb615bdcd70008c508a87f6ed5b6f59c73b8327fc6e21520d",
        "cd38fc2747bdb32cb615bdcd70008c508a87f6ed5b6f59c73b8327fc6e21520d",
        "cd38fc2747bdb32cb615bdcd70008c508a87f6ed5b6f59c73b8327fc6e21520d",
    ),
    ('m30-49', 3): (
        "35c9c034c77917bd1f26ae843cd6d10b127242f904821d504a37e9a077b40910",
        "35c9c034c77917bd1f26ae843cd6d10b127242f904821d504a37e9a077b40910",
        "35c9c034c77917bd1f26ae843cd6d10b127242f904821d504a37e9a077b40910",
        "35c9c034c77917bd1f26ae843cd6d10b127242f904821d504a37e9a077b40910",
    ),
    ('repeats30', 2): (
        "75d2833f1e1033f78c02d16e9da52e9cedd75e127395ea5aa779e90506eb945f",
        "75d2833f1e1033f78c02d16e9da52e9cedd75e127395ea5aa779e90506eb945f",
        "f6213f83dbc39cc022fbed7c3f5eff276e5d135f7babc8371adbe67bc939d944",
        "f6213f83dbc39cc022fbed7c3f5eff276e5d135f7babc8371adbe67bc939d944",
    ),
    ('repeats30', 3): (
        "893fa7b7655199b15203bf92482ab4d6be04ed412cf9f64224ccf504cc13cf08",
        "893fa7b7655199b15203bf92482ab4d6be04ed412cf9f64224ccf504cc13cf08",
        "893fa7b7655199b15203bf92482ab4d6be04ed412cf9f64224ccf504cc13cf08",
        "893fa7b7655199b15203bf92482ab4d6be04ed412cf9f64224ccf504cc13cf08",
    ),
}


@pytest.mark.parametrize("name, k", list(GOLDEN_PRE_DIGESTS))
def test_pre_refined_bytes_are_pinned(capsys, tmp_path, name, k):
    path = tmp_path / f"{name}.txt"
    path.write_text(PRE_TEXTS[name])
    digests = []
    for flags in PRE_FLAGS:
        code, out, err = run(
            capsys, "solve", "--input", str(path), "--k", str(k), "--mode", "pre-refined",
            *flags.split(),
        )
        assert (code, err) == (0, "")
        out = re.sub(r', "millis": [-+0-9.eE]+', "", out)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN_PRE_DIGESTS[name, k]


ONE_DIGRAPH = (
    '{"m": 1, "k": %d, "refined": %s, "arcs": [], "components": [[1]], '
    '"order_unique": true}\n'
)
ONE_DOT = (
    'digraph majority {\n  rankdir=LR;\n  subgraph cluster_0 {\n'
    '    label="B1";\n    c1;\n  }\n}\n'
)
EXPONENTIAL_REFUSAL = (
    "refused: constructing the 4-wise majority digraph requires an exponential "
    "witness search (NP-hard for k >= 4); pass allow_exponential=True / "
    "--force-exponential to proceed\n"
)
TOO_LARGE_K = "error: k must satisfy 2 <= k <= m, got k=4, m=3\n"

# (profile, argv, exit code, stdout, stderr): every command takes a
# one-candidate profile for any k >= 2, and k > m still fails for m >= 2.
ONE_CANDIDATE_CASES = [
    ("single", "distance --rank 1 --k 2", 0, "0\n", ""),
    ("single", "distance --rank 1 --k 5", 0, "0\n", ""),
    ("single", "digraph --k 2", 0, ONE_DIGRAPH % (2, "false"), ""),
    ("single", "digraph --k 2 --refine", 0, ONE_DIGRAPH % (2, "true"), ""),
    ("single", "digraph --k 2 --dot", 0, ONE_DOT, ""),
    ("single", "digraph --k 4", 3, "", EXPONENTIAL_REFUSAL),
    ("single", "digraph --k 4 --force-exponential", 0,
     ONE_DIGRAPH % (4, "false"), ""),
    ("tension", "distance --rank 1,2,3 --k 4", 2, "", TOO_LARGE_K),
    ("tension", "digraph --k 4", 2, "", TOO_LARGE_K),
    ("tension", "solve --k 4", 2, "", TOO_LARGE_K),
]


class TestOneCandidate:
    @pytest.mark.parametrize(
        "name, argv, code, out, err",
        ONE_CANDIDATE_CASES,
        ids=[f"{case[0]}-{case[1]}" for case in ONE_CANDIDATE_CASES],
    )
    def test_output(self, capsys, tmp_path, name, argv, code, out, err):
        path = tmp_path / f"{name}.txt"
        path.write_text(GOLDEN_TEXTS[name])
        assert run(capsys, *argv.split(), "--input", str(path)) == (code, out, err)


class TestSample:
    def test_deterministic_output(self, capsys):
        args = ("sample", "--model", "mallows", "--m", "5", "--n", "8",
                "--phi", "0.7", "--seed", "99")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert first.splitlines()[0] == "5 8"

    def test_output_file_round_trips(self, capsys, tmp_path):
        target = tmp_path / "sampled.txt"
        code, _, _ = run(
            capsys, "sample", "--model", "ic", "--m", "4", "--n", "10",
            "--seed", "5", "--output", str(target),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "solve", "--input", str(target), "--k", "2", "--mode", "dp"
        )
        assert code == 0

    def test_sigma_length_checked(self, capsys):
        code, _, err = run(
            capsys, "sample", "--m", "4", "--n", "2", "--phi", "0.5",
            "--sigma", "1,2,3",
        )
        assert code == 2

    def test_phi_required_for_mallows(self, capsys):
        code, _, err = run(capsys, "sample", "--m", "4", "--n", "2")
        assert code == 2
        assert "phi" in err

    def test_soc_input_supported(self, capsys, tmp_path):
        soc = tmp_path / "toy.soc"
        soc.write_text(
            "# FILE NAME: toy.soc\n# NUMBER ALTERNATIVES: 3\n49: 1,2,3\n48: 3,2,1\n3: 2,3,1\n"
        )
        code, out, _ = run(
            capsys, "distance", "--input", str(soc), "--rank", "1,2,3", "--k", "3"
        )
        assert code == 0
        assert out.strip() == "201"


class TestBench:
    def test_small_grid_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "bench", "--m-list", "4", "--k-list", "2,m", "--phi-list",
            "0.8", "--n", "6", "--instances", "2", "--seed", "11",
            "--modes", "dp,pre", "--csv-out", str(csv_path),
            "--json-out", str(json_path),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,k,phi,mode,avg_ms,max_ms,min_ms,avg_consensus,avg_largest_scc"
        assert len(lines) == 4  # k=2 two modes, k=4 dp only... plus header
        assert csv_path.read_text() == out
        payload = json.loads(json_path.read_text())
        assert payload["metadata"]["seed"] == 11

    def test_json_flag_switches_stdout(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--m-list", "4", "--k-list", "2", "--phi-list",
            "0.9", "--n", "4", "--instances", "2", "--modes", "dp", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cells"][0]["m"] == 4


    def test_unknown_mode_is_input_error(self, capsys):
        for mode in ("preprocessed", "preprocessed-refined"):
            code, out, err = run(
                capsys, "bench", "--m-list", "4", "--k-list", "2", "--phi-list",
                "0.9", "--n", "4", "--instances", "2", "--modes", f"dp,{mode}",
            )
            assert (code, out) == (2, "")
            assert err.startswith(f"error: unknown solver mode '{mode}'")

    @pytest.mark.parametrize("ks", ["1", "0,-3"])
    def test_k_below_two_is_input_error(self, capsys, ks):
        code, out, err = run(
            capsys, "bench", "--m-list", "4", "--k-list", ks, "--phi-list",
            "0.9", "--n", "4", "--instances", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: every k must be at least 2")

    @pytest.mark.parametrize("timeout", ["-1", "nan"])
    def test_meaningless_timeout_is_input_error(self, capsys, timeout):
        code, out, err = run(
            capsys, "bench", "--m-list", "4", "--k-list", "2", "--phi-list",
            "0.9", "--n", "4", "--instances", "2", "--timeout", timeout,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: timeout must be at least 0 seconds")

    @pytest.mark.parametrize("phis", ["inf", "nan", "0", "0.9,-1", "1.5"])
    def test_phi_outside_unit_interval_is_input_error(self, capsys, phis):
        code, out, err = run(
            capsys, "bench", "--m-list", "4", "--k-list", "2", "--phi-list",
            phis, "--n", "4", "--instances", "2",
        )
        assert (code, out) == (2, "")
        values = [float(phi) for phi in phis.split(",")]
        assert err == f"error: phi must lie in (0, 1], got {values}\n"

    @pytest.mark.parametrize("ms", ["0", "-3", "4,0"])
    def test_m_below_one_is_input_error(self, capsys, ms):
        code, out, err = run(
            capsys, "bench", "--m-list", ms, "--k-list", "2", "--phi-list",
            "0.9", "--n", "4", "--instances", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: every m must be at least 1")

    def test_one_candidate_has_no_cells(self, capsys):
        # k = m resolves to 1, which is dropped as a k above m is
        code, out, err = run(
            capsys, "bench", "--m-list", "1", "--phi-list", "0.9", "--n", "4",
            "--instances", "2",
        )
        assert (code, out, err) == (
            0, "m,k,phi,mode,avg_ms,max_ms,min_ms,avg_consensus,avg_largest_scc\n", ""
        )


# Flags that keep a run small; the flag under test comes after them and wins.
SMALL_RUN = {
    "bench": ("--m-list", "3", "--k-list", "2", "--phi-list", "1", "--n", "2",
              "--instances", "1", "--modes", "dp"),
    "sample": ("--m", "3", "--n", "2", "--phi", "1"),
}


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "1e300", "x"])
@pytest.mark.parametrize("command, flag", [
    ("bench", "--m-list"), ("bench", "--k-list"), ("bench", "--phi-list"),
    ("bench", "--n"), ("bench", "--instances"),
    ("sample", "--m"), ("sample", "--n"), ("sample", "--phi"),
])
def test_numeric_flags_refuse_without_traceback(capsys, command, flag, value):
    # main returns instead of raising: an uncaught exception fails the test
    code, out, err = run(capsys, command, *SMALL_RUN[command], flag, value)
    assert (code, out) == (2, "")
    assert "error:" in err


class TestParser:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_repeated_calls_match_fresh_interpreters(
        self, capsys, monkeypatch, tension_file, six_file
    ):
        # one process parses every call with the same parser, so nothing
        # parsed for one call may show in the next
        monkeypatch.setenv("COLUMNS", "80")
        sequence = [
            ["solve", "--input", six_file, "--k", "3", "--all", "--limit", "2"],
            ["solve", "--input", six_file, "--k", "3"],
            ["distance", "--input", tension_file, "--rank", "1,2,3", "--k", "3",
             "--json"],
            ["distance", "--input", tension_file, "--rank", "1,2,3", "--k", "2"],
            ["solve", "--input", six_file, "--k", "3", "--mode", "nope"],
            ["digraph", "--input", six_file, "--refine"],
            ["digraph", "--input", six_file, "--dot"],
            ["--help"],
            ["solve", "--input", tension_file, "--k", "2", "--mode", "pre-refined",
             "--json"],
            ["sample", "--m", "4", "--n", "5", "--phi", "0.5", "--seed", "3"],
            ["sample", "--model", "ic", "--m", "3", "--n", "2"],
            ["solve", "--help"],
            ["solve", "--input", tension_file, "--k", "2"],
        ]
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        script = "import sys; from kwise_kemeny.cli import main; sys.exit(main(sys.argv[1:]))"
        for argv in sequence:
            in_process = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-c", script, *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            expected = (fresh.returncode, fresh.stdout, fresh.stderr)
            assert strip_millis(in_process) == strip_millis(expected), argv


def strip_millis(outcome):
    code, out, err = outcome
    return code, re.sub(r'"millis": [^,}]+', '"millis": 0', out), err


def test_repeated_solves_retain_no_blocks(capsys, tmp_path):
    """Allocated blocks stay flat over repeated in-process solves.

    A reference cycle per call, or a tuple built from a generator on the
    solve path (each such call leaves one more block on a tuple freelist),
    makes the count grow with the number of calls.
    """
    path = tmp_path / "p.txt"
    assert main(["sample", "--m", "12", "--n", "30", "--phi", "0.8", "--seed", "5",
                 "--output", str(path)]) == 0
    argv = ["solve", "--input", str(path), "--k", "3", "--mode", "pre-refined"]
    for _ in range(100):
        main(argv)
    capsys.readouterr()
    before = sys.getallocatedblocks()
    for _ in range(400):
        main(argv)
    capsys.readouterr()
    assert sys.getallocatedblocks() - before < 100
