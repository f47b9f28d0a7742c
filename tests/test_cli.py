import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kwise_kemeny import cli, impartial_culture, serialize_profile
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

    @pytest.mark.parametrize("mode", ["brute", "dp", "pre", "pre-refined"])
    def test_one_candidate_refuses_k_below_two(self, capsys, tmp_path, mode):
        path = tmp_path / "one.txt"
        path.write_text("1 3\n3: 1\n")
        for k in ("0", "-1"):
            for flags in ((), ("--all",)):
                code, out, err = run(capsys, "solve", "--input", str(path),
                                     "--k", k, "--mode", mode, *flags)
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


# One candidate, and a profile whose two voters disagree on every pair, so
# optima tie and `count`/`truncated` differ between modes and flags.
GOLDEN_TEXTS = {
    "six": SIX_TEXT,
    "tension": TENSION_TEXT,
    "single": "1 3\n3: 1\n",
    "reversal": "4 2\n1: 1,2,3,4\n1: 4,3,2,1\n",
}

# `solve` stdout for every mode and enumeration flag, `stats.millis` removed.
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
