"""Exit-code contract and output format for the command-line interface."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nonrep.cli import build_parser, main
from nonrep.graphs import Graph, stacked_triangulation
from nonrep.words import Morphism, generate_powerfree_ternary
from test_search import recursion_headroom
from test_words import naive_threshold_free


def test_word_gen(capsys):
    assert main(["word", "gen", "--length", "30"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 30 and set(out) <= set("012")


def test_word_gen_long(capsys):
    # generation needs no recursion, so it runs past the interpreter's depth
    assert main(["word", "gen", "--length", "1000"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 1000 and naive_threshold_free(out)


def test_word_check_free_pass(capsys):
    assert main(["word", "check-free", "--beta", "7/4", "--strict", "012"]) == 0


def test_word_check_free_fail(capsys):
    assert main(["word", "check-free", "--beta", "2", "00"]) == 1
    out = capsys.readouterr().out
    assert "period=1" in out and "exp=2/1" in out


def test_word_check_directed(capsys):
    assert main(["word", "check-directed", "--d", "3", "0123210"]) == 1
    assert main(["word", "check-directed", "--d", "2", "012"]) == 0


def test_non_strict_beta_one_exit_2(capsys):
    # every factor has exponent >= 1, so a non-strict bound of 1 would forbid
    # every word; it is refused rather than read as forbidding nothing
    assert main(["word", "check-free", "--beta", "1", "01"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert main(["word", "check-free", "--strict", "--beta", "1", "01"]) == 0


def test_malformed_rational_exit_2(capsys):
    assert main(["word", "check-free", "--beta", "1.9", "00"]) == 2
    assert main(["word", "check-free", "--beta", "x/y", "00"]) == 2


def test_morphism_apply(capsys):
    assert main(["morphism", "apply", "--morphism", "g2", "01"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "011220012201122001120012"
    assert main(["morphism", "apply", "--morphism", "g2", "03"]) == 2


def test_unknown_morphism_exit_2():
    assert main(["morphism", "apply", "--morphism", "nope", "0"]) == 2


def test_morphism_non_digit_image_exit_2(capsys, tmp_path):
    f = tmp_path / "letters.txt"
    f.write_text("0 -> 0a1\n1 -> 1b0\n2 -> 2c2\n")
    assert main(["morphism", "apply", "--morphism", str(f), "012"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_treecert_width_zero_morphism_exit_2(capsys, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("0 ->\n1 ->\n2 ->\n")
    rc = main(
        [
            "treecert", "certify", "--morphism", str(f), "--k", "1",
            "--beta", "19/10", "--n", "1", "--d", "2", "--factor-len", "4",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and captured.err.startswith("error:")


def test_treecert_certify_pass(capsys):
    rc = main(
        [
            "treecert", "certify", "--morphism", "g2", "--k", "2",
            "--beta", "19/10", "--n", "2", "--d", "3", "--factor-len", "8",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["p_star"] == 20 and doc["factor_len"] == 8
    assert doc["checks"][2]["params"]["scan_range"] == [2, 19]


def test_treecert_certify_fail(capsys, tmp_path):
    f = tmp_path / "const.txt"
    f.write_text("0 -> 0\n1 -> 0\n2 -> 0\n")
    rc = main(
        [
            "treecert", "certify", "--morphism", str(f), "--k", "1",
            "--beta", "19/10", "--n", "1", "--d", "2", "--factor-len", "4",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert json.loads(out)["passed"] is False


def _certify_short_window(capsys, tmp_path, table, args):
    """Run treecert certify on a morphism table whose images are shorter than
    the scan needs; return the JSON certificate after checking exit code 1."""
    f = tmp_path / "morphism.txt"
    f.write_text(table)
    rc = main(["treecert", "certify", "--morphism", str(f), *args])
    captured = capsys.readouterr()
    assert rc == 1, captured.err
    doc = json.loads(captured.out)
    assert doc["passed"] is False
    # the freeness counterexample is genuine, by slicing
    cx = doc["checks"][0]["counterexample"]
    images = Morphism.from_text(table).images
    assert cx["image"] == "".join(images[int(c)] for c in cx["source"])
    rep = cx["repetition"]
    start, length, p = rep["start"], rep["length"], rep["period"]
    factor = cx["image"][start : start + length]
    assert len(factor) == length and factor[p:] == factor[:-p]
    assert p >= doc["n"] and Fraction(length, p) > Fraction(doc["beta"])
    return doc


def test_treecert_square_range_past_image_exit_1(capsys, tmp_path):
    # k = 3 exceeds half the 4-symbol images: no square period fits
    doc = _certify_short_window(
        capsys, tmp_path, "0 -> 00\n1 -> 01\n2 -> 10\n",
        ["--k", "3", "--beta", "3/2", "--n", "1", "--d", "2", "--factor-len", "2"],
    )
    assert doc["checks"][1]["counterexample"] == {"factor": "00", "reversal": "00"}
    # p* = 2 <= k: the threshold step scans no period, written as []
    threshold = doc["checks"][2]
    assert threshold["name"] == "threshold"
    assert threshold["params"] == {"p_star": 2, "scan_range": []}


def test_treecert_directedness_window_past_image_exit_1(capsys, tmp_path):
    # d = 3 exceeds the 2-symbol images: they have no factor of length d
    doc = _certify_short_window(
        capsys, tmp_path, "0 -> 0\n1 -> 0\n2 -> 0\n",
        ["--k", "1", "--beta", "19/10", "--n", "1", "--d", "3", "--factor-len", "2"],
    )
    assert doc["checks"][1]["passed"] and doc["checks"][1]["params"]["factors_of_length_d"] == 0


def test_treecert_bad_factor_len_exit_2(capsys):
    rc = main(
        [
            "treecert", "certify", "--morphism", "g2", "--k", "2",
            "--beta", "19/10", "--n", "2", "--d", "3", "--factor-len", "3",
        ]
    )
    assert rc == 2


def test_graph_gen_round_trip(capsys, tmp_path):
    out_file = tmp_path / "g.json"
    assert main(["graph", "gen", "--family", "stacked", "--i", "2", "--out", str(out_file)]) == 0
    g = Graph.from_json_dict(json.loads(out_file.read_text()))
    assert g == stacked_triangulation(2)


def test_graph_gen_stdout(capsys):
    assert main(["graph", "gen", "--family", "path", "--n", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 5 and len(doc["edges"]) == 4


@pytest.mark.parametrize("family, i", [("stacked", 12), ("outeru", 25), ("leveled", 10**9)])
def test_graph_gen_over_vertex_budget_exit_2(capsys, family, i):
    # refused before anything is built: G_12 would have 1 062 884 vertices,
    # U_25 33 554 433, and the leveled graph (one child per vertex) 10^9 + 1
    assert main(["graph", "gen", "--family", family, "--i", str(i), "--n", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "budget" in err


CERTIFY_G2 = ["treecert", "certify", "--morphism", "g2", "--k", "2", "--beta", "19/10", "--n", "2"]


@pytest.mark.parametrize("argv, message", [
    (["word", "gen", "--length", "100000000"], "length 100000050 is past the budget"),
    (["search", "word", "--alphabet", "3", "--k", "1", "--target", "100000000"], "length 100000000 is past"),
    # from d alone, before the period walks: ceil(d / 12) + 1
    (CERTIFY_G2 + ["--d", "100000"], "need factor_len >= 8335: past the budget"),
    (CERTIFY_G2 + ["--d", "1000"], "need factor_len >= 85: past the budget"),
    # d alone implies 35; the periods the checks leave open need 265
    (CERTIFY_G2 + ["--d", "400"], "need factor_len >= 265: past the budget"),
    (CERTIFY_G2 + ["--d", "3", "--factor-len", "41"], "factor_len 41: past the budget"),
], ids=["word-gen", "search-word", "certify-d100000", "certify-d1000", "certify-d400", "certify-factor-len-41"])
def test_past_budget_exit_2(capsys, argv, message):
    # refused before the word or the source words are built, instead of a
    # MemoryError or a run of many seconds
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err.startswith("error: ") and message in err


def test_graph_verify(capsys, tmp_path):
    f = tmp_path / "p4.json"
    main(["graph", "gen", "--family", "path", "--n", "4", "--out", str(f)])
    capsys.readouterr()
    assert main(["graph", "verify", "--graph", str(f), "--colors", "0,1,0,2", "--k", "1"]) == 0
    assert main(["graph", "verify", "--graph", str(f), "--colors", "0,1,0,1", "--k", "1"]) == 1
    out = capsys.readouterr().out
    assert "period=2" in out
    assert main(["graph", "verify", "--graph", str(f), "--colors", "0,1,0", "--k", "1"]) == 2


def test_graph_verify_long_path(capsys, tmp_path):
    # the verifier walks each path to its end; 200 vertices is far deeper
    # than the lowered recursion limit allows a recursive walk to go
    n = 200
    f = tmp_path / "p.json"
    main(["graph", "gen", "--family", "path", "--n", str(n), "--out", str(f)])
    word = generate_powerfree_ternary(n)
    clean = ",".join(word)
    flat = ",".join("0" * n)
    capsys.readouterr()
    with recursion_headroom(50):
        assert main(["graph", "verify", "--graph", str(f), "--colors", clean, "--k", "90"]) == 0
        assert main(["graph", "verify", "--graph", str(f), "--colors", flat, "--k", "90"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and err == ""
    assert out.splitlines()[0] == "no violating path"
    assert "period=90" in out.splitlines()[1]


def test_graph_verify_one_vertex(capsys, tmp_path):
    f = tmp_path / "p1.json"
    assert main(["graph", "gen", "--family", "path", "--n", "1", "--out", str(f)]) == 0
    assert main(["graph", "verify", "--graph", str(f), "--colors", "0", "--k", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "no violating path\n" and "Traceback" not in captured.err


@pytest.mark.parametrize("max_path", ["0", "-1"])
def test_graph_verify_nonpositive_max_path_exit_2(capsys, tmp_path, max_path):
    # 0 is an explicit value, not "unset": it must not fall back to g.n
    f = tmp_path / "p4.json"
    main(["graph", "gen", "--family", "path", "--n", "4", "--out", str(f)])
    capsys.readouterr()
    argv = ["graph", "verify", "--graph", str(f), "--colors", "0,0,0,0", "--k", "1"]
    assert_usage_error(capsys, argv + ["--max-path", max_path])


def test_graph_verify_missing_file():
    assert main(["graph", "verify", "--graph", "/no/such.json", "--colors", "0", "--k", "1"]) == 2


def assert_usage_error(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and err.startswith("error:") and "Traceback" not in out + err


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"edges": []},
        {"n": "2", "edges": []},
        {"n": -1, "edges": []},
        {"n": True, "edges": []},
        {"n": 1, "edges": {}},
        {"n": 2, "edges": [0]},
        {"n": 2, "edges": [[0]]},
        {"n": 2, "edges": [["0", "1"]]},
        {"n": 1, "edges": [], "construction": [[0]]},
        {"n": 1, "edges": [], "construction": [["0", []]]},
        {"n": 1, "edges": [], "construction": [[0, 1]]},
        {"n": 1, "edges": [], "faces": [[0, 0]]},
        {"n": 1, "edges": [], "main_edge": [0]},
        {"n": 1, "edges": [], "levels": "0"},
        {"n": 1, "edges": [], "family": 3},
    ],
)
def test_graph_json_wrong_shape_exit_2(capsys, tmp_path, doc):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(doc))
    assert_usage_error(capsys, ["graph", "verify", "--graph", str(f), "--colors", "0", "--k", "1"])
    assert_usage_error(capsys, ["search", "pik", "--graph", str(f), "--k", "1"])


def test_search_pik(capsys):
    assert main(["search", "pik", "--n", "4", "--k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 3 and doc["exhausted"] is False
    assert main(["search", "pik", "--n", "6", "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 19


def test_search_word(capsys):
    assert main(["search", "word", "--alphabet", "3", "--k", "1", "--target", "50"]) == 0
    rc = main(["search", "word", "--alphabet", "2", "--k", "1", "--target", "4"])
    out = capsys.readouterr().out
    assert rc == 1 and "010" in out


def test_search_nan_time_limit_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("NONREP_TIME_LIMIT", "nan")  # nan <= 0 is False: no deadline
    assert_usage_error(capsys, ["search", "pik", "--n", "4", "--k", "1"])


def test_search_word_alphabet_past_ten_exit_2(capsys):
    assert_usage_error(capsys, ["search", "word", "--alphabet", "11", "--k", "1", "--target", "5"])


@pytest.mark.parametrize("argv", [
    ["word", "check-free", "--beta", "7/4", "0\uff10"],  # "00" with a full-width 0
    ["word", "check-directed", "--d", "2", "0\uff1110"],  # "0110" with a full-width 1
    ["morphism", "apply", "--morphism", "g2", "\uff10"],
], ids=["check-free", "check-directed", "morphism-apply"])
def test_non_ascii_digit_exit_2(capsys, argv):
    # str.isdigit() accepts full-width digits, whose code points the
    # repetition checks would compare instead of their values
    assert_usage_error(capsys, argv)


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "nonrep", "search", "pik", "--n", "4", "--k", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["value"] == 3


def test_search_tree_witness_is_gone(capsys):
    assert main(["search", "tree-witness", "--k", "1", "--colors", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid choice: 'tree-witness'" in err


def test_suite_unknown_criterion_exit_2(capsys):
    assert_usage_error(capsys, ["suite", "run", "--only", "10"])
    assert_usage_error(capsys, ["suite", "run", "--only", "1,0,12"])
    assert_usage_error(capsys, ["suite", "run", "--only", ""])  # not "run them all"


def test_suite_only_flag(capsys):
    assert main(["suite", "run", "--only", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 1 and doc[0]["number"] == 1 and doc[0]["passed"] is True


# one argv per subcommand, passing, failing and refused ones mixed
MIXED_ARGV = [
    ["word", "gen", "--length", "12"],
    ["word", "check-free", "--beta", "2", "00"],
    ["word", "check-free", "--beta", "1.9", "00"],
    ["word", "check-directed", "--d", "3", "0123210"],
    ["morphism", "apply", "--morphism", "g5", "012"],
    ["morphism", "apply", "--morphism", "nosuch", "0"],
    ["treecert", "certify", "--morphism", "g2", "--k", "2", "--beta", "19/10", "--n", "2", "--d", "3"],
    ["treecert", "certify", "--morphism", "g2", "--k", "2"],
    ["graph", "gen", "--family", "stacked", "--i", "1"],
    ["search", "pik", "--n", "5", "--k", "1"],
    ["search", "word", "--alphabet", "2", "--k", "1", "--target", "4"],
    ["suite", "run", "--only", "10"],
    ["search", "tree-witness"],
    ["word", "gen", "--help"],
    [],
]


def test_main_repeats_in_one_process(capsys):
    # the parser is built once; every later parse sees it as it was
    rounds = []
    for _ in range(3):
        results = []
        for argv in MIXED_ARGV:
            rc = main(list(argv))
            results.append((rc, *capsys.readouterr()))
        rounds.append(results)
    assert rounds[0] == rounds[1] == rounds[2]
    assert [rc for rc, _, _ in rounds[0]] == [0, 1, 2, 1, 0, 2, 0, 2, 0, 0, 1, 2, 2, 0, 2]
    assert build_parser() is build_parser()


# values that argparse or the commands must refuse or handle: zero,
# negatives, non-digits, nan, floats and a zero denominator, drawn about
# half as often as small valid ones
EDGE_INTS = st.sampled_from(["1", "2", "3", "4"] * 3 + ["0", "-1", "-5", "x", "nan", "1.5", ""])
EDGE_RATIONALS = st.sampled_from(["7/4", "3/2", "19/10", "83/42", "2"] * 3
                                 + ["1", "0", "-1", "1/0", "nan", "1.9", "x/y", ""])
EDGE_WORDS = st.text("0123", max_size=8) | st.text("0123a\uff10", max_size=8)

# per subcommand, its flags and the values each takes; `suite run` always
# names a criterion that does not exist, so no argv runs the suite
GRAMMAR = {
    ("word", "gen"): {"--length": EDGE_INTS},
    ("word", "check-free"): {"--beta": EDGE_RATIONALS, "--n": EDGE_INTS, "--strict": None, "word": EDGE_WORDS},
    ("word", "check-directed"): {"--d": EDGE_INTS, "word": EDGE_WORDS},
    ("morphism", "apply"): {"--morphism": st.sampled_from(["g2", "g5", "nosuch", ""]), "word": EDGE_WORDS},
    ("treecert", "certify"): {
        "--morphism": st.sampled_from(["g2", "g5", "nosuch"]), "--k": EDGE_INTS, "--beta": EDGE_RATIONALS,
        "--n": EDGE_INTS, "--d": EDGE_INTS, "--factor-len": EDGE_INTS | st.sampled_from(["8", "12"]),
    },
    ("graph", "gen"): {
        "--family": st.sampled_from(["path", "stacked", "outeru", "plus4", "leveled", "nosuch"]),
        "--i": EDGE_INTS, "--n": EDGE_INTS, "--m": EDGE_INTS,
    },
    ("graph", "verify"): {
        "--graph": st.sampled_from(["GRAPH", "/no/such.json"]),
        "--colors": st.sampled_from(["0,1,2,3", "0,1,2,0", "0,0", "1", "", "x", "-1,0"]),
        "--k": EDGE_INTS, "--max-path": EDGE_INTS,
    },
    ("search", "pik"): {"--graph": st.sampled_from(["GRAPH", "/no/such.json"]), "--n": EDGE_INTS, "--k": EDGE_INTS},
    ("search", "word"): {"--alphabet": EDGE_INTS | st.just("11"), "--k": EDGE_INTS,
                         "--target": EDGE_INTS | st.just("30")},
}
BAD_ONLY = ["0", "10", "-1", "x", "nan", "", "1,0", "2,12"]


@st.composite
def cli_argv(draw):
    if draw(st.integers(0, 9)) == 0:
        return ["suite", "run", "--only", draw(st.sampled_from(BAD_ONLY))] + draw(
            st.lists(st.sampled_from(["--json", "--bogus"]), max_size=2))
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    flags = GRAMMAR[command]
    # most flags given, some left out, some twice, in any order
    names = [name for name in flags for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2])))]
    argv = list(command)
    for name in draw(st.permutations(names)):
        if flags[name] is None:
            argv.append(name)
        elif name == "word":
            argv.append(draw(flags[name]))
        else:
            argv += [name, draw(flags[name])]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-h", "nosuch", "--"])))
    return argv


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(json.dumps(stacked_triangulation(1).to_json_dict()))
    return str(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_cli_fuzz_exit_codes(argv, graph_file, capsys):
    argv = [graph_file if a == "GRAPH" else a for a in argv]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
