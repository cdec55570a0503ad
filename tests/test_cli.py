"""Exit-code contract and output format for the command-line interface."""

import hashlib
import json
import os
import random
import signal
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


# the certificates of the benchmark's certify workload, as (name, morphism,
# k, beta, n, d, --factor-len), with the sha256 of repr((exit code, stdout,
# stderr)) of each: every byte of a certificate is pinned, its period lists,
# structure parameters, counts and counterexamples included
PINNED_CERTIFICATES = [
    ("g2-fl8", "g2", 2, "19/10", 2, 3, 8,
     "33faab7a7ad37c333b819efda45b74e3da0b9f9927242f6cc7b1024f6e6e641b"),
    ("g2-fl9", "g2", 2, "19/10", 2, 3, 9,
     "acba53e0c4855e56b640958ca62c48858872e9dc190acd2a386a4fd82b4029d3"),
    ("g2-fl10", "g2", 2, "19/10", 2, 3, 10,
     "fc8c0b532d62e2b2da2a292574e1add6f6715164221f2a0925fc014570dd0e85"),
    ("g5-fl9", "g5", 5, "83/42", 5, 20, 9,
     "f3c9d93d6eb5d1df8814c49a87df705b20a0c6c1a5ada349023027208d283d1b"),
    ("g2-k1", "g2", 1, "19/10", 2, 3, 8,
     "151eca7d39d6d8db30ac43bba70963ba1eb8ee99d5107af6ba823d061990b658"),
    ("g2-beta3/2", "g2", 2, "3/2", 2, 3, 8,
     "77afbb2c53a323c1cb9d57729593f753e29f79377e52aeb14d5e3b1a6068e3cf"),
    ("g2-d2", "g2", 2, "19/10", 2, 2, 8,
     "6747e7be636e7a277a13ef54e6866efb62604aa79bec68be823f648d22a5d876"),
    ("g5-beta7/4", "g5", 5, "7/4", 5, 20, 9,
     "1d7b22f2e6d6fe17c88482c52c7f7334f53c7d8ee9ece5865acaa1c7882c3cb7"),
    ("g5-d10", "g5", 5, "83/42", 5, 10, None,
     "e8b534d4c1371ad8a1228f252c89a0c73e0005de20201113fe24eb4439262c9a"),
    ("g5-fl3", "g5", 5, "83/42", 5, 20, 3,
     "52fcecbc9bbe66976f56616faf9cdea5ee566758d6b68c7f0869303c9e16c9fb"),
    ("g5-beta7/4-minimal", "g5", 5, "7/4", 5, 20, None,
     "093182c06e7a92226ba3522629703e5b29f90e747bbb2ed46b010f2b82a699d1"),
    ("g2-beta2", "g2", 2, "2/1", 2, 3, 8,
     "c128078c138b36e779e4aeec9ea5a5f99a841f80bdcfbafe1c9be253bdb9b351"),
]


@pytest.mark.parametrize("name, morphism, k, beta, n, d, factor_len, digest", PINNED_CERTIFICATES,
                         ids=[c[0].replace("/", "_") for c in PINNED_CERTIFICATES])
def test_treecert_certificate_bytes_pinned(capsys, name, morphism, k, beta, n, d, factor_len, digest):
    argv = ["treecert", "certify", "--morphism", morphism, "--k", str(k), "--beta", beta,
            "--n", str(n), "--d", str(d)]
    if factor_len is not None:
        argv += ["--factor-len", str(factor_len)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert hashlib.sha256(repr((rc, captured.out, captured.err)).encode()).hexdigest() == digest


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
    # from d alone too when factor_len is given, instead of a walk of d periods
    (CERTIFY_G2 + ["--d", "10000000", "--factor-len", "8"], "need factor_len >= 833335: past the budget"),
    # the freeness walk would step through 8 * 10^5 periods
    (CERTIFY_G2[:6] + ["--beta", "199999/100000", "--n", "2", "--d", "3"],
     "beta 199999/100000: denominator past the budget of 10000"),
], ids=["word-gen", "search-word", "certify-d100000", "certify-d1000", "certify-d400", "certify-factor-len-41",
        "certify-d10000000-factor-len-8", "certify-beta-denominator"])
def test_past_budget_exit_2(capsys, argv, message):
    # refused before the word or the source words are built, instead of a
    # MemoryError or a run of many seconds
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err.startswith("error: ") and message in err


def test_treecert_width_past_budget_exit_2(capsys, tmp_path):
    f = tmp_path / "wide.txt"
    f.write_text("".join(f"{s} -> {str(s % 2) * 10_001}\n" for s in range(3)))
    rc = main(["treecert", "certify", "--morphism", str(f), "--k", "1", "--beta", "19/10", "--n", "1", "--d", "2"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err == "error: width 10001: past the budget of 10000\n"


def test_treecert_image_past_budget_exit_2(capsys, tmp_path):
    f = tmp_path / "broad.txt"
    f.write_text("".join(f"{s} -> {str(s % 2) * 10_000}\n" for s in range(3)))
    argv = ["treecert", "certify", "--morphism", str(f), "--k", "1", "--beta", "19/10", "--n", "1", "--d", "2"]
    assert main(argv + ["--factor-len", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: factor_len 8: images of 80000 symbols, past the budget of 50000\n"


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


def test_graph_json_past_vertex_budget_exit_2(capsys, tmp_path):
    # one vertex past the budget of `graph gen`, refused before the adjacency
    # sets are allocated (an n of 10^12 would exhaust memory)
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"n": 200_001, "edges": []}))
    for argv in (["graph", "verify", "--graph", str(f), "--colors", "0", "--k", "1"],
                 ["search", "pik", "--graph", str(f), "--k", "1"]):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and "'n' 200001 is past the budget of 200000 vertices" in err


def test_graph_json_nested_too_deeply_exit_2(capsys, tmp_path):
    # the json parser recurses once per level and raises RecursionError
    f = tmp_path / "g.json"
    f.write_text("[" * 200_000)
    for argv in (["graph", "verify", "--graph", str(f), "--colors", "0", "--k", "1"],
                 ["search", "pik", "--graph", str(f), "--k", "1"]):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and "JSON nested too deeply" in err


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


@pytest.mark.parametrize("name, value, message", [
    ("NONREP_NODE_LIMIT", "abc", "invalid literal for int()"),
    ("NONREP_NODE_LIMIT", "0", "budget fields must be positive"),
    ("NONREP_TIME_LIMIT", "x", "could not convert string to float"),
    ("NONREP_TIME_LIMIT", "nan", "budget fields must be positive"),  # nan <= 0 is False: no deadline
], ids=["node-abc", "node-0", "time-x", "time-nan"])
def test_search_bad_budget_variable_exit_2(capsys, monkeypatch, name, value, message):
    # the error names the variable and the value it holds
    monkeypatch.setenv(name, value)
    for argv in (["search", "pik", "--n", "4", "--k", "1"],
                 ["search", "word", "--alphabet", "2", "--k", "1", "--target", "4"]):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and err.startswith(f"error: {name}={value!r}: {message}")


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


def test_suite_only_repeated_number_runs_once(capsys):
    assert main(["suite", "run", "--only", "1,1", "--json"]) == 0
    assert [r["number"] for r in json.loads(capsys.readouterr().out)] == [1]
    assert main(["suite", "run", "--only", "7,1,7"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[0] for row in rows] == ["1", "7"]


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
# names a criterion that does not exist, so no argv runs the suite.  A d of
# 10^7, a beta of denominator 10^6, the WIDE morphism file and the HUGE graph
# file are past a budget and must exit 2 at once
GRAMMAR = {
    ("word", "gen"): {"--length": EDGE_INTS},
    ("word", "check-free"): {"--beta": EDGE_RATIONALS, "--n": EDGE_INTS, "--strict": None, "word": EDGE_WORDS},
    ("word", "check-directed"): {"--d": EDGE_INTS, "word": EDGE_WORDS},
    ("morphism", "apply"): {"--morphism": st.sampled_from(["g2", "g5", "nosuch", ""]), "word": EDGE_WORDS},
    ("treecert", "certify"): {
        "--morphism": st.sampled_from(["g2", "g5", "nosuch", "WIDE", "BROAD"]), "--k": EDGE_INTS,
        "--beta": EDGE_RATIONALS | st.just("1999999/1000000"),
        "--n": EDGE_INTS, "--d": EDGE_INTS | st.just("10000000"),
        "--factor-len": EDGE_INTS | st.sampled_from(["8", "12"]),
    },
    ("graph", "gen"): {
        "--family": st.sampled_from(["path", "stacked", "outeru", "plus4", "leveled", "nosuch"]),
        "--i": EDGE_INTS, "--n": EDGE_INTS, "--m": EDGE_INTS,
    },
    ("graph", "verify"): {
        "--graph": st.sampled_from(["GRAPH", "HUGE", "DEEP", "/no/such.json"]),
        "--colors": st.sampled_from(["0,1,2,3", "0,1,2,0", "0,0", "1", "", "x", "-1,0"]),
        "--k": EDGE_INTS, "--max-path": EDGE_INTS,
    },
    ("search", "pik"): {"--graph": st.sampled_from(["GRAPH", "HUGE", "DEEP", "/no/such.json"]),
                        "--n": EDGE_INTS, "--k": EDGE_INTS},
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
def input_files(tmp_path_factory):
    # HUGE is past the vertex budget: unrefused, `search pik` on it runs for
    # minutes, though its adjacency sets still fit in memory.  DEEP nests
    # deeper than the json parser recurses.  WIDE is a morphism table past the
    # width budget, whose structure analysis alone would take about 10 s.
    # BROAD is at the width budget: the image length budget refuses its
    # factor lengths past 5, given or implied, so none runs near the cap
    def table(width):
        return "".join(f"{s} -> {random.Random(s).getrandbits(width):0{width}b}\n" for s in range(3))

    texts = {
        "GRAPH": json.dumps(stacked_triangulation(1).to_json_dict()),
        "HUGE": json.dumps({"n": 10**6, "edges": []}),
        "DEEP": "[" * 200_000,
        "WIDE": table(60_000),
        "BROAD": table(10_000),
    }
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in texts.items():
        (root / f"{name}.json").write_text(text)
    return {name: str(root / f"{name}.json") for name in texts}


# every argv in the grammar exits far sooner; an oversized input that no
# budget refuses fails the example here instead of holding up the suite
FUZZ_DEADLINE_S = 5


def _overtime(signum, frame):
    raise AssertionError(f"no exit within {FUZZ_DEADLINE_S} s")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_cli_fuzz_exit_codes(argv, input_files, capsys):
    argv = [input_files.get(a, a) for a in argv]
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_DEADLINE_S)
    try:
        rc = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
