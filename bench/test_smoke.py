"""Smoke-size runs of every workload, and the tracing restore check.

    python3 -m pytest bench

Each workload runs at ``--size smoke`` with tracing off and on.  The tests
assert that every metric BENCHMARK.json names is emitted with its unit, that
no verdict fails, that tracing puts every wrapped function back, and that the
benchmark refuses to run without the nonrep sources.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    *_, context, last = out.stdout.strip().splitlines()
    ctx, res = json.loads(context), json.loads(last)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, out.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(res["metrics"])
    for m in wanted:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert res["metrics"]["failed_frac"]["value"] == 0
        assert ctx["rounds"]["traced"] >= 1
    else:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert ctx["control"]["runs"] >= 5 and set(ctx["measured_s"]) < set(res["metrics"])
    assert ctx["seed"] == 7 and ctx["workload"] == workload
    assert {"nproc", "cpu", "python", "numpy", "networkx", "commit"} <= set(ctx["machine"])


def test_tracing_restores_every_wrapped_function():
    sys.path.insert(0, str(BENCH))
    import run
    from layertrace import Tracer, bindings
    from workloads import WORKLOADS

    sys.path.insert(0, str(run.SRC))
    nr = run.Nonrep()
    before = bindings(nr.package, nr.layers)
    original = nr.repetitions.is_power_free
    tracer = Tracer(nr.package, nr.layers)
    with tracer.installed():
        assert nr.treecert.is_power_free is not original
        assert nr.package.is_power_free is not original
        assert nr.acceptance._CRITERIA[2] is not before["nonrep.acceptance", "_CRITERIA", 2]
        for build in WORKLOADS.values():
            times, _, failures = run.run_round(build(nr, random.Random(3), "smoke"), tracer)
            assert not failures
    assert tracer.sites == 0
    assert bindings(nr.package, nr.layers) == before
    assert nr.treecert.is_power_free is original
    # the call from treecert went through its own binding
    assert tracer.calls["repetitions.is_power_free"] > 0
    assert tracer.self_time["treecert.certify_morphic_tree_coloring"] < tracer.total["treecert.certify_morphic_tree_coloring"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("certify", 0, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""
