"""Verdict benchmark for nonrep.

    python3 bench/run.py --workload {certify,verify,search} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Imports nonrep from ``src/`` next to this directory, builds the workload's
inputs from the seed, and runs its job list in rounds, one job at a time in
this single interpreter, for at most S seconds (at least one round).  Every
job yields one verdict, which the benchmark re-checks itself (see
``verdicts``).

End-to-end metrics:
  wall_s         sum over the jobs of each job's mean time over the rounds
  verdict_p50_s  median over the jobs of that mean time
  verdict_max_s  the largest mean time, of a job the job list fixes
  setup_s        mean time of imports plus input generation, repeated between rounds
  peak_rss_mb    ru_maxrss of this process

The four times are scaled to the speed of a fixed control job that runs
between the jobs (see ``control``), which cancels the drift of a shared host;
the context line carries them as measured, with the control's mean time.

--trace 0 reports the end-to-end metrics, with tracing off.  --trace 1
alternates untraced rounds with rounds under ``layertrace`` and reports the
per-layer metrics plus the tracing overhead.  Stdout carries a context line
(seed, job count, machine) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exits with 2 and no result
when the nonrep sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import fmean, median, median_low
from time import perf_counter

from control import Control
from layertrace import LAYERS, Tracer, bindings
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 15  # set-up is repeated and its mean time reported

END_TO_END = {
    "wall_s": "s",
    "verdict_p50_s": "s",
    "verdict_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CONSTRUCTORS = ("path_graph", "stacked_triangulation", "outerplanar_U", "plus4_gadget",
                "leveled_outerplanar", "check_3tree")
CRITERIA = {"c2": "criterion_2", "c7": "criterion_7", "c9b": "criterion_9b_graphs"}


class Nonrep:
    """One fresh import of the nonrep package and its layer modules."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "nonrep" or m.startswith("nonrep.")]:
            del sys.modules[name]
        self.package = importlib.import_module("nonrep")
        if not Path(self.package.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"nonrep imported from {self.package.__file__}, not from {SRC}")
        self.layers = {name: importlib.import_module(f"nonrep.{name}") for name in LAYERS}
        for name, mod in self.layers.items():
            setattr(self, name, mod)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer, counts: Counter) -> dict:
    T, C, W = tr.total, tr.calls, tr.work
    certify = "treecert.certify_morphic_tree_coloring"
    m = {
        "words.enum_s": T["words.iter_powerfree_ternary"],
        "words.enum_words": W["words.iter_powerfree_ternary"],
        "words.apply_s": T["words.apply_morphism"],
        "words.factors_s": T["words.factors"],
        "words.generate_s": T["words.generate_powerfree_ternary"],
        "repetitions.power_free_s": T["repetitions.is_power_free"],
        "repetitions.power_free_calls": C["repetitions.is_power_free"],
        "repetitions.find_squares_s": T["repetitions.find_squares"],
        "repetitions.find_squares_calls": C["repetitions.find_squares"],
        "repetitions.directed_s": T["repetitions.is_d_directed"],
        "treecert.certify_s": T[certify],
        "treecert.self_s": tr.self_time[certify],
        "treecert.source_words": counts["source_words"],
        "treecert.dynamic_periods": counts["dynamic_periods"],
        "treecert.build_level_tree_s": T["treecert.build_level_tree"],
        "graphs.verify_s": T["graphs.verify_coloring"],
        "graphs.verify_calls": C["graphs.verify_coloring"],
        "graphs.clean_paths": counts["clean_paths"],
        "graphs.construct_s": sum(tr.layer_outer[f"graphs.{f}"] for f in CONSTRUCTORS),
        "search.pik_s": T["search.pi_k_exact"],
        "search.pik_calls": C["search.pi_k_exact"],
        "search.bounded_nodes": counts["bounded_nodes"],
        "search.witness_verify_s": tr.under["search.pi_k_exact", "graphs.verify_coloring"],
        "search.word_s": T["search.extend_word_search"],
        "cli.main_s": T["cli.main"],
        "cli.self_s": tr.self_time["cli.main"],
    }
    m["words.enum_words_per_s"] = _rate(m["words.enum_words"], m["words.enum_s"])
    m["repetitions.power_free_symbols_per_s"] = _rate(W["repetitions.is_power_free"], m["repetitions.power_free_s"])
    m["repetitions.find_squares_symbols_per_s"] = _rate(W["repetitions.find_squares"], m["repetitions.find_squares_s"])
    m["treecert.images_per_s"] = _rate(counts["source_words"], m["treecert.certify_s"])
    m["graphs.paths_per_s"] = _rate(counts["clean_paths"], tr.tagged["clean", "graphs.verify_coloring"])
    m["search.bounded_nodes_per_s"] = _rate(counts["bounded_nodes"], tr.tagged["bounded", "search.pi_k_exact"])
    m["search.word_symbols_per_s"] = _rate(W["search.extend_word_search"], m["search.word_s"])
    for short, fn in CRITERIA.items():
        m[f"acceptance.{short}_s"] = T[f"acceptance.{fn}"]
    return m


PER_LAYER_UNITS = {
    **{name: ("count" if name.endswith(("_calls", "_words", "_paths", "_nodes", "_periods"))
              else "1/s" if name.endswith("_per_s") else "s")
       for name in layer_metrics(Tracer(None, {}), Counter())},
    "trace_overhead_frac": "frac",
    "failed_frac": "frac",
}


def run_round(jobs, tracer=None, control=None):
    """Run every job once, with the control between jobs if given; return
    per-job seconds, summed exact counts and failure messages."""
    gc.collect()
    times, counts, failures = [], Counter(), []
    for job in jobs:
        if control is not None:
            control.tick()
        if tracer is not None:
            tracer.tag = job.tag
        t0 = perf_counter()
        try:
            res = job.run()
        except Exception as exc:  # an unexpected exception is a failed verdict
            failures.append(f"{job.name}: raised {exc!r}")
            continue
        finally:
            times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.tag = None
        try:
            counts.update(job.check(res))
        except Exception as exc:  # malformed output is a wrong verdict too
            failures.append(f"{job.name}: {exc}")
    return times, counts, failures


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the git checkout this benchmark sits in; None outside one."""
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "nonrep" / "__init__.py").is_file():
        print(f"error: nonrep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = WORKLOADS[args.workload]

    def inputs(nr):
        return build(nr, random.Random(args.seed), args.size)

    setup_times = []

    def set_up():
        gc.collect()  # the modules a fresh import replaces are garbage in cycles
        t0 = perf_counter()
        nr = Nonrep()
        jobs = inputs(nr)
        setup_times.append(perf_counter() - t0)
        return nr, jobs

    nr, jobs = set_up()

    tracer = Tracer(nr.package, nr.layers)
    untouched = bindings(nr.package, nr.layers)

    def traced_round():
        tracer.reset()
        with tracer.installed():
            res = run_round(inputs(nr), tracer)  # set-up is traced as well
        if bindings(nr.package, nr.layers) != untouched:
            raise RuntimeError("tracing left a wrapped function in place")
        return res + (layer_metrics(tracer, res[1]),)

    # rounds alternate untraced and traced when tracing; a round starts only
    # if the last one, repeated, would end within the time
    control = Control()
    plain, traced = [], []
    start = last = perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            traced.append(traced_round())
        else:
            plain.append(run_round(jobs, control=control))
        now = perf_counter()
        if 2 * now - last - start > args.seconds and (traced or not args.trace):
            break
        # untraced, the set-up repeats between rounds, spread over the run
        while not args.trace and len(setup_times) < SETUP_REPS * (now - start) / args.seconds:
            nr, jobs = set_up()
        last = perf_counter()
    while not args.trace and len(setup_times) < SETUP_REPS:
        nr, jobs = set_up()

    rounds = plain + traced
    attempted = len(jobs) * len(rounds)
    failures = [f for r in rounds for f in r[2]]
    for msg in failures[:20]:
        print(f"failed: {msg}", file=sys.stderr)
    # each job's mean time over the untraced rounds: on a shared host the
    # speed a process gets swings in stretches of under a second, and a
    # job's mean varies less from run to run than its median or best time
    per_job = [fmean(r[0][j] for r in plain) for j in range(len(jobs))]
    wall = sum(per_job)
    if args.trace:
        values = {name: median_low(r[3][name] for r in traced) for name in traced[0][3]}
        values["trace_overhead_frac"] = sum(sum(r[0]) for r in traced) / len(traced) / wall - 1
        values["failed_frac"] = len(failures) / attempted
        units = PER_LAYER_UNITS
    else:
        measured = {
            "wall_s": wall,
            "verdict_p50_s": median(per_job),
            "verdict_max_s": max(per_job),
            "setup_s": fmean(setup_times),
        }
        scale = control.scale()  # to seconds at the control's speed (see control.py)
        values = {name: t * scale for name, t in measured.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    context = {
        "benchmark": "nonrep-verdicts",
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs": len(jobs),
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "machine": machine(),
    }
    if not args.trace:
        context["measured_s"] = measured
        context["control"] = {"runs": len(control.times), "mean_s": fmean(control.times)}
    print(json.dumps(context, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
