#!/usr/bin/env python3
"""Layered benchmark of wssda: end-to-end timings and accuracy, or per-layer trace metrics.

    python3 perfbench/run.py --workload small-sample --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports the package from ``src/`` of the same tree.
A set-up imports the program, draws the inputs from the seed, writes the CLI workload's
files, and makes a checked warm-up pass over a reduced copy.  With ``--trace 0``,
``setup_s`` is the median of three cold set-ups, each the first in a fresh process: the
benchmark's own and two in child processes.  It then repeats passes of train, identify
and verify for ``--seconds`` (at least one per draw of the inputs) and reports the median
of each phase, peak RSS, and the held-out ``id_error`` and ``eer`` averaged over the
workload's draws.  With ``--trace 1`` it alternates untraced and traced passes, reports
per-layer metrics named after the modules of ``src/wssda``, prints how the parts of
``pipeline.train_s`` add up, and repeats one traced pass in a child process limited to
one BLAS thread.  Every output is checked (see checks.py); the last line
of standard output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it give every metric with its unit and sample count, and
the environment; the same goes to ``perfbench/out/`` with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUPS = 3  # cold set-ups behind setup_s: this process's and SETUPS - 1 children's
MIN_PASSES = 2
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "identify_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MiB",
    "id_error": "fraction",
    "eer": "fraction",
    "failed_ratio": "fraction",
}
# failed_ratio is 0 whenever the program is right, so it stays out of the JSON
# metrics (whose values must never be 0); attempted and failed carry it there.
JSON_END_TO_END = [name for name in END_TO_END if name != "failed_ratio"]

# per-layer metric -> unit.  Those in LAYER_ONLY_SOME are zero on some workload: file
# I/O and the CLI on the library workloads, extract on cli-verify, deficient classes
# everywhere.  They are printed and written out but left out of the JSON metrics.
LAYER_UNITS = {
    "dataset.generate_s": "s",
    "dataset.save_csv_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.load_csv_calls": "count",
    "dataset.csv_bytes_read": "bytes",
    "partition.partition_s": "s",
    "partition.subclasses": "count",
    "partition.deficient_classes": "count",
    "scatter.within_subclass_s": "s",
    "scatter.second_stage_s": "s",
    "scatter.class_means_s": "s",
    "scatter.groups": "count",
    "scatter.gflop_computed": "GFLOP-computed",
    "scatter.gflop_per_s": "GFLOP/s-computed",
    "spectrum.eig_s": "s",
    "spectrum.eig_calls": "count",
    "spectrum.eig_order": "count",
    "spectrum.model_s": "s",
    "spectrum.rank": "count",
    "spectrum.pivot": "count",
    "pipeline.train_s": "s",
    "pipeline.self_s": "s",
    "pipeline.save_model_s": "s",
    "pipeline.load_model_s": "s",
    "pipeline.model_bytes": "bytes",
    "pipeline.extract_s": "s",
    "evaluation.identify_s": "s",
    "evaluation.pair_score_s": "s",
    "evaluation.pair_score_calls": "count",
    "evaluation.roc_s": "s",
    "evaluation.roc_pairs": "count",
    "evaluation.roc_thresholds": "count",
    "cli.train_s": "s",
    "cli.eval_id_s": "s",
    "cli.eval_verify_s": "s",
    "cli.self_s": "s",
    "cli.commands": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}
LAYER_ONLY_SOME = {
    "dataset.save_csv_s",
    "dataset.load_csv_s",
    "dataset.load_csv_calls",
    "dataset.csv_bytes_read",
    "partition.deficient_classes",
    "pipeline.save_model_s",
    "pipeline.load_model_s",
    "pipeline.model_bytes",
    "pipeline.extract_s",
    "cli.train_s",
    "cli.eval_id_s",
    "cli.eval_verify_s",
    "cli.self_s",
    "cli.commands",
    "cli.bytes_written",
}
# the parts pipeline.train_s splits into
TRAIN_PARTS = [
    "scatter.within_subclass_s",
    "scatter.second_stage_s",
    "scatter.class_means_s",
    "spectrum.eig_s",
    "spectrum.model_s",
    "pipeline.self_s",
]
ONE_THREAD = [
    "spectrum.eig_s",
    "scatter.within_subclass_s",
    "scatter.second_stage_s",
    "scatter.class_means_s",
    "pipeline.self_s",
    "pipeline.train_s",
]
for _name in ONE_THREAD:
    LAYER_UNITS["one_thread." + _name] = "s"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--one-thread-pass", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import wssda from this tree's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "wssda", "__init__.py")):
        sys.exit(f"error: no wssda package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import wssda

    if os.path.dirname(os.path.dirname(os.path.abspath(wssda.__file__))) != SRC:
        sys.exit(f"error: imported wssda from {wssda.__file__}, not from {SRC}")


def cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of the machine so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def environment(args, workload, ticks_at_start) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ticks, stolen = (now - then for now, then in zip(cpu_ticks(), ticks_at_start))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "shape": dict(vars(workload.shape)),
        "same_class_pair_share": float(workload.draws[0].pairs[:, 2].mean()),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        # share of the machine's CPU time the hypervisor gave to others during the run
        "steal_share": stolen / max(ticks, 1),
    }


class Runner:
    def __init__(self, args, workdir):
        import spans
        import workloads

        shape = workloads.WORKLOADS[args.workload]
        self.api = workloads.make_api()
        self.tracer = spans.Tracer() if args.trace or args.one_thread_pass else None
        self.workload = workloads.Workload(shape, args.seed, os.path.join(workdir, "main"), self.api, self.tracer)
        self.warm = workloads.Workload(shape.reduced(), args.seed, os.path.join(workdir, "warm"), self.api)
        self.timed = workloads.timed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def traced(self, op: str, traced: bool):
        if not traced:
            return nullcontext()
        self.tracer.op = op
        return self.tracer.installed(self.api)

    def setup(self, traced: bool) -> None:
        with self.traced("setup", traced):
            self.workload.prepare()
        self.warm.prepare()
        self.run_pass(self.warm, repeat=False)

    def run_pass(self, wl, repeat: bool) -> dict[str, list[float]] | None:
        """Time each phase once (or repeatedly, see workloads.timed), then check the outputs."""
        times = {}
        for name, fn in wl.phases():
            try:
                times[name] = self.timed(fn, repeat)
                self.attempted += len(times[name])
            except Exception:
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"{name} raised:\n{traceback.format_exc()}")
                return None
        try:
            found = wl.check()
        except Exception:
            found = {"check": [f"checking raised:\n{traceback.format_exc()}"]}
        for phase, problems in found.items():
            if problems:
                self.failed += 1
                self.problems.extend(f"{phase}: {p}" for p in problems)
        return times


def median(values):
    return statistics.median(values) if values else 0.0


def child_setups(args, runner) -> list[float]:
    """Seconds of a cold set-up in each of SETUPS - 1 fresh child processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUPS - 1):
        child = run_child(cmd, os.environ, runner, "set-up")
        if child is not None:
            out.append(child["setup_s"])
    return out


def run_child(cmd, env, runner, what: str) -> dict | None:
    """Run a child process of this benchmark and add its operations to the runner's."""
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0:
        runner.attempted += 1
        runner.failed += 1
        runner.problems.append(f"{what} child failed:\n" + (proc.stderr if proc else "timed out"))
        return None
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    runner.attempted += child["attempted"]
    runner.failed += child["failed"]
    runner.problems.extend(f"{what} child: {p}" for p in child["problems"])
    return child


def timed_run(args, runner, setup_s: float) -> tuple[dict, dict, dict]:
    setups = [setup_s] + child_setups(args, runner)
    wl = runner.workload
    samples = defaultdict(list)  # phase -> per-pass lists of per-call seconds
    accuracy = {}  # draw index -> (id_error, eer)
    start = time.perf_counter()
    passes = 0
    # at least one pass per draw, and at least two: the first pass at full size pays
    # first-call costs the reduced warm-up cannot
    while time.perf_counter() - start < args.seconds or passes < max(MIN_PASSES, len(wl.draws)):
        wl.draw = wl.draws[passes % len(wl.draws)]
        passes += 1
        times = runner.run_pass(wl, repeat=True)
        if times is None:
            continue
        for phase, values in times.items():
            samples[phase].append(values)
        now = (wl.draw.results["id_error"], wl.draw.results["eer"])
        first = accuracy.setdefault(wl.draw.index, now)
        if now != first:
            runner.failed += 1
            runner.problems.append(f"draw {wl.draw.index}: accuracy changed between passes: {first} then {now}")
    if len(accuracy) < len(wl.draws):
        return None, None, None
    # a phase's time is the median over passes of each pass's median call
    metrics = {
        "setup_s": median(setups),
        **{f"{phase}_s": median([median(v) for v in samples[phase]]) for phase in ("train", "identify", "verify")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "id_error": statistics.fmean(a[0] for a in accuracy.values()),
        "eer": statistics.fmean(a[1] for a in accuracy.values()),
        "failed_ratio": runner.failed / max(runner.attempted, 1),
    }
    counts = {"setup_s": f"{len(setups)} cold set-ups"}
    for phase in ("train", "identify", "verify"):
        calls = sum(len(v) for v in samples[phase])
        counts[f"{phase}_s"] = f"{len(samples[phase])} passes, {calls} calls"
    return metrics, counts, {"setup_s": setups, **samples}


def layer_metrics(dump: dict, pass_ops: list[str], setup_ops: list[str]) -> dict:
    """Per-layer metrics: the median over traced operations of each operation's totals."""
    import spans

    self_s = spans.self_times(dump["spans"], dump["leaves"])
    per_op: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s in dump["spans"]:
        m = per_op[s["op"]]
        name = s["name"]
        m[name + "_s"] += s["end"] - s["start"]
        m[name + "_calls"] += 1
        for key, value in s["counts"].items():
            if key in ("rank", "pivot", "order"):
                m[f"{name}.{key}"] = max(m[f"{name}.{key}"], value)
            else:
                m[f"{name}.{key}"] += value
        if name == "pipeline.train":
            m["pipeline.self_s"] += self_s[s["id"]]
        if name.startswith("cli."):
            m["cli.self_s"] += self_s[s["id"]]
            m["cli.commands"] += 1
    for leaf in dump["leaves"]:
        m = per_op[leaf["op"]]
        m[leaf["name"] + "_s"] += leaf["total_s"]
        m[leaf["name"] + "_calls"] += leaf["calls"]

    def med(key, ops=pass_ops):
        return median([per_op[op][key] for op in ops])

    gflop = med("scatter.within_subclass.flop") / 1e9 + med("scatter.second_stage.flop") / 1e9
    scatter_busy = med("scatter.within_subclass_s") + med("scatter.second_stage_s")
    out = {
        "dataset.generate_s": med("dataset.generate_s", setup_ops),
        "dataset.save_csv_s": med("dataset.save_csv_s", setup_ops),
        "dataset.load_csv_s": med("dataset.load_csv_s"),
        "dataset.load_csv_calls": med("dataset.load_csv_calls"),
        "dataset.csv_bytes_read": med("dataset.load_csv.bytes"),
        "partition.partition_s": med("partition.partition_s"),
        "partition.subclasses": med("partition.partition.subclasses"),
        "partition.deficient_classes": med("partition.partition.deficient"),
        "scatter.within_subclass_s": med("scatter.within_subclass_s"),
        "scatter.second_stage_s": med("scatter.second_stage_s"),
        "scatter.class_means_s": med("scatter.class_means_s"),
        "scatter.groups": med("scatter.within_subclass.groups"),
        "scatter.gflop_computed": gflop,
        "scatter.gflop_per_s": gflop / scatter_busy if scatter_busy else 0.0,
        "spectrum.eig_s": med("spectrum.eig_s"),
        "spectrum.eig_calls": med("spectrum.eig_calls"),
        "spectrum.eig_order": med("spectrum.eig.order"),
        "spectrum.model_s": med("spectrum.model_s"),
        "spectrum.rank": med("pipeline.train.rank"),
        "spectrum.pivot": med("pipeline.train.pivot"),
        "pipeline.train_s": med("pipeline.train_s"),
        "pipeline.self_s": med("pipeline.self_s"),
        "pipeline.save_model_s": med("pipeline.save_model_s"),
        "pipeline.load_model_s": med("pipeline.load_model_s"),
        "pipeline.model_bytes": med("pipeline.save_model.bytes"),
        "pipeline.extract_s": med("pipeline.extract_s"),
        "evaluation.identify_s": med("evaluation.identify_s"),
        "evaluation.pair_score_s": med("evaluation.pair_score_s"),
        "evaluation.pair_score_calls": med("evaluation.pair_score_calls"),
        "evaluation.roc_s": med("evaluation.roc_s"),
        "evaluation.roc_pairs": med("evaluation.roc.pairs"),
        "evaluation.roc_thresholds": med("evaluation.roc.thresholds"),
        "cli.train_s": med("cli.train_s"),
        "cli.eval_id_s": med("cli.eval_id_s"),
        "cli.eval_verify_s": med("cli.eval_verify_s"),
        "cli.self_s": med("cli.self_s"),
        "cli.commands": med("cli.commands"),
        "cli.bytes_written": med("cli.eval_id.bytes_written")
        + med("cli.train.bytes_written")
        + med("cli.eval_verify.bytes_written"),
    }
    return out


def traced_run(args, runner) -> tuple[dict, dict, dict]:
    wl = runner.workload
    walls = {"plain": [], "pass": []}
    start = time.perf_counter()
    k = 0
    while not walls["pass"] or time.perf_counter() - start < args.seconds:
        kind = "plain" if k % 2 == 0 else "pass"
        wl.draw = wl.draws[k % len(wl.draws)]
        with runner.traced(f"{kind}{k}", traced=kind == "pass"):
            times = runner.run_pass(wl, repeat=False)
        if times is not None:
            walls[kind].append((f"{kind}{k}", sum(sum(v) for v in times.values())))
        k += 1
        if k > 2 and not walls["pass"]:
            break
    if not walls["pass"] or not walls["plain"]:
        return None, None, None
    dump = runner.tracer.dump()
    metrics = layer_metrics(dump, [op for op, _ in walls["pass"]], ["setup"])
    metrics["trace.overhead_ratio"] = median([w for _, w in walls["pass"]]) / median(
        [w for _, w in walls["plain"]]
    )
    metrics.update(one_thread_pass(args, runner))
    counts = {name: f"{len(walls['pass'])} traced passes" for name in metrics}
    counts.update({"dataset.generate_s": "1 set-up", "dataset.save_csv_s": "1 set-up"})
    counts.update({"one_thread." + name: "1 traced pass" for name in ONE_THREAD})
    counts["trace.overhead_ratio"] = f"{len(walls['pass'])} traced, {len(walls['plain'])} untraced passes"
    return metrics, counts, {"trace": dump}


def one_thread_pass(args, runner) -> dict:
    """One traced pass in a child process whose BLAS is limited to one thread."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", "0", "--one-thread-pass"]
    child = run_child(cmd, env, runner, "one-thread pass") or {}
    return {"one_thread." + name: child.get("metrics", {}).get(name, 0.0) for name in ONE_THREAD}


def child_report(runner, **fields) -> None:
    print(json.dumps(dict(attempted=runner.attempted, failed=runner.failed, problems=runner.problems, **fields)))


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    ticks_at_start = cpu_ticks()
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    runner = Runner(args, workdir)
    try:
        runner.setup(traced=bool(args.trace))
        setup_s = time.perf_counter() - start
        if args.setup_only:
            child_report(runner, setup_s=setup_s)
            return 0
        if args.one_thread_pass:
            with runner.traced("pass", traced=True):
                times = runner.run_pass(runner.workload, repeat=False)
            child_report(runner, metrics=layer_metrics(runner.tracer.dump(), ["pass"], []) if times else {})
            return 0
        if args.trace:
            metrics, counts, samples = traced_run(args, runner)
            units, keep = LAYER_UNITS, [n for n in LAYER_UNITS if n not in LAYER_ONLY_SOME]
        else:
            metrics, counts, samples = timed_run(args, runner, setup_s)
            units, keep = END_TO_END, JSON_END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if metrics is None:
        print("error: no pass completed", file=sys.stderr)
        return 1

    env = environment(args, runner.workload, ticks_at_start)
    for name, unit in units.items():
        tail = f"  (median of {counts[name]})" if name in counts else ""
        print(f"{args.workload:13s} {name:34s} {metrics[name]:.6g} {unit}{tail}")
    if args.trace:
        # self time is train time less what the wrapped children cover, so the parts
        # add up within each pass; a hot call left unwrapped shows as self time
        parts = sum(metrics[n] for n in TRAIN_PARTS)
        print(f"pipeline.train_s {metrics['pipeline.train_s']:.6g} s; its parts {', '.join(TRAIN_PARTS)} sum to {parts:.6g} s")
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in keep},
    }
    os.makedirs(OUT, exist_ok=True)
    record = dict(result, env=env, all_metrics=metrics, sample_counts=counts, samples=samples)
    record["problems"] = runner.problems
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
