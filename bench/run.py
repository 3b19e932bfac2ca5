"""Benchmark of the lagdpw pipeline, run from the root of a checkout.

    python3 bench/run.py --workload build|validate|crosscheck|all \\
        --seed N --seconds S --trace 0|1

One workload runs in one process as a closed loop with a single client: the
jobs of a pass run one after another and whole passes repeat for about
``--seconds`` seconds.  Every job's output is checked.  The run prints its
environment, a table of metrics with units and, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures untraced and reports the end-to-end metrics.
``--trace 1`` runs every job once untraced and once traced (alternating which
goes first) and reports the per-layer metrics from the trace plus the tracing
overhead.  ``--workload all`` runs the three workloads, each in its own
process.
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
import tempfile
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_PARENT = ROOT / ".bench_tmp"

# single client, single thread: the grid pool and BLAS run one thread each
THREADS = {"LAGDPW_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 7
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# name -> unit of the metrics in the result line (and BENCHMARK.json)
END_TO_END = {"setup_s": "s", "nodes_per_s": "1/s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}
# accuracy figures printed in the table; min or max over the run's jobs
ACCURACY = {"iwasawa_residual_max": ("1", max), "birkhoff_residual_max": ("1", max),
            "tail_norm_max": ("1", max), "oracle_err_max": ("1", max),
            "certify_margin_digits": ("digits", min), "piii_gap_max": ("1", max)}

# per-layer metric -> (unit, traced functions it needs)
_FRAME = "dpw.frame_point"
_GEOMETRY = ("geometry.structure_residuals", "geometry.integrability_residuals")
PER_LAYER = {
    "dpw.integrate_frame.calls": ("count", ("dpw.integrate_frame",)),
    "dpw.integrate_frame.self_s": ("s", ("dpw.integrate_frame",)),
    "potentials.coefficient_matrix.calls": ("count", ("potentials.PotentialSpec.coefficient_matrix",)),
    "dpw.frame_point.calls": ("count", (_FRAME,)),
    "dpw.surface_cache.hits": ("count", (_FRAME, "dpw.PipelineSurface.frame_point")),
    "dpw.surface_cache.hit_ratio": ("ratio", (_FRAME, "dpw.PipelineSurface.frame_point")),
    "dpw.sample_from_frame.self_s": ("s", ("dpw.sample_from_frame",)),
    "dpw.grid_sample.self_s": ("s", ("dpw.grid_sample",)),
    "dpw.failures.TruncationOverflow": ("count", (_FRAME,)),
    "dpw.failures.PoleOnPath": ("count", (_FRAME,)),
    "dpw.failures.IllConditioned": ("count", (_FRAME,)),
    "dpw.failures.other": ("count", (_FRAME,)),
    "factorization.iwasawa.calls": ("count", ("factorization.iwasawa",)),
    "factorization.iwasawa.self_s": ("s", ("factorization.iwasawa",)),
    "factorization.iwasawa.residual_max": ("1", ("factorization.iwasawa",)),
    "factorization.birkhoff.calls": ("count", ("factorization.birkhoff",)),
    "factorization.birkhoff.self_s": ("s", ("factorization.birkhoff",)),
    "factorization.birkhoff.residual_max": ("1", ("factorization.birkhoff",)),
    "loops.max_distance_on_circle.calls": ("count", ("loops.max_distance_on_circle",)),
    "loops.max_distance_on_circle.self_s": ("s", ("loops.max_distance_on_circle",)),
    "loops.loop_product.calls": ("count", ("loops.loop_product",)),
    "loops.loop_product.self_s": ("s", ("loops.loop_product",)),
    "loops.LoopMatrix.evaluate.calls": ("count", ("loops.LoopMatrix.evaluate",)),
    "loops.LoopMatrix.evaluate_many.calls": ("count", ("loops.LoopMatrix.evaluate_many",)),
    "su3.op_norm.calls": ("count", ("su3.op_norm",)),
    "geometry.structure_residuals.self_s": ("s", _GEOMETRY[:1]),
    "geometry.integrability_residuals.self_s": ("s", _GEOMETRY[1:]),
    "geometry.stencil_ms": ("ms", _GEOMETRY),
    "geometry.unitarity_max": ("1", _GEOMETRY[:1]),
    "painleve.solve_piii.calls": ("count", ("painleve.solve_piii",)),
    "painleve.solve_piii.self_s": ("s", ("painleve.solve_piii",)),
    "painleve.piii_rhs.calls": ("count", ("painleve.piii_rhs",)),
    "painleve.crosscheck.self_s": ("s", ("painleve.crosscheck",)),
    "cli.main.self_s": ("s", ("cli.main",)),
    "cli.bytes_written": ("bytes", ("cli.main",)),
    "trace.overhead_frac": ("ratio", ()),
}
_TYPED_FAILURES = ("TruncationOverflow", "PoleOnPath", "IllConditioned")
_CALL_ALIASES = {"potentials.coefficient_matrix": "potentials.PotentialSpec.coefficient_matrix"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("build", "validate", "crosscheck", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import lagdpw from this checkout's src/, never from anywhere else."""
    if not (SRC / "lagdpw" / "__init__.py").is_file():
        raise SystemExit(f"bench: {SRC / 'lagdpw'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lagdpw
    if Path(lagdpw.__file__).resolve().parent != (SRC / "lagdpw").resolve():
        raise SystemExit(f"bench: lagdpw imported from {lagdpw.__file__}, not {SRC}")
    import workloads
    return workloads


# -- measurement -------------------------------------------------------------------

def probe_setup(args) -> float:
    """Time from launching a fresh interpreter to its first job being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def warm_up(workloads):
    """Let lazy imports and first-call set-up finish before anything is timed."""
    from lagdpw import dpw, painleve, potentials
    spec, _ = potentials.spec_from_dict(workloads._bundled("clifford"))
    dpw.frame_point(spec, 0.5)
    painleve.solve_piii(painleve.PainleveParams(0, 0, 1.0, 1.0), s_max=0.1)


class Record:
    __slots__ = ("pass_index", "job", "traced", "wall_s", "outcome", "trace")

    def __init__(self, pass_index, job, traced, wall_s, outcome, trace):
        self.pass_index = pass_index
        self.job = job
        self.traced = traced
        self.wall_s = wall_s
        self.outcome = outcome
        self.trace = trace


def execute(workloads, job, pass_index, tracer=None) -> Record:
    job.prepare()
    outcome = workloads.Outcome()
    trace = result = None
    if tracer is not None:
        tracer.install()
    try:
        with (tracer.job(job.name) if tracer is not None else nullcontext()) as trace:
            start = perf_counter()
            try:
                result = job.call()
            except Exception as exc:  # a failed operation is data, not a crash
                outcome.errors.append(f"{type(exc).__name__}: {exc}")
            wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not outcome.errors:
        try:
            job.check(result, outcome)
        except Exception as exc:  # an output the check cannot read is wrong output
            outcome.problems.append(f"check failed on the output: {type(exc).__name__}: {exc}")
    if trace is not None:
        wall = trace.wall_s
    return Record(pass_index, job, tracer is not None, wall, outcome, trace)


def run_passes(workloads, jobs, seconds: float, tracer=None, between=None) -> list[Record]:
    """Whole passes, closed loop; a pass starts only if half of one still fits.

    ``between`` runs before each pass; its time does not count against ``seconds``.
    """
    records = []
    start = perf_counter()
    aside = 0.0
    n = 0
    while True:
        if between is not None:
            t = perf_counter()
            between()
            aside += perf_counter() - t
        for job in jobs:
            if tracer is None:
                records.append(execute(workloads, job, n))
            else:
                order = (None, tracer) if n % 2 == 0 else (tracer, None)
                records += [execute(workloads, job, n, t) for t in order]
        n += 1
        elapsed = perf_counter() - start - aside
        if elapsed + 0.5 * elapsed / n >= seconds:
            return records


# -- metrics -------------------------------------------------------------------------

def by_pass(records):
    passes = {}
    for r in records:
        passes.setdefault(r.pass_index, []).append(r)
    return [passes[k] for k in sorted(passes)]


def tail_percentile(values):
    """The highest ladder percentile with at least 10 samples beyond it (else p50)."""
    n = len(values)
    eligible = [p for p in TAIL_LADDER if n * (100.0 - p) >= 1000.0 - 1e-6]
    p = eligible[-1] if eligible else 50.0
    import numpy as np  # not at module level: THREADS must be set before numpy loads
    return p, float(np.percentile(np.asarray(values, dtype=float), p))


def accuracy(records):
    out = {}
    for r in records:
        for name, value in r.outcome.accuracy.items():
            pick = ACCURACY[name][1]
            out[name] = pick(out[name], value) if name in out else value
    return out


def end_to_end(records, setup_s):
    passes = by_pass(records)
    # the median pass: each job's median repetition.  On a busy shared host
    # the sum of the jobs' fastest repetitions varied by up to 55% between
    # 30 s windows, depending on how many repetitions fit; the sum of their
    # medians varied by up to 18%.
    per_job = {}
    for r in records:
        per_job.setdefault(r.job.name, []).append(r)
    nodes = sum(statistics.median(r.outcome.nodes for r in rs) for rs in per_job.values())
    pass_s = sum(statistics.median(r.wall_s for r in rs) for rs in per_job.values())
    ok_ms = [1e3 * r.wall_s for r in records if r.outcome.ok]
    failed = sum(not r.outcome.ok for r in records)
    metrics = {
        "setup_s": setup_s,
        "nodes_per_s": nodes / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(records),
    }
    extra = {"failed_frac": (failed / len(records), "ratio")}
    if ok_ms:
        extra["job_ms.p50"] = (statistics.median(ok_ms), "ms")
        p, value = tail_percentile(ok_ms)
        extra["job_ms.tail"] = (value, f"ms  (p{p:g} of n={len(ok_ms)} jobs)")
    extra["passes"] = (len(passes), "count")
    return metrics, extra


def pass_layers(records):
    """Per-layer values of one pass from its traced records."""
    traced = [r for r in records if r.traced]
    calls, selfs, maxima, failures = Counter(), Counter(), {}, Counter()
    for r in traced:
        calls.update(r.trace.calls)
        selfs.update(r.trace.self_times())
        failures.update(r.trace.failures(_FRAME))
        for k, v in r.trace.maxima.items():
            maxima[k] = max(maxima.get(k, 0.0), v)
    cert_nodes = sum(r.outcome.nodes for r in traced if r.job.name.startswith("validate:"))
    lookups = calls["dpw.PipelineSurface.frame_point"]
    untraced_s = sum(r.wall_s for r in records if not r.traced)
    out = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            key = name[:-len(".calls")]
            out[name] = calls[_CALL_ALIASES.get(key, key)]
        elif name.endswith(".self_s"):
            out[name] = selfs[name[:-len(".self_s")]]
        elif name.startswith("dpw.failures."):
            kind = name.rsplit(".", 1)[1]
            out[name] = (failures[kind] if kind != "other" else
                         sum(v for k, v in failures.items() if k not in _TYPED_FAILURES))
        elif name.endswith("_max"):
            out[name] = maxima.get(name, 0.0)
    out["dpw.surface_cache.hits"] = calls["dpw.surface_cache.hits"]
    out["dpw.surface_cache.hit_ratio"] = (calls["dpw.surface_cache.hits"] / lookups
                                          if lookups else 0.0)
    geometry_s = sum(v for k, v in selfs.items() if k.startswith("geometry."))
    out["geometry.stencil_ms"] = 1e3 * geometry_s / cert_nodes if cert_nodes else 0.0
    out["cli.bytes_written"] = sum(r.outcome.bytes_written for r in traced)
    out["trace.overhead_frac"] = sum(r.wall_s for r in traced) / untraced_s - 1.0
    return out, {k: v for k, v in calls.items()}


def absent_metrics(targets):
    """Per-layer metrics whose traced functions the package no longer has."""
    return sorted(name for name, (_, needs) in PER_LAYER.items()
                  if any(t not in targets for t in needs))


def per_layer(records, tracer):
    """Per-layer metrics, extra table rows, absent metrics and wrong-output problems."""
    nesting = [f"{t.name}: {e}" for t in tracer.jobs for e in t.nesting_errors()]
    if nesting:
        raise RuntimeError("span self times do not add up to the job wall time: "
                           + "; ".join(nesting[:5]))
    passes = [pass_layers(p) for p in by_pass(records)]
    metrics = {}
    for name in PER_LAYER:
        values = [p[0][name] for p in passes]
        metrics[name] = max(values) if name.endswith("_max") else statistics.median(values)
    absent = absent_metrics(tracer.targets)
    for name in absent:
        metrics[name] = 0.0
    # the inputs are fixed for the run, so every exact count must repeat
    counts = [p[1] for p in passes]
    problems = [f"exact counts of pass {i} differ from pass 0: "
                + ", ".join(f"{k} {counts[0].get(k, 0)} -> {c.get(k, 0)}"
                            for k in sorted(set(c) | set(counts[0]))
                            if c.get(k, 0) != counts[0].get(k, 0))
                for i, c in enumerate(counts) if c != counts[0]]
    extra = {"traced passes": (len(passes), "count"),
             "exact counts identical across passes": (not problems, ""),
             "traced spans, all nested in their parents": (len(tracer.jobs), "jobs")}
    return metrics, extra, absent, problems


# -- reporting -------------------------------------------------------------------------

def environment(args) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            **{k: os.environ.get(k) for k in THREADS}}


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        text = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float)
                                            else str(value))
        print(f"  {name:<44} {text:>14}  {unit}")


def run_workload(args, workloads) -> dict:
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_PARENT))
    try:
        jobs = workloads.make(args.workload, args.seed, out)
        warm_up(workloads)
        tracer = None
        setup_times = []
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            records = run_passes(workloads, jobs, args.seconds, tracer)
        else:
            # set-up probes between passes, so that they sample the machine
            # over the whole run and not only in its first seconds
            records = run_passes(workloads, jobs, args.seconds,
                                 between=lambda: setup_times.append(probe_setup(args)))
            while len(setup_times) < SETUP_PROBES:
                setup_times.append(probe_setup(args))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            OUT_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    print("env " + json.dumps(environment(args), sort_keys=True))
    seen = Counter((kind, r.job.name, text) for r in records
                   for kind, texts in (("failed", r.outcome.errors), ("WRONG", r.outcome.problems))
                   for text in texts)
    for (kind, job, text), n in seen.items():
        print(f"{kind:<7} {job}: {text}  (x{n})")
    acc = accuracy(records)
    problems = []
    if args.trace == 0:
        metrics, extra = end_to_end(records, statistics.median(setup_times))
        units = END_TO_END
        rows = [(k, v, units[k]) for k, v in metrics.items()]
    else:
        metrics, extra, absent, problems = per_layer(records, tracer)
        for text in problems:
            print(f"WRONG   {text}")
        units = {k: v[0] for k, v in PER_LAYER.items()}
        rows = [(k, v, units[k] + ("  (absent)" if k in absent else ""))
                for k, v in metrics.items()]
    rows += [(k, v, u) for k, (v, u) in extra.items()]
    rows += [(k, acc.get(k), unit) for k, (unit, _) in ACCURACY.items()]
    print_table(f"{args.workload} (seed {args.seed}, {len(records)} jobs)", rows)
    return {"correct": not problems and not any(r.outcome.problems for r in records),
            "attempted": len(records),
            "failed": sum(not r.outcome.ok for r in records),
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own fresh process; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("build", "validate", "crosscheck"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREADS)
    if args.workload == "all":
        result = run_all(args)
    else:
        workloads = import_package()
        if args.setup_probe:
            workloads.make(args.workload, args.seed, OUT_PARENT / "unused")
            print("ready", flush=True)
            return 0
        OUT_PARENT.mkdir(exist_ok=True)
        result = run_workload(args, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
