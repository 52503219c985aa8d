"""clarklab benchmark: the scan, wrapper and certify workloads.

    python3 bench/run.py --workload {scan,wrapper,certify,all} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Every step runs in a fresh interpreter started
by this script (``bench/worker.py``), one at a time, single-threaded: one
process, no worker threads, BLAS pinned to one thread.

Every time is rescaled to a nominal host speed by the probe in
``bench/speed.py`` (raw times stay in the report): on a shared host the speed
of a core drifts by up to 2x over minutes, far more than any regression
bound.

With ``--trace 0`` a run times ``SETUP_STARTS`` interpreter starts that stop
after set-up (``setup_s`` is their median), then one worker runs the workload
in passes, back to back, while the next pass still fits in ``--seconds`` (at
least two); ``wall_s`` is the median pass and ``peak_rss_mb`` that worker's
peak RSS.  With ``--trace 1`` a worker runs one untraced pass and one pass
with every layer traced, and reports the per-layer metrics plus the tracing
overhead; for ``scan`` and ``wrapper`` a second worker then runs the
acceptance test's own configuration once, for its wall-clock gate margin.

Every run checks the program's outputs (the checks of each CLI experiment,
exit code 0, criterion 08's dichotomy for ``wrapper``, and agreement of the
output digests across passes and across runs of the same seed and source).
The full report, with the machine, the digests, the gate margins and the
solver step statistics, is written to
``.bench_out/report-<workload>-seed<N>-trace<T>.json``; a summary goes to
standard output, whose last line is the JSON result.

``--workload all`` runs the three workloads one after another, prints every
metric by name and unit per workload, and prefixes each metric of its result
line with the workload name.  See ``bench/README.md`` and
``bench/predictions.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("scan", "wrapper", "certify")
SETUP_STARTS = 9
RUN_LIMIT_S = 170.0   # a single-workload run must end well within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "spaces.riesz_s": "s", "spaces.riesz_calls": "count", "spaces.riesz_rows": "count",
    "spaces.norm_s": "s",
    "models.value_s": "s", "models.grad_s": "s", "models.value_calls": "count",
    "models.grad_calls": "count", "models.rows_per_call": "rows",
    "models.oracle_s": "s", "models.enumerate_s": "s",
    "solvers.flow_s": "s", "solvers.self_s": "s", "solvers.iterations": "count",
    "solvers.iter_us": "us", "solvers.row_steps_p50": "count",
    "solvers.row_steps_p99": "count", "solvers.row_steps_max": "count",
    "solvers.occupancy": "ratio", "solvers.accept_ratio": "ratio",
    "solvers.converged_share": "ratio", "solvers.budget_rows": "count",
    "solvers.stalled_rows": "count",
    "deformation.bounds_s": "s", "deformation.batch_flow_s": "s",
    "deformation.trace_flow_s": "s", "deformation.field_evals": "count",
    "deformation.rk4_attempts": "count", "deformation.rk4_accept_ratio": "ratio",
    "topology.components_s": "s", "topology.components_calls": "count",
    "topology.max_cloud_points": "count", "topology.stabilization_s": "s",
    "minimax.sup_calls": "count", "minimax.sup_s": "s", "minimax.value_calls": "count",
    "bvp.shoot_s": "s", "bvp.family_s": "s", "bvp.reshoot_s": "s",
    "functionals.ps_diagnostic_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "cli.deform_s": "s", "cli.stabilize_s": "s", "cli.minimax_s": "s",
    "bench.trace_overhead_s": "s",
}
# wall-clock gates of the acceptance tests; reported as margins, never gated on
GATE_01_S = 30.0
GATE_05_S = 60.0
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


class BenchError(RuntimeError):
    pass


def _child(workload, seed, scratch, deadline, mode, seconds=0.0):
    """Run one worker to completion and return its report; ``setup_s`` is
    the time from starting the interpreter until set-up finished, rescaled
    by the probe's speed factor over set-up."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(scratch), "--mode", mode,
           "--seconds", str(seconds)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} seed {seed}: {mode} worker did not finish in time")
        raise
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} seed {seed}: {mode} worker exited with {proc.returncode}")
    rep = json.loads(stdout.strip().splitlines()[-1])
    rep["setup_raw_s"] = rep["setup_done"] - started
    rep["setup_s"] = rep["setup_raw_s"] * rep["setup_factor"]
    return rep


def _source_digest() -> str:
    """Digest of the package sources and of the workload definitions."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [BENCH / "worker.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _digest_check(key, sets):
    """Digests must agree between the passes of this run and with the first
    run of the same workload, seed and source in this checkout.  They are
    recorded, not pinned: a change of output shows as a new digest."""
    record_path = OUT / "digests.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    if key in record:
        sets = sets + [record[key]]
    else:
        record[key] = sets[0]
        OUT.mkdir(exist_ok=True)
        tmp = record_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, record_path)
    if len(sets) < 2:
        return None
    return all(s == sets[0] for s in sets[1:])


def _median(values):
    return statistics.median(values) if values else 0.0


def _stage_s(passes):
    """Median rescaled time of each experiment over the passes."""
    return {k: _median([p["stages"][k] * p["factor"] for p in passes])
            for k in passes[0]["stages"]}


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = OUT / f"tmp-{os.getpid()}-{workload}"
    gate = None
    try:
        if trace:
            main_rep = _child(workload, seed, scratch / "trace", deadline, "trace")
            if workload in ("scan", "wrapper"):
                gate = _child(workload, seed, scratch / "gate", deadline, "gate")
            setups = []
        else:
            setups = [_child(workload, seed, scratch / f"setup{i}", deadline, "setup")
                      for i in range(SETUP_STARTS)]
            main_rep = _child(workload, seed, scratch / "measure", deadline, "measure",
                              seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    passes = main_rep["passes"]
    traced = main_rep.get("traced")
    workload_passes = passes + ([traced] if traced else [])
    gate_passes = gate["passes"] if gate else []
    setup_reps = setups + [main_rep] + ([gate] if gate else [])

    checks = {}
    for rep in workload_passes + gate_passes:
        for name, ok in rep["checks"].items():
            checks.setdefault(name, []).append(ok)
    src_digest = _source_digest()
    agree = _digest_check(f"{workload}/seed{seed}/src-{src_digest[:16]}",
                          [rep["digests"] for rep in workload_passes])
    if agree is not None:
        checks["digests_agree"] = [agree]
    if gate:
        agree = _digest_check(f"{workload}/gate/src-{src_digest[:16]}",
                              [rep["digests"] for rep in gate_passes])
        if agree is not None:
            checks["gate_digests_agree"] = [agree]
    attempted = sum(len(v) for v in checks.values())
    failed = sum(v.count(False) for v in checks.values())

    wall = _median([p["wall_s"] for p in passes])
    stage_s = _stage_s(passes)
    gates = {}
    if gate and workload == "scan":
        gate_solve_s = sum(gate_passes[0]["solve_s"])
        gates["criterion_01_margin_s"] = GATE_01_S - gate_solve_s
        gates["criterion_01_solve_s"] = gate_solve_s
        gates["criterion_01_iterations"] = gate_passes[0]["solver"]["solvers.iterations"]
    if gate and workload == "wrapper":
        gates["criterion_08_cost_s"] = gate_passes[0]["raw_s"]
    if workload == "certify":
        gates["criterion_05_margin_s"] = GATE_05_S - _median(
            [p["stages"]["deform"] for p in passes])

    if trace:
        factor = traced["factor"]
        layers = {k: v * factor if k.endswith("_s") else v
                  for k, v in traced["layers"].items()}
        layers.update(traced["solver"])
        iterations = passes[0]["solver"]["solvers.iterations"]
        solve_s = sum(passes[0]["solve_s"]) * passes[0]["factor"]
        layers["solvers.iter_us"] = 1e6 * solve_s / iterations if iterations else 0.0
        layers["cli.output_bytes"] = traced["output_bytes"]
        for exp in ("deform", "stabilize", "minimax"):
            layers[f"cli.{exp}_s"] = stage_s.get(exp, 0.0)
        layers["bench.trace_overhead_s"] = traced["wall_s"] - wall
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {"setup_s": _median([rep["setup_s"] for rep in setup_reps]),
                  "wall_s": wall, "peak_rss_mb": main_rep["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": dict(main_rep["env"], git_commit=_git_commit(),
                            source_sha256=src_digest),
        "result": result,
        "checks_failed_share": failed / attempted,
        "failed_checks": sorted(k for k, v in checks.items() if not all(v)),
        "gate_margins": gates,
        "digests": passes[0]["digests"],
        "raw_wall_s": _median([p["raw_s"] for p in passes]),
        "setups": [{k: rep[k] for k in ("setup_s", "setup_raw_s", "setup_factor")}
                   for rep in setup_reps],
        "passes": [{k: rep[k] for k in ("wall_s", "raw_s", "factor", "probe_samples",
                                         "stages", "solve_s", "output_bytes")}
                   for rep in workload_passes + gate_passes],
        "solver": passes[0]["solver"],
    }
    if traced:
        report["spans"] = traced["spans"]
        report["untraced_targets"] = traced["untraced_targets"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report


def _print_summary(report):
    res = report["result"]
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"passes {len(report['passes'])}  "
          f"checks {res['attempted'] - res['failed']}/{res['attempted']} passed  "
          f"checks_failed_share {report['checks_failed_share']:g}")
    for name, m in res["metrics"].items():
        print(f"   {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"   {'raw wall (not rescaled)':<30} {report['raw_wall_s']:>14.6g} s")
    for name, value in report["gate_margins"].items():
        print(f"   gate {name:<25} {value:>14.6g}")
    if report["failed_checks"]:
        print(f"   FAILED: {', '.join(report['failed_checks'])}")
    print(f"   report: {OUT.name}/report-{report['workload']}-seed{report['seed']}"
          f"-trace{int(report['trace'])}.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run stops its worker too (see _child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "clarklab" / "__init__.py").is_file():
        print(f"bench: no clarklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        _print_summary(report)
    if len(reports) == 1:
        final = reports[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{r['workload']}.{k}": v for r in reports
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
