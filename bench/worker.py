"""One benchmark worker: set-up, measured passes, a traced pass or a gate run.

``run.py`` starts this script in a fresh interpreter for every step, so set-up
time is measured from interpreter start and peak memory belongs to one
workload.  It can also be run by hand from the repository root:

    python3 bench/worker.py --workload scan --seed 0 --out .bench_out/tmp \\
        --mode {setup,measure,trace,gate} [--seconds 24]

Modes:

- ``setup``: import every clarklab module, build the workload's inputs, stop.
- ``measure``: then run the workload in passes, back to back, while the next
  pass still fits in ``--seconds`` (at least ``MIN_PASSES``).
- ``trace``: one untraced pass, then one pass with every layer traced.
- ``gate``: the acceptance test's own configuration, run once untraced, for
  its wall-clock gate margin (``scan``: criterion 01; ``wrapper``:
  criterion 08).

The host-speed probe (``speed.py``) runs from the first line to the last, so
every time is reported raw and rescaled to the nominal host speed.  The last
line of standard output is one JSON object with the times, peak RSS, every
check with its outcome, the output digests, per-experiment times, the solver
rows' statistics and, in ``trace`` mode, the per-layer metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent))

from speed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe().install()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from tracer import Tracer, solver_stats  # noqa: E402

MODULES = ("spaces", "functionals", "models", "solvers", "deformation", "topology",
           "minimax", "bvp", "cli")
# run in this order; scan is its own workload
CERTIFY_EXPERIMENTS = ("enumerate", "deform", "stabilize", "minimax", "bvp", "psdiag")
MIN_PASSES = 2


def _import_package():
    # cli imports deformation, minimax and bvp lazily; importing every module
    # here keeps that cost in set-up rather than in the first experiment.
    mods = {name: importlib.import_module(f"clarklab.{name}") for name in MODULES}
    pkg_file = Path(sys.modules["clarklab"].__file__).resolve()
    if ROOT / "src" not in pkg_file.parents:
        raise SystemExit(f"clarklab imported from {pkg_file}, not from this checkout")
    return mods


def _run_cli(mods, experiment, seed, out: Path, *flags):
    """One CLI experiment through clarklab.cli.main; its own checks plus
    exit code 0 are the checks, results.json is the digested output."""
    d = out / experiment
    argv = [experiment, *flags, "--seed", str(seed), "--out", str(d)]
    t0 = time.perf_counter()
    code = mods["cli"].main(argv)
    seconds = time.perf_counter() - t0
    manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
    checks = {f"{experiment}.{k}": bool(v) for k, v in manifest["checks"].items()}
    checks[f"{experiment}.exit_code_0"] = code == 0
    results = d / "results.json"
    digest = hashlib.sha256(results.read_bytes()).hexdigest() if results.exists() else "missing"
    written = sum(p.stat().st_size for p in d.iterdir() if p.name != "manifest.json")
    return {"seconds": seconds, "checks": checks, "digest": digest, "output_bytes": written}


def _collect(parts):
    out = {"checks": {}, "digests": {}, "stages": {}, "output_bytes": 0}
    for name, part in parts:
        out["checks"].update(part["checks"])
        out["digests"][name] = part["digest"]
        out["stages"][name] = part["seconds"]
        out["output_bytes"] += part["output_bytes"]
    return out


# ---------------------------------------------------------------------------
# workloads: prepare(mods, seed, out) builds the inputs and returns run()

# criterion 01's scan with the per-seed flow-time budget cut from 1e6 to 1e5:
# the lockstep tail then ends near 26k iterations for every seed instead of
# 93k-161k depending on the seed, so a pass is short and its work is the
# same from seed to seed
SCAN_FLAGS = ("--n", "3", "--seeds", "2000", "--max-flow-time", "1e5", "--threads", "1")


def prepare_scan(mods, seed, out):
    return lambda: _collect([("scan", _run_cli(mods, "scan", seed, out, *SCAN_FLAGS))])


def prepare_certify(mods, seed, out):
    return lambda: _collect([(e, _run_cli(mods, e, seed, out)) for e in CERTIFY_EXPERIMENTS])


def _wrapper_mix(mods, wide, near, wide_budget):
    """Criterion 08's descent mix: radius-2 ball seeds plus the first 20 of
    them pinned onto the unit sphere under a flow-time budget, then
    radius-0.3 ball seeds at default tolerance; checks are its dichotomy."""
    solvers = mods["solvers"]
    w = mods["models"].wrapper_functional(mods["spaces"].H01Grid(10))
    space = w.space
    on_sphere = wide[:20] / np.array([space.norm(s) for s in wide[:20]])[:, None]
    wide = np.concatenate([wide, on_sphere])

    def run():
        t0 = time.perf_counter()
        res_wide = solvers.gradient_flow_solve_batch(
            w, wide, solvers.SolveConfig(max_flow_time=wide_budget))
        res_near = solvers.gradient_flow_solve_batch(w, near, solvers.SolveConfig())
        floor = 1.0 / np.sqrt(2.0) - 1e-6
        norms_wide = np.array([space.norm(r.coords) for r in res_wide if r.converged])
        norms_near = np.array([space.norm(r.coords) for r in res_near])
        checks = {
            "wrapper.wide_split_at_floor": bool(np.all((norms_wide < 1e-3)
                                                       | (norms_wide >= floor))),
            "wrapper.near_all_converged": all(r.converged for r in res_near),
            "wrapper.near_only_zero": bool(np.all(norms_near < 1e-3)),
            "wrapper.nonzero_at_least_20": int(np.sum(norms_wide >= floor)) >= 20,
        }
        digest = hashlib.sha256()
        for r in res_wide + res_near:
            digest.update(np.ascontiguousarray(r.coords, dtype=float).tobytes())
            digest.update(np.array([r.value, r.residual, r.flow_time, r.steps],
                                   dtype=float).tobytes())
        part = {"seconds": time.perf_counter() - t0, "checks": checks,
                "digest": digest.hexdigest(), "output_bytes": 0}
        return _collect([("wrapper", part)])

    return run


def _ball_seeds(mods, radius, rng, count):
    return mods["solvers"].ball_seed_sampler(mods["spaces"].H01Grid(10), radius, rng,
                                             count)


def prepare_wrapper(mods, seed, out):
    # A radius-2 seed either falls through the sphere towards zero (about
    # 2.6k steps to the 1e4 flow-time budget) or creeps along the seam
    # (about 13k steps).  How many of 40 random seeds take the slow path
    # varies by +-20% from seed to seed, and the work with it.  So the wide
    # rows are criterion 08's first 40, each mapped by a seed-drawn symmetry
    # of the functional (u -> -u, reflection of the grid) and shuffled: the
    # inputs change with the seed, the basins and step counts do not.
    wide = _ball_seeds(mods, 2.0, np.random.default_rng(0), 40)
    rng = np.random.default_rng(seed)
    wide = wide * rng.choice([-1.0, 1.0], size=(len(wide), 1))
    reflect = rng.random(len(wide)) < 0.5
    wide[reflect] = wide[reflect, ::-1]
    wide = wide[rng.permutation(len(wide))]
    return _wrapper_mix(mods, wide, _ball_seeds(mods, 0.3, rng, 200), 1e4)


WORKLOADS = {"scan": prepare_scan, "wrapper": prepare_wrapper, "certify": prepare_certify}


def prepare_gate(workload, mods, seed, out):
    """The acceptance test's configuration, whatever the run's seed."""
    if workload == "scan":
        flags = ("--n", "3", "--seeds", "2000", "--threads", "1")
        return lambda: _collect([("scan", _run_cli(mods, "scan", 0, out, *flags))])
    if workload == "wrapper":
        rng = np.random.default_rng(0)
        wide = _ball_seeds(mods, 2.0, rng, 100)
        return _wrapper_mix(mods, wide, _ball_seeds(mods, 0.3, rng, 200), 3e4)
    return None


# ---------------------------------------------------------------------------

def _blas_threads():
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "*openblas*.so*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def _timed_pass(run, tracer):
    """One pass of the workload: raw wall time, the probe's speed factor over
    the pass, and the batch solves the solver probe saw."""
    tracer.solves.clear()
    mark = PROBE.mark()
    t0 = time.perf_counter()
    result = run()
    raw = time.perf_counter() - t0
    factor = PROBE.factor(mark)
    result.update({
        "raw_s": raw,
        "factor": factor,
        "wall_s": raw * factor,
        "probe_samples": PROBE.mark() - mark,
        "solve_s": [sv["seconds"] for sv in tracer.solves],
        "solver": solver_stats(tracer.solves),
    })
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="scratch directory for CLI outputs")
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "gate"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measure mode: time budget for the passes")
    args = ap.parse_args(argv)

    mods = _import_package()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "gate":
        run = prepare_gate(args.workload, mods, args.seed, out)
    else:
        run = WORKLOADS[args.workload](mods, args.seed, out)
    report = {"setup_done": time.monotonic(), "setup_factor": PROBE.factor()}
    if args.mode == "setup" or run is None:
        PROBE.uninstall()
        print(json.dumps(report))
        return 0

    tracer = Tracer().install_solver_probe()
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(_timed_pass(run, tracer))
        elapsed = time.perf_counter() - started
        if args.mode != "measure" or (len(passes) >= MIN_PASSES
                                      and elapsed + elapsed / len(passes) > args.seconds):
            break
    if args.mode == "trace":
        tracer.uninstall()
        tracer = Tracer().install()
        traced = _timed_pass(run, tracer)
        tracer.uninstall()
        traced["layers"] = tracer.layer_metrics()
        traced["spans"] = tracer.span_table()
        traced["untraced_targets"] = tracer.missing
        report["traced"] = traced
    tracer.uninstall()
    PROBE.uninstall()

    report.update({
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
