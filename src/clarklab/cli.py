"""Batch experiment runner.

Every verification in the library is exposed as a subcommand that writes
three kinds of artifact into --out: results.json (the evidence the checks
rest on, each piece once; byte identical across runs with the same config
and seed), plain RFC-4180 CSV data files, and manifest.json (config echo,
versions, wall time — always written, even when the run fails its checks).
Both JSON files are one line of compact JSON with sorted keys.  This
module alone decides what goes into them: each runner builds its results
from the fields of the library's reports, echoes no input that params
already holds, and leaves point data to its CSV file (scan.csv and
points.csv carry each point's coordinates as t, x1 ... xn).

Exit codes: 0 success, 1 usage error or out of memory, 2 verification/contract
failure.

Config files are flat UTF-8 ``key = value`` lines (# comments allowed);
command-line flags override file values; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ClarkLabError
from .functionals import ps_diagnostic
from .models import (
    ENUMERATION_N_MAX,
    LEVEL_J_MAX,
    ClarkModel,
    CriticalSetOracle,
    enumerate_critical_set,
)
from .solvers import SolveConfig, accumulation_scan
from .spaces import Point
from .topology import Cloud, origin_component_stabilization


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# experiment parameter schemas: name -> (type, default, help)
SCHEMAS = {
    "enumerate": {
        "n": (int, 3, "truncation dimension"),
        "z_samples": (int, 201, "stationary-segment sample count"),
    },
    "scan": {
        "n": (int, 3, "truncation dimension"),
        "seeds": (int, 2000, "number of flow seeds"),
        "window_lo": (float, -2.0, "window lower edge"),
        "window_hi": (float, -1e-9, "window upper edge (<= 0)"),
        "max_flow_time": (float, 1e6, "per-seed flow-time budget"),
        "oracle_tol": (float, 1e-6, "max allowed distance to the enumerated set"),
    },
    "deform": {
        "samples": (int, 500, "points of the low-energy region to deform"),
        "circle_samples": (int, 64, "exterior-cluster sample count"),
        "odd_pairs": (int, 50, "antipodal pairs for the oddness check"),
        "budget": (int, 20000, "bound-estimation sampling budget"),
    },
    "stabilize": {
        "clouds": (int, 100, "random clouds for the nesting property"),
        "z_samples": (int, 20001, "stationary-segment samples for the model cloud"),
    },
    "minimax": {
        "n": (int, 8, "truncation dimension"),
        "jmax": (int, 6, "largest level"),
    },
    "bvp": {
        "p": (float, 0.5, "sublinearity exponent in (0,1)"),
        "kmax": (int, 6, "largest nodal-domain count"),
        "nodes": (int, 2000, "interior grid nodes"),
    },
    "psdiag": {
        "n": (int, 8, "truncation dimension"),
        "tol": (float, 1e-6, "clustering/convergence tolerance"),
    },
}


# every integer schema key is a count that must be at least 1, or at least
# the value given here (the bvp slope fit needs two points); every float
# schema key must be finite
_INT_MIN = {"z_samples": 2, "kmax": 2}

_MODEL_SCHEDULE = (0.02, 0.005, 2e-4, 1e-4)    # stabilize's model-cloud scales


# options every experiment takes; like the schema keys they can come from a
# config file, and they are not part of the experiment's results params
COMMON = {
    "out": (str, "clarklab-output", "output directory"),
    "seed": (int, 0, "rng seed; only scan, deform and stabilize draw from "
                     "it, and enumerate, minimax, bvp and psdiag draw nothing"),
    "threads": (int, 1, "worker threads"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="clarklab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="experiment", required=True, parser_class=_Parser)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        # every default is None so that resolution can tell a flag that was
        # given from one that was not, whichever spelling it used
        for key, (typ, default, help_text) in {**schema, **COMMON}.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ,
                           help=f"{help_text} (default {default})")
        p.add_argument("--config", type=str, help="flat key = value config file")
    return parser


def _load_config(path: str, schema: dict, parser: _Parser) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in schema:
            parser.error(f"{path}:{lineno}: unknown key '{key}'")
        typ = schema[key][0]
        try:
            values[key] = typ(val.strip())
        except ValueError:
            parser.error(f"{path}:{lineno}: bad value for '{key}'")
    return values


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(c) if isinstance(c, float) else c for c in row])


def _write_json(path: Path, obj):
    # compact, so the C encoder writes it
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def _fields(obj, names: str) -> dict:
    """The named attributes of a report, as a results.json object."""
    return {name: getattr(obj, name) for name in names.split()}


def _counts(labels: list) -> dict:
    return {lbl: labels.count(lbl) for lbl in sorted(set(labels))}


def _write_points(path: Path, header, columns, coords):
    """One CSV row per model point: the given columns, then the point's
    x-part as x1 ... xn (its t is one of the columns).  csv writes a
    missing pattern, None, as an empty cell."""
    xs = [f"x{i}" for i in range(1, coords.shape[1])]
    _write_csv(path, [*header, *xs],
               ([*cells, *c[1:]] for cells, c in zip(zip(*columns), coords.tolist())))


# ---------------------------------------------------------------------------
# experiments: each writes its own CSV files and returns (results, checks)

def _run_enumerate(ns, out: Path):
    model = ClarkModel(ns.n)
    es = enumerate_critical_set(model, z_samples=ns.z_samples)
    labels = es.labels.tolist()
    worst = float(np.max(es.residuals))
    _write_points(out / "points.csv", ["label", "pattern", "value", "residual", "t"],
                  [labels, es.patterns, es.values.tolist(), es.residuals.tolist(),
                   es.coords[:, 0].tolist()], es.coords)
    results = {"counts": _counts(labels), "worst_residual": worst}
    checks = {
        "branch_counts": labels.count("N") == 3 ** ns.n and labels.count("-N") == 3 ** ns.n,
        "residuals_vanish": worst <= 1e-12,
    }
    return results, checks


def _run_scan(ns, out: Path):
    model = ClarkModel(ns.n)
    cfg = SolveConfig(max_flow_time=ns.max_flow_time)
    report = accumulation_scan(model, (ns.window_lo, ns.window_hi), ns.seeds, ns.seed,
                               cfg, threads=ns.threads)
    _write_points(out / "scan.csv", ["value", "residual", "t", "dist_to_K0", "label", "pattern"],
                  [report.values.tolist(), report.residuals.tolist(),
                   report.coords[:, 0].tolist(), report.dist_to_k0.tolist(),
                   report.labels, report.patterns], report.coords)
    # one batched distance call; an empty scan's worst distance is 0
    worst = float(np.max(CriticalSetOracle(model).distance(report.coords), initial=0.0))
    counts = _counts(report.labels)
    results = {"n_converged": report.n_converged, "counts": counts,
               "worst_oracle_distance": worst}
    checks = {
        "all_in_window_near_oracle": worst <= ns.oracle_tol,
        "edge_labels_only": set(counts) <= {"N", "-N"},
    }
    return results, checks


def _run_deform(ns, out: Path):
    from .deformation import band_seeds, eta_epsilon_batch, make_setup, two_cluster_setup_clouds
    f, k0i, k0e, delta0 = two_cluster_setup_clouds(ns.circle_samples)
    setup = make_setup(f, k0i, k0e, delta0, budget=ns.budget, seed=ns.seed)
    seeds = band_seeds(f, setup.eps, ns.samples, np.random.default_rng(ns.seed))

    # eta is odd when the time-T images of s and -s cancel; the mirrors of the
    # first k seeds ride in the flow, and as the field is odd they keep its steps
    k = min(ns.odd_pairs, len(seeds))
    moved, max_uptick, max_speed = eta_epsilon_batch(setup, np.concatenate([seeds, -seeds[:k]]))
    terminals = moved[: len(seeds)]
    odd_dev = float(np.max(np.abs(moved[:k] + moved[len(seeds):])))

    results = {
        # the clusters are fixed by circle_samples, which params echoes
        "setup": _fields(setup, "delta0 r rho nu nu_eps d eps t_eps"),
        "max_energy_uptick": max_uptick,
        "max_speed": max_speed,
        "oddness_deviation": odd_dev,
    }
    checks = {
        "inclusion_holds": True,  # eta_epsilon_batch raises otherwise
        "odd": odd_dev <= 1e-8,
        "speed_bounded": max_speed <= 1.0 + 1e-8,
        "energy_monotone": max_uptick <= 1e-10,
    }
    rows = [(float(s[0]), float(s[1]), float(t[0]), float(t[1]), float(v))
            for s, t, v in zip(seeds, terminals, f.value_of(terminals))]
    _write_csv(out / "deformed.csv",
               ["seed_x1", "seed_x2", "out_x1", "out_x2", "out_value"], rows)
    return results, checks


def _run_stabilize(ns, out: Path):
    gap = np.concatenate([[0.0], np.arange(0.5, 1.0 + 1e-12, 0.01)])[:, None]
    rep_gap = origin_component_stabilization(Cloud(gap), (0.3, 0.2, 0.1, 0.05))

    seg = np.arange(-1.0, 1.0 + 1e-12, 0.01)[:, None]
    rep_seg = origin_component_stabilization(Cloud(seg), (0.3, 0.2, 0.1, 0.05))

    model = ClarkModel(2)
    es = enumerate_critical_set(model, z_samples=ns.z_samples)
    cloud = Cloud(es.coords)
    rep_model = origin_component_stabilization(cloud, _MODEL_SCHEDULE)
    # the all-zero sign pattern duplicates the segment endpoints, so the
    # stable origin component is every point sitting exactly on the t-axis
    axis_count = int(np.sum(np.linalg.norm(cloud.coords[:, 1:], axis=1) == 0.0))

    rng = np.random.default_rng(ns.seed)
    violations = 0
    for _ in range(ns.clouds):
        dim = int(rng.integers(1, 4))
        m = int(rng.integers(5, 60))
        pts = np.concatenate([np.zeros((1, dim)), rng.normal(size=(m, dim))])
        sched = np.unique(rng.uniform(0.02, 1.0, size=int(rng.integers(2, 7))))[::-1]
        try:
            origin_component_stabilization(Cloud(pts), tuple(sched))
        except RuntimeError:
            violations += 1

    # the member sets are checked to nest in-process, which raises otherwise;
    # the evidence is their sizes and whether they settled
    reports = {name: _fields(rep, "schedule sizes nested_ok stabilized note")
               for name, rep in (("gap_segment", rep_gap), ("connected_segment", rep_seg),
                                 ("model_critical_cloud", rep_model))}
    results = {"examples": reports, "nesting_violations": violations}
    checks = {
        "gap_segment_isolates_origin": rep_gap.sizes[-1] == 1 and rep_gap.stabilized,
        "connected_segment_is_whole": rep_seg.sizes[-1] == len(seg) and rep_seg.stabilized,
        "model_cloud_stabilizes_to_segment": (rep_model.stabilized
                                              and rep_model.sizes[-1] == axis_count),
        "no_nesting_violation": violations == 0,
    }
    return results, checks


def _run_minimax(ns, out: Path):
    from .minimax import cj_upper_bound, coordinate_model_bound
    model = ClarkModel(ns.n)
    estimates = [cj_upper_bound(model, j) for j in range(1, ns.jmax + 1)]
    bounds = [e.upper_bound for e in estimates]
    # the sphere-sup table: every radius each level evaluated, and its sup
    _write_csv(out / "minimax.csv", ["j", "rho", "sup"],
               [(e.j, rho, sup) for e in estimates for rho, sup in e.sphere_sup_trace])
    # on the coordinate model each level's bound has a closed form, so every
    # estimate is checked against it, not only level one's window
    levels = []
    for e in estimates:
        closed = coordinate_model_bound(e.j)[1]
        levels.append({**_fields(e, "j rho_star upper_bound"),
                       "witness": e.witness.coords.tolist(),
                       "closed_form_bound": closed,
                       "relative_gap": abs(e.upper_bound - closed) / abs(closed)})
    results = {"estimates": levels}
    checks = {
        "all_negative": all(b < 0 for b in bounds),
        "nondecreasing": all(b1 <= b2 + 1e-15 for b1, b2 in zip(bounds, bounds[1:])),
        "level_one_window": bounds[0] <= -8.0 / 243.0 + 1e-9 and bounds[0] >= -1.0 / 6.0 - 1e-6,
        "matches_closed_form": all(lv["relative_gap"] <= 1e-9 for lv in levels),
    }
    return results, checks


def _run_bvp(ns, out: Path):
    from .bvp import energy_scaling_exponent, nodal_family, reshoot_values
    from .spaces import H01Grid
    grid = H01Grid(ns.nodes)
    family = nodal_family(ns.p, ns.kmax, grid)
    _write_csv(out / "family.csv", ["k", "energy_norm_sq", "j_value", "nehari_residual",
                                    "sup_norm", "strong_residual"],
               [(s.k, s.energy_norm_sq, s.j_value, s.nehari_residual, s.sup_norm,
                 s.strong_residual) for s in family])
    sol1 = family[0]
    _write_csv(out / "base_solution.csv", ["x", "u"],
               [(float(x), float(u)) for x, u in zip(sol1.abscissae, sol1.values_full)])

    ks = np.arange(1, ns.kmax + 1)
    slope = float(np.polyfit(np.log(ks), np.log([s.energy_norm_sq for s in family]), 1)[0])
    expected = energy_scaling_exponent(ns.p)

    re2 = reshoot_values(family[1])
    reshoot_dev = float(np.max(np.abs(re2 - family[1].values_full[1:-1])))

    ratio = (1.0 - ns.p) / (2.0 * (ns.p + 1.0))
    j_dev = max(abs(s.j_value + ratio * s.energy_norm_sq) / abs(s.j_value)
                for s in family)
    worst_nehari = max(s.nehari_residual for s in family)
    # the members' rows are in family.csv; these are what the checks read
    results = {
        "worst_nehari_residual": worst_nehari, "j_identity_deviation": j_dev,
        "fitted_energy_slope": slope, "expected_energy_slope": expected,
        "reshoot_sup_deviation": reshoot_dev,
    }
    checks = {
        "nehari": worst_nehari < 1e-6,
        "energy_slope": abs(slope - expected) <= 0.01,
        "j_identity": j_dev <= 1e-6,
        "reshoot_matches": reshoot_dev <= 1e-5,
    }
    return results, checks


def _run_psdiag(ns, out: Path):
    model = ClarkModel(ns.n)
    seq = []
    for k in range(1, ns.n + 1):
        coords = np.zeros(ns.n + 1)
        coords[0] = 1.0
        coords[k] = 9.0 * 3.0 ** (-2 * k)
        seq.append(Point(coords, model.space))
    report = ps_diagnostic(model, seq, 0.0, tol=ns.tol)
    results = {
        "target_level": report.target_level,
        "values": list(report.value_trace),
        "residuals": list(report.residual_trace),
        "clusters": [[float(c) for c in p.coords] for p in report.cluster_points],
        "has_convergent_subsequence": report.has_convergent_subsequence,
        "note": report.note,
    }
    checks = {
        "values_negative_to_zero": all(v < 0 for v in report.value_trace)
        and report.values_converge,
        "residuals_vanish": report.residuals_vanish,
        "clusters_found": report.has_convergent_subsequence,
    }
    return results, checks


RUNNERS = {
    "enumerate": _run_enumerate,
    "scan": _run_scan,
    "deform": _run_deform,
    "stabilize": _run_stabilize,
    "minimax": _run_minimax,
    "bvp": _run_bvp,
    "psdiag": _run_psdiag,
}


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    schema = SCHEMAS[ns.experiment]
    options = {**schema, **COMMON}

    if ns.config:
        file_values = _load_config(ns.config, options, parser)
    else:
        file_values = {}
    # resolution order: schema default < config file < explicit flag
    for key, (_typ, default, _help) in options.items():
        if getattr(ns, key) is None:
            setattr(ns, key, file_values.get(key, default))
    for key, (typ, _default, _help) in schema.items():
        value = getattr(ns, key)
        low = _INT_MIN.get(key, 1)
        if typ is int and value < low:
            parser.error(f"{key} must be positive" if low == 1
                         else f"{key} must be at least {low}")
        if typ is float and not np.isfinite(value):
            parser.error(f"{key} must be finite")
    if ns.seed < 0:
        parser.error("seed must be non-negative")
    if ns.threads < 1:
        parser.error("threads must be positive")
    # an even count of segment samples misses t = 0, and with it the origin;
    # they chain at the finest scale delta only if 2 / (z_samples - 1) < 2 delta
    if ns.experiment == "stabilize" and ns.z_samples % 2 == 0:
        parser.error("z_samples must be odd for stabilize")
    if ns.experiment == "stabilize" and not 2.0 / (ns.z_samples - 1) < 2.0 * _MODEL_SCHEDULE[-1]:
        parser.error(f"z_samples must exceed {1.0 + 1.0 / _MODEL_SCHEDULE[-1]:.0f} for stabilize")
    if ns.experiment == "minimax" and ns.jmax > ns.n:
        parser.error("jmax must not exceed n")
    # minimax's levels and psdiag's sequence terms have values like 3^(-4j),
    # which leave the normal floats past LEVEL_J_MAX
    if ns.experiment == "minimax" and ns.jmax > LEVEL_J_MAX:
        parser.error(f"jmax must not exceed {LEVEL_J_MAX}")
    if ns.experiment == "psdiag" and ns.n > LEVEL_J_MAX:
        parser.error(f"n must not exceed {LEVEL_J_MAX}")
    # enumerate builds the 2 * 3^n branch table; scan builds none, but its
    # oracle check already fails from n = 4, so it keeps the same bound
    if ns.experiment in ("enumerate", "scan") and ns.n > ENUMERATION_N_MAX:
        parser.error(f"n must not exceed {ENUMERATION_N_MAX}")

    out = Path(ns.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create output directory: {exc}")
    started = time.time()
    status = "error"
    checks = {}
    note = ""
    try:
        results, checks = RUNNERS[ns.experiment](ns, out)
        ok = all(checks.values())
        status = "ok" if ok else "verification-failed"
        payload = {
            "experiment": ns.experiment,
            "params": {k: getattr(ns, k) for k in schema},
            "seed": ns.seed,
            "results": results,
            "checks": checks,
        }
        _write_json(out / "results.json", payload)
        if not ok:
            failed = sorted(k for k, v in checks.items() if not v)
            print(f"clarklab {ns.experiment}: checks failed: {', '.join(failed)}",
                  file=sys.stderr)
        return 0 if ok else 2
    except ClarkLabError as exc:
        status = "verification-failed"
        note = f"{type(exc).__name__}: {exc}"
        print(f"clarklab {ns.experiment}: {note}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a count too large for this machine: one line, not a traceback
        note = f"out of memory: {exc}" if str(exc) else "out of memory"
        print(f"clarklab {ns.experiment}: {note}", file=sys.stderr)
        return 1
    finally:
        manifest = {
            "experiment": ns.experiment,
            "params": {k: getattr(ns, k) for k in schema},
            "seed": ns.seed,
            "threads": ns.threads,
            "status": status,
            "note": note,
            "checks": checks,
            "versions": {
                "package": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "wall_time_s": time.time() - started,
        }
        _write_json(out / "manifest.json", manifest)


if __name__ == "__main__":
    sys.exit(main())
