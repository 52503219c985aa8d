import csv
import json
import subprocess
import sys

import pytest

from clarklab import cli, minimax
from clarklab.models import clark_model, enumerate_critical_set
from clarklab.solvers import accumulation_scan


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "clarklab", *args],
                          capture_output=True, text=True)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# argument handling

def test_no_arguments_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 1
    assert "usage" in proc.stderr


def test_unknown_flag_is_a_usage_error(tmp_path):
    proc = run_cli("enumerate", "--bogus", "3", "--out", str(tmp_path))
    assert proc.returncode == 1


def test_bad_flag_value_is_a_usage_error(tmp_path):
    proc = run_cli("scan", "--seeds", "plenty", "--out", str(tmp_path))
    assert proc.returncode == 1


def test_unknown_config_key_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n", encoding="utf-8")
    proc = run_cli("enumerate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "unknown key" in proc.stderr


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment lines are skipped\n"
        "seeds = 25\n"
        "window_lo = -1.5\n"
        "seed = 3\n",
        encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli("scan", "--n", "2", "--config", str(cfg),
                   "--seeds", "30", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_json(out / "results.json")
    assert results["params"]["seeds"] == 30        # flag beats file
    assert results["params"]["window_lo"] == -1.5  # file beats default
    assert results["seed"] == 3


def test_equals_form_flags_beat_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 7\nthreads = 2\nout = {tmp_path / 'from-file'}\n",
                   encoding="utf-8")
    out = tmp_path / "from-flag"
    proc = run_cli("enumerate", "--n", "1", "--z-samples", "3", "--config", str(cfg),
                   "--seed=5", "--threads=3", f"--out={out}")
    assert proc.returncode == 0, proc.stderr
    manifest = read_json(out / "manifest.json")
    assert manifest["seed"] == 5
    assert manifest["threads"] == 3
    assert not (tmp_path / "from-file").exists()


def test_bad_seed_or_threads_in_config_is_a_usage_error(tmp_path):
    for line, message in (("seed = x\n", "bad value"), ("threads = 1.5\n", "bad value"),
                          ("seed = -1\n", "seed must be non-negative")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line, encoding="utf-8")
        proc = run_cli("enumerate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("scan", "--seeds", "0"), "seeds must be positive"),
    (("scan", "--n", "0"), "n must be positive"),
    (("minimax", "--n", "0"), "n must be positive"),
    (("psdiag", "--n", "0"), "n must be positive"),
    (("bvp", "--kmax", "0"), "kmax must be at least 2"),
    (("bvp", "--kmax", "1"), "kmax must be at least 2"),
    (("bvp", "--nodes", "0"), "nodes must be positive"),
    (("stabilize", "--clouds", "-1"), "clouds must be positive"),
    (("enumerate", "--z-samples", "1"), "z_samples must be at least 2"),
    (("deform", "--seed", "-1"), "seed must be non-negative"),
    (("minimax", "--n", "2", "--jmax", "3"), "jmax must not exceed n"),
    (("scan", "--max-flow-time", "nan"), "max_flow_time must be finite"),
    (("scan", "--window-lo=-inf"), "window_lo must be finite"),
    (("psdiag", "--tol", "inf"), "tol must be finite"),
    (("bvp", "--p", "nan"), "p must be finite"),
    (("enumerate", "--threads", "0"), "threads must be positive"),
    (("scan", "--threads", "-3"), "threads must be positive"),
    (("enumerate", "--n", "11"), "n must not exceed 10"),
    (("scan", "--n", "25"), "n must not exceed 10"),
    (("minimax", "--n", "162", "--jmax", "162"), "jmax must not exceed 161"),
    (("psdiag", "--n", "162"), "n must not exceed 161"),
    (("stabilize", "--z-samples", "2000"), "z_samples must be odd for stabilize"),
    (("stabilize", "--z-samples", "10001"), "z_samples must exceed 10001 for stabilize"),
], ids=["scan-seeds", "scan-n", "minimax-n", "psdiag-n", "bvp-kmax", "bvp-kmax-1",
        "bvp-nodes", "stabilize-clouds", "enumerate-z_samples", "deform-seed",
        "minimax-jmax", "scan-max-flow-time-nan", "scan-window-lo-inf", "psdiag-tol-inf",
        "bvp-p-nan", "enumerate-threads-0", "scan-threads-neg", "enumerate-n-11",
        "scan-n-25", "minimax-jmax-162", "psdiag-n-162",
        "stabilize-z_samples-even", "stabilize-z_samples-unchained"])
def test_scan_with_no_seeds_is_a_usage_error(tmp_path, args, message):
    proc = run_cli(*args, "--out", str(tmp_path))
    assert proc.returncode == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())   # no results.json, no manifest.json


def test_a_non_finite_config_value_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tol = nan\n", encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli("psdiag", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1
    assert "tol must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-file"])
def test_out_naming_a_file_is_a_usage_error(tmp_path, below):
    target = tmp_path / "taken"
    target.write_text("not a directory\n", encoding="utf-8")
    proc = run_cli("enumerate", "--n", "1", "--out", str(target.joinpath(*below)))
    assert proc.returncode == 1
    assert "cannot create output directory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert target.read_text(encoding="utf-8") == "not a directory\n"


# ---------------------------------------------------------------------------
# one small run per experiment

def test_enumerate_writes_all_three_artifacts(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("enumerate", "--n", "2", "--z-samples", "11", "--out", str(out))
    assert proc.returncode == 0, proc.stderr

    results = read_json(out / "results.json")
    # the points are in points.csv alone, and params holds n
    assert set(results["results"]) == {"counts", "worst_residual"}
    assert results["results"]["counts"] == {"N": 9, "-N": 9, "Z": 11}
    assert results["results"]["worst_residual"] <= 1e-12
    assert all(results["checks"].values())

    rows = read_csv(out / "points.csv")
    assert rows[0] == ["label", "pattern", "value", "residual", "t", "x1", "x2"]
    assert len(rows) == 1 + 9 + 9 + 11

    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "ok"
    assert manifest["params"] == {"n": 2, "z_samples": 11}
    assert manifest["versions"]["package"]
    assert manifest["wall_time_s"] > 0.0


def test_scan_small_run_finds_only_oracle_points(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("scan", "--n", "2", "--seeds", "40", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_json(out / "results.json")
    # the terminals are in scan.csv alone, and params holds the window and seeds
    assert set(results["results"]) == {"counts", "n_converged", "worst_oracle_distance"}
    assert results["results"]["worst_oracle_distance"] <= 1e-6
    rows = read_csv(out / "scan.csv")
    assert rows[0] == ["value", "residual", "t", "dist_to_K0", "label", "pattern", "x1", "x2"]
    assert len(rows) == 1 + sum(results["results"]["counts"].values()) > 1


def test_scan_with_an_empty_window_writes_an_empty_report(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("scan", "--n", "2", "--seeds", "20", "--window-lo=-1e-300",
                   "--window-hi=-1e-301", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_json(out / "results.json")["results"]
    assert results["counts"] == {}
    assert results["worst_oracle_distance"] == 0.0
    assert read_csv(out / "scan.csv") == [
        ["value", "residual", "t", "dist_to_K0", "label", "pattern", "x1", "x2"]]


@pytest.mark.parametrize("experiment", ["scan", "enumerate"])
def test_point_csvs_round_trip_coordinates_and_patterns(tmp_path, experiment):
    # results.json holds no points, so the CSV must give back every
    # coordinate and pattern of the report exactly
    model = clark_model(n=2)
    if experiment == "scan":
        flags, name = ("--seeds", "40", "--seed", "4"), "scan.csv"
        report = accumulation_scan(model, (-2.0, -1e-9), 40, 4)
    else:
        flags, name = ("--z-samples", "11"), "points.csv"
        report = enumerate_critical_set(model, z_samples=11)
    assert cli.main([experiment, "--n", "2", *flags, "--out", str(tmp_path)]) == 0
    header, *rows = read_csv(tmp_path / name)
    columns = [header.index(c) for c in ("t", "x1", "x2")]
    assert len(rows) == len(report.coords) > 0
    for row, coords, pattern in zip(rows, report.coords.tolist(), report.patterns):
        assert [float(row[i]) for i in columns] == coords
        assert row[header.index("pattern")] == (pattern or "")


def test_deform_small_run_passes_the_flow_contract(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("deform", "--samples", "40", "--circle-samples", "32",
                   "--odd-pairs", "5", "--budget", "4000", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_json(out / "results.json")
    # params holds samples, which band_seeds always meets
    assert set(results["results"]) == {"setup", "max_energy_uptick", "max_speed",
                                       "oddness_deviation"}
    assert results["results"]["oddness_deviation"] <= 1e-8
    # the clusters are fixed by circle_samples, which params echoes
    setup = results["results"]["setup"]
    assert set(setup) == {"delta0", "r", "rho", "nu", "nu_eps", "d", "eps", "t_eps"}
    assert all(isinstance(v, float) for v in setup.values())
    assert results["results"]["max_speed"] <= 1.0 + 1e-8
    rows = read_csv(out / "deformed.csv")
    assert len(rows) == 1 + 40


def test_stabilize_small_run_recovers_the_axis_segment(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("stabilize", "--clouds", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_json(out / "results.json")
    assert set(results["results"]) == {"examples", "nesting_violations"}
    examples = results["results"]["examples"]
    # the nesting is checked in-process; no member sets or points are dumped
    for example in examples.values():
        assert set(example) == {"note", "nested_ok", "schedule", "sizes", "stabilized"}
    assert examples["gap_segment"]["sizes"][-1] == 1
    assert examples["connected_segment"]["stabilized"] is True
    assert examples["model_critical_cloud"]["stabilized"] is True
    assert results["results"]["nesting_violations"] == 0
    assert all(results["checks"].values())


def test_minimax_small_run_orders_the_levels(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("minimax", "--n", "4", "--jmax", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_json(out / "results.json")
    assert set(results["results"]) == {"estimates"}
    bounds = [e["upper_bound"] for e in results["results"]["estimates"]]
    assert len(bounds) == 3
    assert all(b < 0.0 for b in bounds)
    assert bounds == sorted(bounds)
    assert results["checks"]["matches_closed_form"] is True
    for e in results["results"]["estimates"]:
        assert set(e) == {"j", "rho_star", "upper_bound", "witness", "closed_form_bound",
                          "relative_gap"}
        assert e["closed_form_bound"] < 0.0
        assert 0.0 <= e["relative_gap"] <= 1e-9
    # the sphere-sup table: each level's grid radii, then its rho*, whose sup
    # is the level's bound
    rows = read_csv(out / "minimax.csv")
    assert rows[0] == ["j", "rho", "sup"]
    per_level = len(minimax._RHO_GRID) + 1
    assert len(rows) == 1 + 3 * per_level
    for e, last in zip(results["results"]["estimates"], rows[per_level::per_level]):
        assert last == [str(e["j"]), repr(e["rho_star"]), repr(e["upper_bound"])]


def test_minimax_at_twenty_levels_matches_the_closed_form(tmp_path):
    # each level's optimum radius 4 * 3^(-2j) is evaluated, not searched
    # for, so it stays exact however deep the level
    out = tmp_path / "out"
    proc = run_cli("minimax", "--n", "20", "--jmax", "20", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_json(out / "results.json")
    assert results["checks"]["matches_closed_form"] is True
    assert max(e["relative_gap"] for e in results["results"]["estimates"]) <= 1e-14


def test_bvp_small_run_writes_the_family(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("bvp", "--kmax", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_json(out / "results.json")
    # the members' rows are in family.csv alone
    assert set(results["results"]) == {"worst_nehari_residual", "j_identity_deviation",
                                       "fitted_energy_slope", "expected_energy_slope",
                                       "reshoot_sup_deviation"}
    assert abs(results["results"]["fitted_energy_slope"] + 6.0) <= 0.01
    rows = read_csv(out / "family.csv")
    assert rows[0] == ["k", "energy_norm_sq", "j_value", "nehari_residual", "sup_norm",
                       "strong_residual"]
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]
    assert results["results"]["worst_nehari_residual"] == max(float(row[3]) for row in rows[1:])
    assert len(read_csv(out / "base_solution.csv")) == 1 + 2002


def test_psdiag_reports_a_convergent_subsequence(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("psdiag", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_json(out / "results.json")
    assert set(results["results"]) == {"target_level", "values", "residuals", "clusters",
                                       "has_convergent_subsequence", "note"}
    assert results["results"]["has_convergent_subsequence"] is True
    assert all(v < 0.0 for v in results["results"]["values"])


# ---------------------------------------------------------------------------
# failure paths

def test_failed_checks_exit_two_and_mark_the_manifest(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("scan", "--n", "2", "--seeds", "25",
                   "--oracle-tol", "1e-30", "--out", str(out))
    assert proc.returncode == 2
    assert "checks failed" in proc.stderr
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "verification-failed"
    results = read_json(out / "results.json")  # still written for inspection
    assert results["checks"]["all_in_window_near_oracle"] is False


def test_domain_errors_exit_two_with_a_note(tmp_path):
    # p = 0.99 lies in (0, 1), but the amplitude k^(2/(p-1)) of the k = 2
    # member underflows, and with it the member's energy norm
    for p in ("1.5", "0.99"):
        out = tmp_path / p
        proc = run_cli("bvp", "--p", p, "--kmax", "2", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("clarklab bvp: InvalidParams: ")
        assert proc.stderr.count("\n") == 1
        manifest = read_json(out / "manifest.json")
        assert manifest["status"] == "verification-failed"
        assert manifest["note"].startswith("InvalidParams")
        assert not (out / "results.json").exists()


def test_out_of_memory_exits_one_with_a_clean_line(tmp_path, monkeypatch, capsys):
    from clarklab import cli

    def exhausted(ns, out):
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setitem(cli.RUNNERS, "enumerate", exhausted)
    out = tmp_path / "out"
    assert cli.main(["enumerate", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "clarklab enumerate: out of memory: Unable to allocate 7.45 GiB\n"
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "error"
    assert manifest["note"] == "out of memory: Unable to allocate 7.45 GiB"
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("args, data_file", [
    (("scan", "--n", "2", "--seeds", "30"), "scan.csv"),
    (("deform", "--samples", "40", "--circle-samples", "32", "--odd-pairs", "5",
      "--budget", "4000"), "deformed.csv"),
    (("psdiag", "--n", "6"), None),
    (("enumerate", "--n", "2", "--z-samples", "11"), "points.csv"),
    (("stabilize", "--clouds", "5"), None),
    (("minimax", "--n", "4", "--jmax", "3"), "minimax.csv"),
], ids=["scan", "deform", "psdiag", "enumerate", "stabilize", "minimax"])
def test_same_seed_runs_are_byte_identical(tmp_path, args, data_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    # both JSON files are one line of compact JSON with sorted keys
    for name in ("results.json", "manifest.json"):
        text = (out1 / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    if data_file is not None:
        assert (out1 / data_file).read_bytes() == (out2 / data_file).read_bytes()


@pytest.mark.parametrize("args", [
    ("enumerate", "--n", "2", "--z-samples", "11"),
    ("minimax", "--n", "4", "--jmax", "3"),
    ("bvp", "--kmax", "3"),
    ("psdiag", "--n", "6"),
], ids=["enumerate", "minimax", "bvp", "psdiag"])
def test_experiments_that_draw_nothing_ignore_the_seed(tmp_path, args):
    # --seed is taken by every experiment, but these four draw no random
    # numbers: their results differ only in the echoed seed, their data not at all
    outs = [tmp_path / f"seed{seed}" for seed in (0, 1)]
    for seed, out in enumerate(outs):
        proc = run_cli(*args, "--seed", str(seed), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    results = [read_json(out / "results.json") for out in outs]
    assert [r.pop("seed") for r in results] == [0, 1]
    assert results[0] == results[1]
    data = [{p.name for p in out.iterdir()} - {"results.json", "manifest.json"}
            for out in outs]
    assert data[0] == data[1]
    for name in data[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
