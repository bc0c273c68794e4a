"""Command-line surface: payloads, files, exit codes, determinism."""

import concurrent.futures
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trbroadcast import BroadcastCheck, cli
from trbroadcast.cli import main

REPO = Path(__file__).resolve().parents[1]

GOLDEN_SMALL_SWEEP = [
    "family,n,k,t,r,formula_gamma,solver_gamma,construction_size,agree",
    "path,1,1,1,1,1,1,1,true",
    "path,2,1,1,1,2,2,2,true",
    "path,3,1,1,1,3,3,3,true",
    "path,4,1,1,1,4,4,4,true",
    "path,1,1,2,1,1,1,1,true",
    "path,2,1,2,1,1,1,1,true",
    "path,3,1,2,1,1,1,1,true",
    "path,4,1,2,1,2,2,2,true",
    "path,1,1,2,2,1,1,1,true",
    "path,2,1,2,2,2,2,2,true",
    "path,3,1,2,2,2,2,2,true",
    "path,4,1,2,2,3,3,3,true",
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- formula


def test_formula_plain_and_json():
    code, out, _ = run(["formula", "path", "-n", "10", "-k", "1", "-t", "3", "-r", "2"])
    assert code == 0
    assert out.strip() == "3"
    code, out, _ = run(
        ["formula", "cycle", "-n", "5", "-k", "2", "-t", "3", "-r", "1", "--json"]
    )
    assert code == 0
    assert json.loads(out) == {
        "family": "cycle", "n": 5, "k": 2, "t": 3, "r": 1, "gamma": 1,
    }
    code, out, _ = run(["formula", "path", "-n", "1", "-k", "5", "-t", "2", "-r", "2"])
    assert (code, out.strip()) == (0, "1")


def test_formula_rejects_bad_input():
    code, _, err = run(["formula", "path", "-n", "0", "-k", "1", "-t", "3", "-r", "2"])
    assert code == 2
    assert "error:" in err
    code, _, _ = run(["formula", "path", "-n", "5", "-k", "1", "-t", "2", "-r", "3"])
    assert code == 2


# ------------------------------------------------------------------ solve


def test_solve_payload():
    code, out, _ = run(["solve", "path:n=10,k=1", "-t", "3", "-r", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 3
    assert payload["proof_of_optimality"] is True
    assert payload["witness"]["towers"] == [0, 4, 8]
    assert payload["witness"]["spec"] == "path:n=10,k=1"


def test_solve_budget_exhaustion_exits_3():
    # the greedy cover (3 towers) is not optimal here, so the search runs
    code, out, err = run(["solve", "path:n=10,k=2", "-t", "3", "-r", "2",
                          "--budget", "3"])
    assert code == 3
    payload = json.loads(out)
    assert payload["gamma"] == 3
    assert payload["proof_of_optimality"] is False
    assert payload["nodes_explored"] == 3
    assert payload["lower_bound"] == 2
    assert err == "node budget 3 exhausted after 3 nodes; 2 <= gamma <= 3\n"
    # on a grid cut before the ladder's first find, the LP dual lifts
    # the bound above the capacity bound, ceil(2 * 64 / 18) = 8
    code, out, err = run(["solve", "grid:8x8", "-t", "3", "-r", "2", "--budget", "400"])
    assert code == 3
    payload = json.loads(out)
    assert (payload["lower_bound"], payload["gamma"]) == (10, 12)
    assert payload["proof_of_optimality"] is False
    assert err == "node budget 400 exhausted after 400 nodes; 10 <= gamma <= 12\n"


def test_solve_deep_path_runs_without_recursion():
    # the greedy cover has 1002 towers and the optimum 1001, which the
    # search reaches 1001 towers deep
    code, out, _ = run(["solve", "path:n=2001,k=1", "-t", "2", "-r", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 1001
    assert payload["proof_of_optimality"] is True
    assert payload["nodes_explored"] == 2002


def test_solve_over_the_table_limit_exits_2():
    # 10^10 vertices are refused before the cover table is built. The
    # run gets a 1 GiB address-space cap, so a missing guard fails fast
    # instead of filling memory.
    proc = subprocess.run([sys.executable, "-m", "trbroadcast", "solve", "torus:100000x100000",
                           "-t", "2", "-r", "1"], capture_output=True, text=True,
                          env=src_env(), preexec_fn=cap_memory, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: torus:100000x100000 at t=2 needs a cover table of up to "
                           "50000000000 entries, over the limit of 4194304\n")


@pytest.mark.parametrize("spec, t, entries", [
    # V x the closed-form ball: 2(t - 1)k + 1 on one row (path and
    # cycle powers, and grids and tori one row high, where k = 1),
    # 2t^2 - 2t + 1 on other grids and tori, each capped at V
    ("grid:5x5", 2, 25 * 5),
    ("cycle:n=10,k=2", 3, 10 * 9),
    ("torus:2x2", 5, 4 * 4),
    ("grid:1x50", 5, 50 * 9),
])
def test_solve_table_limit_counts_v_times_the_ball(monkeypatch, spec, t, entries):
    import trbroadcast.errors as errors

    argv = ["solve", spec, "-t", str(t), "-r", "1"]
    monkeypatch.setattr(errors, "MAX_ENTRIES", entries - 1)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.endswith(f" {entries} entries, over the limit of {entries - 1}\n")
    monkeypatch.setattr(errors, "MAX_ENTRIES", entries)
    assert run(argv)[0] == 0


def test_verify_and_construct_over_the_vertex_limit_exit_2(tmp_path):
    # The audit behind verify, and the builders before they list any
    # tower, refuse 10^10 and 10^9 vertices under the same 1 GiB cap as
    # solve above. The closed form builds nothing and still answers.
    towers = tmp_path / "towers.json"
    towers.write_text(json.dumps({"spec": "torus:100000x100000", "towers": [0]}))
    for argv in (["verify", str(towers)], ["construct", "path", "-n", "1000000000", "-k", "1"]):
        proc = subprocess.run([sys.executable, "-m", "trbroadcast", *argv, "-t", "2", "-r", "1"],
                              capture_output=True, text=True, env=src_env(),
                              preexec_fn=cap_memory, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "over the limit of 4194304" in proc.stderr
    code, out, _ = run(["formula", "path", "-n", "1000000000", "-k", "1", "-t", "2", "-r", "1"])
    assert (code, out) == (0, "333333334\n")


def test_internal_error_exits_4_and_still_writes_the_manifest(tmp_path, monkeypatch):
    import trbroadcast.solver as solver

    monkeypatch.setattr(solver, "is_broadcasting",
                        lambda towers, params: BroadcastCheck(False, 0, 0))
    manifest = tmp_path / "run.json"
    argv = ["solve", "path:n=10,k=1", "-t", "3", "-r", "2", "--manifest", str(manifest)]
    code, out, err = run(argv)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: solver witness failed its audit")
    assert "Traceback" in err and "RuntimeError" in err
    data = json.loads(manifest.read_text())
    assert data["argv"] == argv and data["outputs"] == []


def test_failed_dual_certificate_exits_4(monkeypatch):
    from fractions import Fraction

    import trbroadcast.solver as solver

    simplex = solver._simplex

    def uniform_weights(rows, gains):
        value, x = simplex(rows, gains)
        return value, [Fraction(1)] * len(x)

    monkeypatch.setattr(solver, "_simplex", uniform_weights)
    code, out, err = run(["solve", "grid:6x6", "-t", "3", "-r", "2"])
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: LP dual bound 6 failed its certificate")


def test_solve_rejects_bad_spec():
    code, _, err = run(["solve", "path:n=, k=1", "-t", "2", "-r", "1"])
    assert code == 2
    assert "error:" in err


# ------------------------------------------------ verify round trip


def test_verify_round_trip_through_files(tmp_path):
    witness = tmp_path / "witness.json"
    code, _, _ = run(["solve", "path:n=10,k=1", "-t", "3", "-r", "2",
                      "--out", str(tmp_path / "solve.json")])
    assert code == 0
    solved = json.loads((tmp_path / "solve.json").read_text())
    witness.write_text(json.dumps(solved["witness"]))

    code, out, _ = run(["verify", str(witness), "-t", "3", "-r", "2"])
    assert (code, out.strip()) == (0, "OK")

    # weaker strength breaks it, and the report names the vertex
    code, out, _ = run(["verify", str(witness), "-t", "2", "-r", "2"])
    assert code == 1
    assert out.startswith("FAIL vertex=")

    code, out, _ = run(["verify", str(witness), "-t", "2", "-r", "2", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["required"] == 2


def test_verify_missing_file_is_input_error(tmp_path):
    code, _, err = run(["verify", str(tmp_path / "nope.json"), "-t", "2", "-r", "1"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "tower,t",
    [
        (1.5, "2"),  # int() would truncate it to tower 1: FAIL vertex=3, exit 1
        ("2", "3"),  # int() would read tower 2, which broadcasts: exit 0
    ],
)
def test_verify_rejects_a_tower_index_that_is_not_an_integer(tmp_path, tower, t):
    towers = tmp_path / "towers.json"
    towers.write_text(json.dumps({"spec": "path:n=5,k=1", "towers": [tower]}))
    code, out, err = run(["verify", str(towers), "-t", t, "-r", "1"])
    assert (code, out) == (2, "")
    assert "error:" in err


def test_construct_then_verify(tmp_path):
    out_file = tmp_path / "towers.json"
    code, _, _ = run(["construct", "path", "-n", "10", "-k", "1", "-t", "3",
                      "-r", "2", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["towers"] == [1, 5, 9]
    code, out, _ = run(["verify", str(out_file), "-t", "3", "-r", "2"])
    assert (code, out.strip()) == (0, "OK")


# ---------------------------------------------------------------- lattice


def test_lattice_density_outputs_exact_rational():
    code, out, _ = run(["lattice", "density", "--t1", "5"])
    assert (code, out.strip()) == (0, "1/41")
    code, out, _ = run(["lattice", "density", "--t3", "5"])
    assert (code, out.strip()) == (0, "1/25")


def test_lattice_source_value_zero_is_checked_not_ignored():
    for flag, floor in (("--t1", 2), ("--t3", 3)):
        code, _, err = run(["lattice", "density", flag, "0"])
        assert code == 2
        assert f"need t >= {floor}" in err


def test_lattice_density_from_config_file(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"a": [4, 3], "b": [3, -4], "offsets": [[0, 0]]}))
    code, out, _ = run(["lattice", "density", "--config", str(cfg)])
    assert (code, out.strip()) == (0, "1/25")
    cfg.write_text("{not json")
    code, _, err = run(["lattice", "density", "--config", str(cfg)])
    assert code == 2
    assert "error:" in err


def test_lattice_config_rejects_a_boolean_coordinate(tmp_path):
    # int(True) would read the basis as (1, 0), (0, 1), which broadcasts (exit 0)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"a": [True, 0], "b": [0, 1], "offsets": [[0, 0]]}))
    code, out, err = run(["lattice", "verify", "--config", str(cfg), "-t", "1", "-r", "1"])
    assert (code, out) == (2, "")
    assert "error:" in err


def test_lattice_field_over_the_size_limit_exits_2(tmp_path):
    # |det| = 10^10 is refused before any cell is allocated; density
    # needs no field and still answers.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"a": [100000, 0], "b": [0, 100000], "offsets": [[0, 0]]}))
    code, out, err = run(["lattice", "verify", "--config", str(cfg), "-t", "3", "-r", "1"])
    assert (code, out) == (2, "")
    assert "|det| = 10000000000 cells, over the limit of 4194304" in err
    code, out, _ = run(["lattice", "density", "--config", str(cfg)])
    assert (code, out.strip()) == (0, "1/10000000000")


def test_lattice_verify_pass_and_fail():
    code, out, _ = run(["lattice", "verify", "--t3", "5", "-t", "5", "-r", "3"])
    assert (code, out.strip()) == (0, "OK")
    code, out, _ = run(["lattice", "verify", "--t3", "5", "-t", "4", "-r", "3"])
    assert code == 1
    assert out.strip() == "FAIL cell=(2, 0) signal=2 required=3"


def test_lattice_excess_json_and_csv(tmp_path):
    csv_file = tmp_path / "excess.csv"
    code, out, _ = run(["lattice", "excess", "--t1", "5", "-t", "6", "-r", "3",
                        "--csv", str(csv_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["total_excess"] == 4
    assert payload["towers_per_domain"] == 1
    assert payload["avg_excess_per_tower"] == "4"
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "x,y,capped_signal,excess"
    assert len(lines) == 42  # header + one row per residue


def test_excess_report_serialization(tmp_path):
    csv_file = tmp_path / "excess.csv"
    code, out, _ = run(["lattice", "excess", "--t3", "4", "-t", "4", "-r", "3",
                        "--csv", str(csv_file)])
    assert code == 0
    with open(csv_file, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "capped_signal", "excess"]
    assert len(rows) == 14
    payload = json.loads(out)
    assert payload["total_excess"] == 4
    assert payload["avg_excess_per_tower"] == "4"
    assert len(payload["per_vertex"]) == 13


def test_lattice_payload_bytes_are_pinned(tmp_path):
    # sha256 of the exact bytes written: four stdout payloads and the
    # excess run's --csv file.
    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    csv_file = tmp_path / "excess.csv"
    for argv, want_code, digest in (
        (["lattice", "excess", "--t3", "5", "-t", "5", "-r", "3", "--csv", str(csv_file)], 0,
         "c348905626a651da1f777bae74aac67d62c97dbb52ae2db366e0a06661541ebf"),
        (["lattice", "profile", "-t", "6", "-k", "2"], 0,
         "f06b9160399b84055c5698228aaefa5aec702478b999ddf696737e4cddfe5000"),
        (["lattice", "density", "--t3", "5", "--json"], 0,
         "b6935d5741b00bc2cd5c6986e6adc04872b4d393369841f7077b0bf91acd83c8"),
        (["lattice", "verify", "--t3", "12", "-t", "12", "-r", "4", "--json"], 1,
         "c16cfaa15061658213a00769570fcdd39158509800a447fa0d1496f7100b852d"),
    ):
        code, out, _ = run(argv)
        assert (code, sha256(out.encode("utf-8"))) == (want_code, digest), argv
    assert sha256(csv_file.read_bytes()) == (
        "6e7956c3a0a20116f34819f48ffddbda3329a9441e4789744ef8a6194f899a50")


def test_lattice_verify_witness_is_the_first_deficient_excess_row(tmp_path):
    # verify and excess name cells alike, and both scan fundamental_domain order
    args = ["--t3", "40", "-t", "40", "-r", "4"]
    code, out, _ = run(["lattice", "verify", *args, "--json"])
    assert code == 1
    witness = json.loads(out)["witness"]
    csv_file = tmp_path / "excess.csv"
    code, out, _ = run(["lattice", "excess", *args, "--csv", str(csv_file)])
    assert code == 0
    rows = json.loads(out)["per_vertex"]
    assert next(row["vertex"] for row in rows if row["excess"] < 0) == witness
    assert csv_file.read_text().splitlines()[1:] == [
        f"{row['vertex'][0]},{row['vertex'][1]},{row['capped_signal']},{row['excess']}"
        for row in rows
    ]


def test_lattice_window_values_and_threshold():
    code, out, _ = run(["lattice", "window", "--t3", "5", "-t", "5", "-r", "3"])
    assert (code, out.strip()) == (0, "10")
    code, out, err = run(["lattice", "window", "--t3", "5", "-t", "5", "-r", "3",
                          "--expect-min", "11"])
    assert code == 1
    assert "falsification finding" in err
    code, out, _ = run(["lattice", "window", "--t3", "6", "-t", "6", "-r", "3",
                        "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["window_excess"] == 4
    assert payload["threshold"] == 4
    assert payload["ok"] is True
    # demand 1 has no default threshold, zero excess still passes
    code, out, _ = run(["lattice", "window", "--t1", "6", "-t", "6", "-r", "1"])
    assert (code, out.strip()) == (0, "0")


def test_lattice_window_bad_tower_string():
    code, _, err = run(["lattice", "window", "--t3", "5", "-t", "5", "-r", "3",
                        "--tower", "pigeon"])
    assert code == 2
    assert "error:" in err


def test_lattice_promote():
    code, out, _ = run(["lattice", "promote", "--t1", "5", "--base-t", "5",
                        "--base-r", "1", "-k", "3"])
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(["lattice", "promote", "--t3", "5", "--base-t", "5",
                        "--base-r", "2", "-k", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["promoted"] == {"t": 7, "r": 6}
    # a base that does not broadcast is a contract violation, not a finding
    code, _, err = run(["lattice", "promote", "--t1", "5", "--base-t", "4",
                        "--base-r", "1", "-k", "1"])
    assert code == 2
    assert "error:" in err


def test_lattice_profile_flags_discrepancy_but_passes():
    code, out, err = run(["lattice", "profile", "-t", "5", "-k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["domain_total_excess"] == 4
    assert payload["claimed_total"] == "1"
    assert payload["matches_claimed"] is False
    assert "documented finding" in err


def test_profile_json_shape():
    code, out, _ = run(["lattice", "profile", "-t", "6", "-k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2
    assert payload["audit_params"] == {"t": 8, "r": 5}
    assert payload["matches_claimed"] is False
    assert len(payload["per_diagonal"]) == len(
        {d["diagonal"] for d in payload["per_diagonal"]}
    )


# ------------------------------------------------------------------ sweep


def test_small_sweep_matches_golden_csv():
    code, out, err = run(["sweep", "path", "--n-max", "4", "--k-max", "1",
                          "--t-max", "2"])
    assert code == 0
    assert out.splitlines() == GOLDEN_SMALL_SWEEP
    assert "0 disagreements" in err


def test_sweep_reports_formula_solver_disagreement():
    # t = r = 3 with k = 2 is a known overcount of the closed form
    code, out, err = run(["sweep", "path", "--n-max", "7", "--k-max", "2",
                          "--t-max", "3"])
    assert code == 1
    rows = [line for line in out.splitlines() if line.endswith("false")]
    assert rows == ["path,7,2,3,3,3,2,3,false"]
    assert "1 disagreements" in err


def test_sweep_budget_exhaustion_exits_3():
    code, out, _ = run(["sweep", "path", "--n-max", "12", "--k-max", "1",
                        "--t-max", "2", "--budget", "2"])
    assert code == 3
    assert any(line.split(",")[6] == "" for line in out.splitlines()[1:])


def test_sweep_runs_every_demand_up_to_strength(tmp_path):
    manifest = tmp_path / "run.json"
    code, out, _ = run(["sweep", "path", "--n-max", "1", "--k-max", "1",
                        "--t-max", "3", "--manifest", str(manifest)])
    assert code == 0
    assert [line.split(",")[3:5] for line in out.splitlines()[1:]] == [
        [str(t), str(r)] for t in range(1, 4) for r in range(1, t + 1)
    ]
    assert "r_max" not in json.loads(manifest.read_text())["inputs"]
    with pytest.raises(SystemExit):
        run(["sweep", "path", "--r-max", "1"])


def test_empty_sweep_is_a_header_only_csv():
    code, out, _ = run(["sweep", "path", "--n-max", "0"])
    assert code == 0
    assert out.splitlines() == [GOLDEN_SMALL_SWEEP[0]]


def test_sweep_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    threaded = tmp_path / "c.csv"
    base = ["sweep", "path", "--n-max", "6", "--k-max", "1", "--t-max", "2"]
    assert run(base + ["--out", str(first)])[0] == 0
    assert run(base + ["--out", str(second)])[0] == 0
    assert run(base + ["--out", str(threaded), "--threads", "2"])[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == threaded.read_bytes()


def test_sweep_threads_rejected_below_one_and_clamped_to_cpus(monkeypatch):
    import trbroadcast.cli as cli

    created = []

    class RecordingPool:
        """Records max_workers and runs the jobs inline; spawns nothing."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    base = ["sweep", "path", "--n-max", "3", "--k-max", "1", "--t-max", "1"]
    for bad in ("0", "-5"):
        code, out, err = run(base + [f"--threads={bad}"])
        assert code == 2 and out == ""
        assert "--threads" in err
    assert created == []
    serial = run(base)
    assert run(base + ["--threads", str(10 ** 9)]) == serial
    assert run(base + ["--threads", "2"]) == serial
    assert created == [3, 2]


def test_library_functions_are_looked_up_when_called(monkeypatch):
    # Swapping a module attribute of the CLI must reach every command that
    # uses it; the benchmark's per-layer tracer relies on this.
    import trbroadcast.cli as cli

    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("gamma_path_power", "gamma_cycle_power",
                 "construct_path_towers", "construct_cycle_towers"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    nktr = ["-n", "6", "-k", "1", "-t", "2", "-r", "1"]
    one = ["--n-max", "1", "--k-max", "1", "--t-max", "1"]
    cases = [
        (["formula", "path", *nktr], {"gamma_path_power"}),
        (["formula", "cycle", *nktr], {"gamma_cycle_power"}),
        (["construct", "path", *nktr], {"construct_path_towers"}),
        (["construct", "cycle", *nktr], {"construct_cycle_towers"}),
        (["sweep", "path", *one], {"gamma_path_power", "construct_path_towers"}),
        (["sweep", "cycle", *one], {"gamma_cycle_power", "construct_cycle_towers"}),
    ]
    for argv, expected in cases:
        called.clear()
        assert run(argv)[0] == 0
        assert called == expected, argv


def test_cycle_sweep_clean_on_default_small_range():
    code, _, err = run(["sweep", "cycle", "--n-max", "10", "--k-max", "2",
                        "--t-max", "3"])
    assert code == 0
    assert "0 disagreements" in err


# -------------------------------------------------------------- manifests


def test_manifest_written_only_when_asked(tmp_path):
    manifest = tmp_path / "run.json"
    out_file = tmp_path / "gamma.txt"
    argv = ["formula", "path", "-n", "10", "-k", "1", "-t", "3", "-r", "2",
            "--out", str(out_file)]
    code, _, _ = run(argv + ["--manifest", str(manifest)])
    assert code == 0
    assert out_file.read_text().strip() == "3"
    data = json.loads(manifest.read_text())
    assert data["argv"] == argv + ["--manifest", str(manifest)]
    assert data["command"] == "formula"
    assert data["outputs"] == [str(out_file)]
    assert data["inputs"]["n"] == 10
    assert "timing_seconds" in data and "version" in data

    # bad input (exit 2) still leaves a manifest, with no outputs
    bad = ["formula", "path", "-n", "0", "-k", "1", "-t", "3", "-r", "2",
           "--manifest", str(manifest)]
    code, out, _ = run(bad)
    assert code == 2 and out == ""
    data = json.loads(manifest.read_text())
    assert data["argv"] == bad and data["outputs"] == []

    manifest.unlink()
    code, _, _ = run(argv)
    assert code == 0  # no --manifest, no file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gamma.txt"]


def test_manifest_lists_files_written_before_a_failing_write(tmp_path):
    # --csv is written before --out fails: the run exits 2, and the
    # manifest still names the CSV it left on disk.
    manifest, csv_file = tmp_path / "m.json", tmp_path / "ok.csv"
    code, out, err = run(["lattice", "excess", "--t3", "5", "-t", "5", "-r", "3",
                          "--csv", str(csv_file), "--out", str(tmp_path / "missing" / "x.json"),
                          "--manifest", str(manifest)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ")
    assert csv_file.read_text().startswith("x,y,capped_signal,excess\n")
    assert json.loads(manifest.read_text())["outputs"] == [str(csv_file)]


# ------------------------------------------------- JSON writer and parser


def json_dumps_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
               | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)


@st.composite
def row_lists(draw):
    """Lists of dicts of one shape, like per_vertex, now and then with a stray item."""
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    shape = {key: draw(st.none() | st.integers(min_value=0, max_value=3)) for key in keys}
    row = st.fixed_dictionaries({
        key: st.integers() if n is None else st.lists(st.integers(), min_size=n, max_size=n)
        for key, n in shape.items()
    })
    return draw(st.lists(row, min_size=1, max_size=5)
                | st.lists(row | JSON_VALUES, min_size=1, max_size=5))


# A later row that must leave the fast path, after a first row that fits it.
FIRST_ROW = {"vertex": [0, 0], "excess": 1}
STRAY_ROWS = [
    {"vertex": [1, 2], "excess": True},  # a bool
    {"vertex": [1, 2]},  # a missing key
    {"vertex": [1, 2], "excess": 1, "extra": 0},  # an extra key
    {"vertex": [1, 2, 3], "excess": 1},  # a nested list of another length
    {"vertex": (1, 2), "excess": 1},  # a tuple
    {"vertex": [1, False], "excess": 1},  # a bool inside the nested list
    {"vertex": [1, 2], "other": 1},  # as many keys, not the same ones
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), JSON_VALUES | row_lists(), max_size=5)
       | JSON_VALUES)
@example({"per_vertex": [FIRST_ROW, {"vertex": [3, -4], "excess": 2 ** 64}],
          "avg": "1/3", "t": 0.5, "é\n%d": [{"%s": [-(2 ** 63) - 1]}] * 2})
@example({"rows": [FIRST_ROW, FIRST_ROW], "empty": [], "none": {}, "nested": {"a": [[], {}]}})
@example({"rows": [{}, {}]})
@example({"rows": [{"a": []}, {"a": []}]})
@example({"rows": [FIRST_ROW, FIRST_ROW], "text": "line\nbreak é ü 中"})
@example({"rows": [FIRST_ROW, STRAY_ROWS[0]]})
@example({"rows": [FIRST_ROW, STRAY_ROWS[1]]})
@example({"rows": [FIRST_ROW, STRAY_ROWS[2]]})
@example({"rows": [FIRST_ROW, STRAY_ROWS[3]]})
@example({"rows": [FIRST_ROW, STRAY_ROWS[4]]})
@example({"rows": [FIRST_ROW, STRAY_ROWS[5]]})
@example({"rows": [FIRST_ROW, STRAY_ROWS[6]]})
def test_json_text_equals_json_dumps(payload):
    assert cli._json_text(payload) == json_dumps_text(payload)


def test_only_rows_of_one_shape_take_the_row_writer():
    assert cli._rows_json([FIRST_ROW, {"vertex": [-1, 2 ** 70], "excess": -3}]) is not None
    for stray in STRAY_ROWS:
        assert cli._rows_json([FIRST_ROW, stray]) is None, stray
    for value in ([], [{}], [[1]], [{"a": []}], [{"a": 1.0}], [{1: 1}], (FIRST_ROW,), FIRST_ROW):
        assert cli._rows_json(value) is None, value


@pytest.mark.parametrize("workload", ["lattice", "grid-search", "audit-large"])
def test_bench_plan_outputs_are_json_dumps_bytes(tmp_path, monkeypatch, workload):
    # Every job of the benchmark's plan, on stdout and again with --out
    # and --manifest.
    def canonical(text: str) -> str:
        return json_dumps_text(json.loads(text)) + "\n"

    monkeypatch.syspath_prepend(str(REPO / "bench"))
    plan = importlib.import_module("workloads").build_plan(workload, 5, tmp_path, 0)
    out_file, manifest = tmp_path / "out.json", tmp_path / "manifest.json"
    for job in plan.jobs:
        code, out, _ = run(job.argv)
        assert out == canonical(out), job.argv
        assert run([*job.argv, "--out", str(out_file), "--manifest", str(manifest)])[:2] == (
            code, ""), job.argv
        assert out_file.read_text(encoding="utf-8") == out, job.argv
        text = manifest.read_text(encoding="utf-8")
        assert text == canonical(text), job.argv


def test_main_builds_one_parser_per_process(monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for n in range(1, 21):
        assert run(["formula", "path", "-n", str(n), "-t", "3", "-r", "2"])[0] == 0
    assert run(["lattice", "verify", "--t3", "10", "-t", "10", "-r", "3"])[:2] == (0, "OK\n")
    assert built == [1]


def test_a_reused_parser_keeps_no_state_between_calls(tmp_path):
    verify = ["lattice", "verify", "--t3", "10", "-t", "10", "-r", "3"]
    code, out, _ = run([*verify, "--json"])
    assert (code, json.loads(out)["ok"]) == (0, True)
    assert run(verify)[:2] == (0, "OK\n")

    manifest = tmp_path / "run.json"
    formula = ["formula", "path", "-n", "10", "-t", "3", "-r", "2", "--manifest", str(manifest)]
    assert run([*formula, "--out", str(tmp_path / "gamma.txt")])[0] == 0
    assert json.loads(manifest.read_text())["inputs"]["out"] == str(tmp_path / "gamma.txt")
    assert run(formula)[:2] == (0, "3\n")
    assert json.loads(manifest.read_text())["inputs"]["out"] is None

    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["formula", "path", "-n", "ten", "-t", "3", "-r", "2"])
    assert exc.value.code == 2
    assert err.getvalue().startswith("usage: trbroadcast formula")
    assert run(["formula", "path", "-n", "10", "-t", "3", "-r", "2"]) == (0, "3\n", "")


# ------------------------------------------------------- unwritable paths

# A command line ending in an output flag, one per flag the CLI writes.
WRITERS = {
    "--out": ["formula", "path", "-n", "10", "-t", "3", "-r", "2", "--out"],
    "--manifest": ["formula", "path", "-n", "10", "-t", "3", "-r", "2", "--manifest"],
    "--csv": ["lattice", "excess", "--t1", "3", "-t", "3", "-r", "1", "--csv"],
}


@pytest.mark.parametrize("flag", sorted(WRITERS))
def test_unwritable_output_path_is_input_error(tmp_path, flag):
    # a missing directory, a directory and an empty path all fail to open
    for target in (tmp_path / "missing" / "out.txt", tmp_path, ""):
        code, _, err = run([*WRITERS[flag], str(target)])
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err


# ---------------------------------------------------------- README tour

# Exit code of each `$ trbroadcast ...` line of the README's quick tour,
# in order; the outputs checked are the ones the README shows.
QUICK_TOUR = [
    ("formula path -n 10 -k 2 -t 3 -r 2", 0),
    ("solve path:n=10,k=2 -t 3 -r 2", 0),
    ("construct path -n 12 -k 2 -t 3 -r 2 --out towers.json", 0),
    ("verify towers.json -t 3 -r 2", 0),
    ("verify towers.json -t 2 -r 2", 1),
    ("lattice density --t3 5", 0),
    ("lattice verify --t3 5 -t 5 -r 3", 0),
    ("lattice excess --t3 5 -t 5 -r 3", 0),
    ("lattice window --t3 6 -t 6 -r 3", 0),
    ("lattice promote --t1 4 --base-t 4 --base-r 1 -k 2", 0),
    ("sweep both --n-max 18 --k-max 3 --t-max 4 --out sweep.csv", 1),
]


def readme_quick_tour():
    """(argv, shown output lines) for each `$ trbroadcast` line of the tour."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Quick tour", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in re.findall(r"```sh\n(.*?)```", tour, re.S):
        for line in block.splitlines():
            if line.startswith("$ trbroadcast "):
                argv = shlex.split(line.removeprefix("$ trbroadcast "), comments=True)
                steps.append((argv, []))
            else:
                steps[-1][1].append(line)
    return steps


def test_readme_quick_tour_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = readme_quick_tour()
    assert [" ".join(argv) for argv, _ in steps] == [cmd for cmd, _ in QUICK_TOUR]
    for (argv, shown), (_, want_code) in zip(steps, QUICK_TOUR):
        code, out, err = run(argv)
        assert code == want_code, argv
        members = [line.strip().rstrip(",") for line in shown]
        if "..." in members:
            # an elided JSON payload: each member shown must match
            payload = json.loads(out)
            for member in members:
                if member not in ("{", "}", "..."):
                    assert json.loads(f"{{{member}}}").items() <= payload.items(), member
        elif shown:
            assert (out + err).splitlines() == shown, argv


# ------------------------------------------------------- console script


def cap_memory():
    """Cap the calling process's address space at 1 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def src_env():
    """The environment with the repo's src first on PYTHONPATH."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def console_script():
    """Command prefix and environment that run the `trbroadcast` script.

    Uses the installed script when one is on PATH. Otherwise runs the
    `[project.scripts]` target from pyproject.toml the way the generated
    wrapper does, with the repo's src on PYTHONPATH.
    """
    installed = shutil.which("trbroadcast")
    if installed:
        return [installed], None
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["trbroadcast"]
    module, _, func = target.partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", wrapper], src_env()


def test_installed_entry_point_smoke():
    command, env = console_script()

    def script(*argv):
        return subprocess.run([*command, *argv], capture_output=True, text=True,
                              env=env)

    proc = script("--version")
    assert proc.returncode == 0
    proc = script("formula", "cycle", "-n", "13", "-k", "1", "-t", "4", "-r", "2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"
    # main()'s exit code must reach the shell, not only its output
    proc = script("formula", "path", "-n", "0", "-k", "1", "-t", "3", "-r", "2")
    assert proc.returncode == 2


def test_importing_the_cli_loads_no_pool_logging_or_event_loop():
    # The benchmark's setup_s times this import in a fresh interpreter,
    # and cmd_sweep imports its process pool lazily to keep it cheap.
    heavy = ("concurrent.futures", "multiprocessing", "logging", "subprocess", "asyncio")
    code = f"import sys, trbroadcast.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "[]", "")


def test_python_dash_m_runs_the_cli():
    def module(*argv):
        return subprocess.run([sys.executable, "-m", "trbroadcast", *argv],
                              capture_output=True, text=True, env=src_env())

    proc = module("--version")
    assert proc.returncode == 0
    proc = module("formula", "path", "-n", "0", "-k", "1", "-t", "2", "-r", "1")
    assert proc.returncode == 2


def test_a_closed_stdout_is_not_a_crash(tmp_path):
    # The excess report is about 760 KB, far more than a pipe buffer, so
    # the CLI is still writing when the reader closes its end after one
    # line, as `| head -n 1` does.
    manifest = tmp_path / "run.json"
    argv = ["lattice", "excess", "--t1", "60", "-t", "60", "-r", "1", "--manifest", str(manifest)]
    proc = subprocess.Popen([sys.executable, "-m", "trbroadcast", *argv], env=src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    for sign in ("internal error", "Traceback", "Exception ignored"):
        assert sign not in err
    assert json.loads(manifest.read_text())["argv"] == argv
