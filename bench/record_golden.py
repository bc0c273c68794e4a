"""Record the referee's golden values from the program in this checkout.

    python3 bench/record_golden.py

Writes bench/golden.json and bench/golden_sweep.csv. The committed
files were recorded at the commit that defined the benchmark; record
again only when an intended change of answers is made, and say so.
Each value is read from the CLI on the canonical input: lattice
configurations untranslated, windows at the tower (0,0) in every
orientation, constructions for every n the generator can choose.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as w  # noqa: E402
from trbroadcast.cli import main  # noqa: E402


def cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue()


def cli_json(*argv):
    return json.loads(cli(*argv)[1])


def verify_entry(*argv) -> dict:
    payload = cli_json("lattice", "verify", *argv, "--json")
    if payload["ok"]:
        return {"ok": True}
    return {"ok": False, "witness": payload["witness"], "signal": payload["signal"]}


def excess_entry(*argv) -> dict:
    payload = cli_json("lattice", "excess", *argv)
    keys = ("total_excess", "avg_excess_per_tower", "broadcasting", "towers_per_domain", "period")
    return {**{k: payload[k] for k in keys}, "cells": len(payload["per_vertex"])}


def record() -> dict:
    golden = {"solve": {}, "construct": {}, "lattice-verify": {}, "lattice-density": {},
              "lattice-excess": {}, "lattice-window": {}, "lattice-promote": {},
              "lattice-profile": {}}
    for spec, t, r in w.GRID_SEARCH + w.AUDIT_SOLVES:
        payload = cli_json("solve", spec, "-t", t, "-r", r)
        if not payload["proof_of_optimality"]:
            raise SystemExit(f"solve {spec} -t {t} -r {r} did not prove optimality")
        golden["solve"][f"{spec} -t {t} -r {r}"] = payload["gamma"]
    k, t, r = w.CONSTRUCT_KTR
    for family in ("path", "cycle"):
        for n in w.CONSTRUCT_N:
            towers = cli_json("construct", family, "-n", n, "-k", k, "-t", t, "-r", r)["towers"]
            golden["construct"][f"{family} {n} {k} {t} {r}"] = len(towers)

    lv, le = golden["lattice-verify"], golden["lattice-excess"]
    for t in w.LATTICE_T1_VERIFY:
        lv[f"t1 {t} {t} 1"] = verify_entry("--t1", t, "-t", t, "-r", 1)
    for t in w.LATTICE_T3_VERIFY:
        lv[f"t3 {t} {t} 3"] = verify_entry("--t3", t, "-t", t, "-r", 3)
    for t in w.LATTICE_T3_FAIL:
        lv[f"t3 {t} {t} 4"] = verify_entry("--t3", t, "-t", t, "-r", 4)
    for t in w.LATTICE_T3_EXCESS:
        le[f"t3 {t} {t} 3"] = excess_entry("--t3", t, "-t", t, "-r", 3)
    for t in w.LATTICE_T1_EXCESS:
        le[f"t1 {t} {t} 1"] = excess_entry("--t1", t, "-t", t, "-r", 1)
    for t in w.LATTICE_WINDOW:
        for o in w.ORIENTATIONS:
            golden["lattice-window"][f"t3 {t} {o}"] = cli_json(
                "lattice", "window", "--t3", t, "-t", t, "-r", 3, "--json",
                "--orientation", o)["window_excess"]
    for t, k in w.LATTICE_PROMOTE:
        golden["lattice-promote"][f"t1 {t} {k}"] = cli_json(
            "lattice", "promote", "--t1", t, "--base-t", t, "--base-r", 1, "-k", k,
            "--json")["holds"]
    for t, k in w.LATTICE_PROFILE:
        payload = cli_json("lattice", "profile", "-t", t, "-k", k)
        keys = ("domain_total_excess", "average_per_tower", "square_excess_sum",
                "all_excess_inside_square", "matches_claimed", "per_diagonal")
        golden["lattice-profile"][f"{t} {k}"] = {key: payload[key] for key in keys}
    with tempfile.TemporaryDirectory() as tmp:
        for base, t, p, q in w.LATTICE_SUPERCELLS:
            name = f"{base}-{t}-{p}x{q}"
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(w.supercell(base, t, p, q)), encoding="utf-8")
            r = 1 if base == "t1" else 3
            golden["lattice-density"][name] = cli_json(
                "lattice", "density", "--config", path, "--json")["density"]
            lv[f"{name} {t} {r}"] = {"ok": verify_entry("--config", path, "-t", t, "-r", r)["ok"]}
            le[f"{name} {t} {r}"] = excess_entry("--config", path, "-t", t, "-r", r)
            if base == "t1":
                lv[f"{name} {t} 2"] = {
                    "ok": verify_entry("--config", path, "-t", t, "-r", 2)["ok"]}
    return golden


if __name__ == "__main__":
    rc, csv_text = cli(*w.SWEEP_ARGV)
    if rc != 1:
        raise SystemExit(f"sweep exited {rc}, want 1 (the c01 disagreements)")
    (HERE / "golden_sweep.csv").write_text(csv_text, encoding="utf-8", newline="")
    (HERE / "golden.json").write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
