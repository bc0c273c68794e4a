"""Answer referee for the trbroadcast benchmark.

Every answer is checked against golden values recorded at the seed
commit and, where the answer carries a witness, re-audited from
scratch. Finite-graph audits take their distances from
`bfs_distances_from`, the breadth-first oracle over explicit edges,
never from the closed-form `distance()` that the measured code uses.
Periodic witnesses are re-summed here over lattice membership tests,
without the program's tower enumeration.

Node counts and wall times are never compared: a correct algorithm
change moves them. The c01 sweep disagreements are part of the golden
CSV, so they are expected output, not failures.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from trbroadcast.graphs import Family, bfs_distances_from, parse_graph_spec

HERE = Path(__file__).resolve().parent
GOLDEN_JSON = HERE / "golden.json"
GOLDEN_SWEEP = HERE / "golden_sweep.csv"
SWEEP_COLUMNS = ("family", "n", "k", "t", "r",
                 "formula_gamma", "solver_gamma", "construction_size", "agree")


class Rejected(Exception):
    """An answer the referee does not accept; the message says why."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def load_golden() -> tuple[dict, list[tuple]]:
    golden = json.loads(GOLDEN_JSON.read_text(encoding="utf-8"))
    return golden, sweep_rows(GOLDEN_SWEEP.read_text(encoding="utf-8"))


def sweep_rows(text: str) -> list[tuple]:
    """The compared columns of a sweep CSV, one tuple per row."""
    reader = csv.DictReader(io.StringIO(text))
    _require(tuple(reader.fieldnames or ()) == SWEEP_COLUMNS,
             f"sweep header {reader.fieldnames}")
    return [tuple(row[c] for c in SWEEP_COLUMNS) for row in reader]


def _shift(spec, v: int, u: int) -> int:
    """Vertex v of a torus or cycle, translated by the position of u."""
    if spec.family is Family.CYCLE:
        return (v + u) % spec.n
    (vr, vc), (ur, uc) = divmod(v, spec.cols), divmod(u, spec.cols)
    return ((vr + ur) % spec.rows) * spec.cols + (vc + uc) % spec.cols


class Referee:
    def __init__(self, golden: dict, sweep_golden: list[tuple]):
        self.golden = golden
        self.sweep_golden = sweep_golden

    def check(self, job_check: dict, rc, stdout: str) -> str | None:
        """None when the answer is accepted, else the reason it is not."""
        try:
            getattr(self, "_" + job_check["kind"].replace("-", "_"))(job_check, rc, stdout)
        except Rejected as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable answer: {exc!r}"
        return None

    # ------------------------------------------------------ finite graphs

    def raw_signal(self, spec_text: str, towers, t: int) -> list[int]:
        """Raw signal at every vertex, from breadth-first distances.

        Tori and cycles look the same from every vertex, so one search
        from vertex 0, shifted onto each tower, serves them all.
        """
        spec = parse_graph_spec(spec_text)
        field = [0] * spec.num_vertices
        if spec.family in (Family.TORUS, Family.CYCLE):
            near = [(v, t - d) for v, d in enumerate(bfs_distances_from(spec, 0)) if d < t]
            for u in towers:
                for v, gain in near:
                    field[_shift(spec, v, u)] += gain
            return field
        for u in towers:
            for v, d in enumerate(bfs_distances_from(spec, u)):
                if d < t:
                    field[v] += t - d
        return field

    def _audit_towers(self, witness: dict, spec_text: str, t: int, r: int) -> list[int]:
        _require(witness["spec"] == spec_text, f"witness spec {witness['spec']!r}")
        towers = [int(v) for v in witness["towers"]]
        nv = parse_graph_spec(spec_text).num_vertices
        _require(all(0 <= v < nv for v in towers), "tower out of range")
        _require(all(a < b for a, b in zip(towers, towers[1:])), "towers not increasing")
        field = self.raw_signal(spec_text, towers, t)
        short = next((v for v, s in enumerate(field) if s < r), None)
        if short is not None:
            raise Rejected(f"vertex {short} collects {field[short]} < {r}")
        return towers

    def _sweep(self, check: dict, rc, stdout: str) -> None:
        _require(rc == 1, f"exit code {rc}, want 1 (known c01 disagreements)")
        rows = sweep_rows(stdout)
        _require(len(rows) == len(self.sweep_golden),
                 f"{len(rows)} rows, want {len(self.sweep_golden)}")
        for got, want in zip(rows, self.sweep_golden):
            _require(got == want, f"sweep row {got} != golden {want}")

    def _solve(self, check: dict, rc, stdout: str) -> None:
        _require(rc == 0, f"exit code {rc}")
        payload = json.loads(stdout)
        want = self.golden["solve"][check["key"]]
        _require(payload["proof_of_optimality"] is True, "optimality not proved")
        _require(payload["gamma"] == want, f"gamma {payload['gamma']}, golden {want}")
        spec_text = check["key"].split()[0]
        _require(payload["spec"] == spec_text, f"spec {payload['spec']!r}")
        towers = self._audit_towers(payload["witness"], spec_text, check["t"], check["r"])
        _require(len(towers) == want, f"witness has {len(towers)} towers, gamma {want}")

    def _construct(self, check: dict, rc, stdout: str) -> None:
        _require(rc == 0, f"exit code {rc}")
        want = self.golden["construct"][check["key"]]
        towers = self._audit_towers(json.loads(stdout), check["spec"], check["t"], check["r"])
        _require(len(towers) == want, f"{len(towers)} towers, golden {want}")

    def _verify(self, check: dict, rc, stdout: str) -> None:
        payload = json.loads(stdout)
        expect = check["expect"]
        data = json.loads(Path(check["file"]).read_text(encoding="utf-8"))
        field = self.raw_signal(data["spec"], data["towers"], check["t"])
        r = check["r"]
        if expect["ok"]:
            _require(rc == 0 and payload["ok"] is True, f"verdict {payload['ok']}, exit {rc}")
            _require(min(field) >= r, "referee finds a deficient vertex")
            return
        _require(rc == 1 and payload["ok"] is False, f"verdict {payload['ok']}, exit {rc}")
        v = payload["deficient_vertex"]
        _require(v == expect["vertex"] and payload["signal"] == expect["signal"],
                 f"deficient vertex {v} signal {payload['signal']}, want {expect}")
        _require(field[v] == payload["signal"] < r, f"referee signal {field[v]} at {v}")
        _require(min(field[:v], default=r) >= r, "an earlier vertex is deficient")

    # ------------------------------------------------------------ lattice

    def _lattice_verify(self, check: dict, rc, stdout: str) -> None:
        payload = json.loads(stdout)
        want = self.golden["lattice-verify"][check["key"]]
        _require(payload["ok"] is want["ok"], f"verdict {payload['ok']}, golden {want['ok']}")
        _require(rc == (0 if want["ok"] else 1), f"exit code {rc}")
        if want["ok"]:
            return
        if "witness" in want:
            _require([payload["witness"], payload["signal"]] == [want["witness"], want["signal"]],
                     f"witness {payload['witness']} signal {payload['signal']}, golden {want}")
        if "config" in check:
            config = json.loads(Path(check["config"]).read_text(encoding="utf-8"))
            _, t, r = check["key"].split()
            got = lattice_raw_signal(config, tuple(payload["witness"]), int(t))
            _require(got == payload["signal"] < int(r),
                     f"referee signal {got} at {payload['witness']}")

    def _lattice_density(self, check: dict, rc, stdout: str) -> None:
        _require(rc == 0, f"exit code {rc}")
        want = self.golden["lattice-density"][check["key"]]
        _require(json.loads(stdout)["density"] == want, f"density, golden {want}")

    def _lattice_excess(self, check: dict, rc, stdout: str) -> None:
        _require(rc == 0, f"exit code {rc}")
        payload = json.loads(stdout)
        want = self.golden["lattice-excess"][check["key"]]
        got = {key: payload[key] for key in want if key != "cells"}
        got["cells"] = len(payload["per_vertex"])
        _require(got == want, f"excess {got}, golden {want}")
        _require(sum(row["excess"] for row in payload["per_vertex"]) == want["total_excess"],
                 "per-vertex excess does not sum to the total")

    def _lattice_window(self, check: dict, rc, stdout: str) -> None:
        _require(rc == 0, f"exit code {rc}")
        want = self.golden["lattice-window"][check["key"]]
        got = json.loads(stdout)["window_excess"]
        _require(got == want, f"window excess {got}, golden {want}")

    def _lattice_promote(self, check: dict, rc, stdout: str) -> None:
        want = self.golden["lattice-promote"][check["key"]]
        _require(rc == (0 if want else 1), f"exit code {rc}")
        _require(json.loads(stdout)["holds"] is want, f"holds, golden {want}")

    def _lattice_profile(self, check: dict, rc, stdout: str) -> None:
        _require(rc == 0, f"exit code {rc}")
        payload = json.loads(stdout)
        want = self.golden["lattice-profile"][check["key"]]
        got = {key: payload[key] for key in want}
        _require(got == want, f"profile {got}, golden {want}")


def lattice_raw_signal(config: dict, point: tuple[int, int], t: int) -> int:
    """Raw signal at one cell: scan the radius t-1 diamond for lattice towers."""
    (ax, ay), (bx, by) = config["a"], config["b"]
    det = ax * by - ay * bx
    px, py = point
    total = 0
    for ox, oy in config["offsets"]:
        for dx in range(-(t - 1), t):
            span = t - 1 - abs(dx)
            for dy in range(-span, span + 1):
                qx, qy = px + dx - ox, py + dy - oy
                if (qx * by - qy * bx) % det == 0 and (ax * qy - ay * qx) % det == 0:
                    total += t - abs(dx) - abs(dy)
    return total
