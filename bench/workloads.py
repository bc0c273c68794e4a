"""Workload plans for the trbroadcast benchmark.

A plan is the ordered list of CLI invocations that make up one pass of
a workload, together with what the referee needs to check each answer.
Inputs depend only on the seed: the same seed writes the same files and
the same argv. The program under test sees only those argv and files.

`sweep` and `grid-search` have fixed inputs and ignore the seed.
`audit-large` and `lattice` use the seed to place towers, choose sizes
and translate configurations, but every seed gives the same amount of
work, so the seed moves the inputs and not the cost.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "grid-search", "audit-large", "lattice")

SWEEP_ARGV = ["sweep", "both", "--n-max", "24", "--k-max", "3", "--t-max", "5"]

# Grids that prove optimal within the default node budget at the seed
# commit; tori that do not (such as torus:8x8 -t 3 -r 2) are left out.
GRID_SEARCH = [
    ("grid:6x6", 3, 2),
    ("grid:5x8", 3, 2),
    ("grid:6x7", 3, 2),
    ("grid:6x6", 4, 3),
    ("grid:7x7", 2, 1),
]

# Large graphs with few towers: the cover/serve table build and the
# audits dominate, while the search explores a few hundred nodes.
AUDIT_SOLVES = [
    ("torus:21x21", 21, 1),
    ("grid:19x19", 37, 1),
    ("torus:15x15", 15, 2),
]
AUDIT_TORUS = (41, 41)
AUDIT_T, AUDIT_R = 4, 2
AUDIT_TOWERS = 241
# Where the least-index deficient vertex of each FAIL file should land,
# as a share of the vertex count.
AUDIT_FAIL_AT = (0.02, 0.5, 0.98)
CONSTRUCT_N = range(1990, 2011)
CONSTRUCT_KTR = (2, 4, 2)

# Lattice jobs. T runs from 10 to 100 so that jobs take a few ms up to
# a few hundred ms, which keeps the CLI overhead visible next to them.
LATTICE_T1_VERIFY = (10, 25, 50, 75, 100)
LATTICE_T3_VERIFY = (10, 30, 60, 100)
LATTICE_T3_FAIL = (12, 40, 90)
LATTICE_T3_EXCESS = (10, 30, 60)
LATTICE_T1_EXCESS = (20, 50)
LATTICE_WINDOW = (10, 40, 100)
LATTICE_PROMOTE = ((10, 3), (40, 10), (70, 20))
LATTICE_PROFILE = ((10, 3), (30, 5), (60, 10))
# Supercells: base tiling, strength T, and multipliers (p, q) of the
# basis vectors, so each domain holds p * q tower offsets.
LATTICE_SUPERCELLS = (
    ("t1", 12, 2, 1),
    ("t1", 30, 1, 3),
    ("t3", 20, 2, 2),
    ("t3", 35, 3, 1),
)
ORIENTATIONS = ("E", "N", "W", "S")


@dataclass
class Job:
    """One CLI invocation and the referee's instructions for its answer."""

    argv: list[str]
    check: dict
    items: int = 1


@dataclass
class Plan:
    workload: str
    seed: int
    jobs: list[Job]
    files: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "jobs": [{"argv": j.argv, "items": j.items} for j in self.jobs],
            "files": self.files,
        }


def build_plan(workload: str, seed: int, workdir: Path, sweep_rows: int) -> Plan:
    """Write the workload's input files under workdir and return its plan."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return Plan(workload, seed, [Job(list(SWEEP_ARGV), {"kind": "sweep"}, sweep_rows)])
    if workload == "grid-search":
        return Plan(workload, seed, [_solve_job(*case) for case in GRID_SEARCH])
    if workload == "audit-large":
        return _audit_large(seed, rng, workdir)
    if workload == "lattice":
        return _lattice(seed, rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _args(*values) -> list[str]:
    return [str(v) for v in values]


def _solve_job(spec: str, t: int, r: int) -> Job:
    return Job(["solve", spec, *_args("-t", t, "-r", r)],
               {"kind": "solve", "key": f"{spec} -t {t} -r {r}", "t": t, "r": r})


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ audit-large


def _audit_large(seed: int, rng: random.Random, workdir: Path) -> Plan:
    jobs = [_solve_job(*case) for case in AUDIT_SOLVES]
    files = []
    rows, cols = AUDIT_TORUS
    spec = f"torus:{rows}x{cols}"
    towers = TorusTowers(rows, cols, AUDIT_T, AUDIT_R, rng)
    cases = [("ok", towers.ok_set(AUDIT_TOWERS), None)]
    for share in AUDIT_FAIL_AT:
        vertex, tower_set, signal = towers.fail_set(AUDIT_TOWERS, int(share * rows * cols))
        cases.append((f"fail{share}", tower_set, (vertex, signal)))
    for name, tower_set, fail in cases:
        path = _write_json(workdir / f"towers-{name}.json",
                           {"spec": spec, "towers": tower_set})
        files.append(path)
        expect = {"ok": True} if fail is None else {
            "ok": False, "vertex": fail[0], "signal": fail[1]}
        jobs.append(Job(["verify", path, *_args("-t", AUDIT_T, "-r", AUDIT_R, "--json")],
                        {"kind": "verify", "file": path, "t": AUDIT_T, "r": AUDIT_R,
                         "expect": expect}))
    k, t, r = CONSTRUCT_KTR
    for family in ("path", "cycle"):
        n = rng.choice(CONSTRUCT_N)
        jobs.append(Job(["construct", family, *_args("-n", n, "-k", k, "-t", t, "-r", r)],
                        {"kind": "construct", "key": f"{family} {n} {k} {t} {r}",
                         "spec": f"{family}:n={n},k={k}", "t": t, "r": r}))
    return Plan("audit-large", seed, jobs, files)


class TorusTowers:
    """Seeded tower sets on a torus, audited with the benchmark's own stencil.

    The core is a random greedy cover pruned until every tower is
    needed. An OK set pads the core with random extra towers up to a
    fixed size. A FAIL set deletes one core tower, so a vertex near it
    falls short, and pads only with towers out of that vertex's reach,
    so it stays the least-index deficient vertex. A fixed size keeps the
    audit cost the same for every seed.
    """

    def __init__(self, rows: int, cols: int, t: int, r: int, rng: random.Random):
        self.rows, self.cols, self.t, self.r, self.rng = rows, cols, t, r, rng
        self.stencil = [
            (dr, dc, t - abs(dr) - abs(dc))
            for dr in range(-(t - 1), t)
            for dc in range(-(t - 1) + abs(dr), t - abs(dr))
        ]
        self.signal = [0] * (rows * cols)
        core: set[int] = set()
        order = list(range(rows * cols))
        rng.shuffle(order)
        for v in order:
            if self.signal[v] < r:
                core.add(v)
                self._stamp(v, 1)
        pruning = sorted(core)
        rng.shuffle(pruning)
        for u in pruning:
            self._stamp(u, -1)
            if all(self.signal[w] >= r for w, _ in self._near(u)):
                core.discard(u)
            else:
                self._stamp(u, 1)
        self.core = sorted(core)

    def _near(self, u: int):
        row, col = divmod(u, self.cols)
        for dr, dc, gain in self.stencil:
            yield ((row + dr) % self.rows) * self.cols + (col + dc) % self.cols, gain

    def _stamp(self, u: int, sign: int) -> None:
        for w, gain in self._near(u):
            self.signal[w] += sign * gain

    def _pad(self, towers: set[int], size: int, avoid: set[int]) -> list[int]:
        spare = sorted(set(range(self.rows * self.cols)) - towers - avoid)
        if len(towers) > size or len(spare) < size - len(towers):
            raise ValueError(f"cannot pad {len(towers)} towers to {size}")
        return sorted(towers | set(self.rng.sample(spare, size - len(towers))))

    def ok_set(self, size: int) -> list[int]:
        return self._pad(set(self.core), size, set())

    def fail_set(self, size: int, target: int) -> tuple[int, list[int], int]:
        """Delete the core tower whose first deficient vertex lies nearest target."""
        best = None
        for u in self.core:
            self._stamp(u, -1)
            short = [w for w, _ in self._near(u) if self.signal[w] < self.r]
            first = min(short)
            if best is None or abs(first - target) < abs(best[0] - target):
                best = (first, u, self.signal[first])
            self._stamp(u, 1)
        first, deleted, signal = best
        reach = {w for w, _ in self._near(first)}
        return first, self._pad(set(self.core) - {deleted}, size, reach | {deleted}), signal


# ---------------------------------------------------------------- lattice


def tiling_basis(base: str, t: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Basis of the built-in --t1 / --t3 configurations (see lattice.py)."""
    if base == "t1":
        return (t - 1, t), (t, 1 - t)
    return (t - 1, t - 2), (t - 2, 1 - t)


def supercell(base: str, t: int, p: int, q: int, shift=(0, 0), order=None) -> dict:
    """The base tiling written with basis (p*a, q*b) and p*q offsets, translated."""
    (ax, ay), (bx, by) = tiling_basis(base, t)
    offsets = [[i * ax + j * bx + shift[0], i * ay + j * by + shift[1]]
               for i in range(p) for j in range(q)]
    if order is not None:
        offsets = [offsets[i] for i in order]
    return {"a": [p * ax, p * ay], "b": [q * bx, q * by], "offsets": offsets}


def _lattice(seed: int, rng: random.Random, workdir: Path) -> Plan:
    jobs: list[Job] = []
    files: list[str] = []

    def add(argv, kind, key, **extra):
        jobs.append(Job(["lattice", *_args(*argv)], {"kind": kind, "key": key, **extra}))

    for t in LATTICE_T1_VERIFY:
        add(["verify", "--t1", t, "-t", t, "-r", 1, "--json"], "lattice-verify", f"t1 {t} {t} 1")
    for t in LATTICE_T3_VERIFY:
        add(["verify", "--t3", t, "-t", t, "-r", 3, "--json"], "lattice-verify", f"t3 {t} {t} 3")
    for t in LATTICE_T3_FAIL:
        add(["verify", "--t3", t, "-t", t, "-r", 4, "--json"], "lattice-verify", f"t3 {t} {t} 4")
    for t in LATTICE_T3_EXCESS:
        add(["excess", "--t3", t, "-t", t, "-r", 3], "lattice-excess", f"t3 {t} {t} 3")
    for t in LATTICE_T1_EXCESS:
        add(["excess", "--t1", t, "-t", t, "-r", 1], "lattice-excess", f"t1 {t} {t} 1")
    for t in LATTICE_WINDOW:
        (ax, ay), (bx, by) = tiling_basis("t3", t)
        m, n = rng.randint(-50, 50), rng.randint(-50, 50)
        orientation = rng.choice(ORIENTATIONS)
        # The = form keeps argparse from reading a negative X as an option.
        add(["window", "--t3", t, "-t", t, "-r", 3, "--json",
             f"--tower={m * ax + n * bx},{m * ay + n * by}", "--orientation", orientation],
            "lattice-window", f"t3 {t} {orientation}")
    for t, k in LATTICE_PROMOTE:
        add(["promote", "--t1", t, "--base-t", t, "--base-r", 1, "-k", k, "--json"],
            "lattice-promote", f"t1 {t} {k}")
    for t, k in LATTICE_PROFILE:
        add(["profile", "-t", t, "-k", k], "lattice-profile", f"{t} {k}")
    for base, t, p, q in LATTICE_SUPERCELLS:
        shift = (rng.randint(-500, 500), rng.randint(-500, 500))
        order = list(range(p * q))
        rng.shuffle(order)
        name = f"{base}-{t}-{p}x{q}"
        path = _write_json(workdir / f"config-{name}.json",
                           supercell(base, t, p, q, shift, order))
        files.append(path)
        r = 1 if base == "t1" else 3
        add(["density", "--config", path, "--json"], "lattice-density", name)
        add(["verify", "--config", path, "-t", t, "-r", r, "--json"],
            "lattice-verify", f"{name} {t} {r}", config=path)
        add(["excess", "--config", path, "-t", t, "-r", r], "lattice-excess", f"{name} {t} {r}")
        if base == "t1":
            # The perfect cover gives every cell exactly 1, so demand 2 fails.
            add(["verify", "--config", path, "-t", t, "-r", 2, "--json"],
                "lattice-verify", f"{name} {t} 2", config=path)
    return Plan("lattice", seed, jobs, files)
