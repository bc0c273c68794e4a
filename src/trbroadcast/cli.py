"""Command-line interface.

Machine-readable payloads go to stdout (or to --out files); progress
and diagnostics go to stderr. Exit codes: 0 success, 1 property
failure (a falsified claim, a failed verification, a sweep
disagreement), 2 bad input, 3 node budget exhausted, 4 internal error
(an unexpected exception, such as a failed self-audit; its traceback
goes to stderr). Every payload, CSV row and plain-text form is built
here from the library's plain result records; the library writes only
the tower-set and lattice-config files that it reads back.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import traceback
from dataclasses import asdict
from functools import cache

from . import __version__
from .errors import InputError
from .formulas import (
    construct_cycle_towers,
    construct_path_towers,
    gamma_cycle_power,
    gamma_path_power,
)
from .graphs import format_graph_spec, parse_graph_spec
from .lattice import (
    LatticeConfig,
    config_from_json_dict,
    density,
    excess_report,
    promote_check,
    promotion_excess_profile,
    t1_tiling,
    t3_tiling,
    verify_periodic,
    window_excess,
)
from .signal import SignalParams, is_broadcasting, towers_from_json_dict
from .solver import DEFAULT_NODE_BUDGET, solve

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# Default threshold for the window audit at demand 3: every tower of a
# broadcasting configuration is expected to sit beside at least 4 excess.
WINDOW_THRESHOLD_R3 = 4


def _emit(text: str, out: str | None, outputs: list[str]) -> None:
    """Write text to the file `out` when given, else to stdout.

    Every file the CLI writes goes through here. A written file is
    appended to `outputs`, the list main records in the manifest, so
    files written before a failing write are listed too. A path that
    cannot be written is bad input (exit 2), not a crash. A reader that
    closes stdout early, such as `head`, has taken all it wants: that is
    not a failure either.
    """
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from None
        outputs.append(out)
        return
    try:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; pointed at the
        # null device, that flush cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_text(payload) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)`, byte for byte.

    With indent set, json.dumps runs its pure-Python encoder. So a
    top-level value that is a list of flat rows of one shape, such as
    the `per_vertex` rows of `lattice excess`, is written by
    `_rows_json` instead. Every other value still goes through
    json.dumps, re-indented for its depth: JSON escapes newlines inside
    strings, so each newline json.dumps writes is a line break.
    """
    if type(payload) is dict and all(type(key) is str for key in payload):
        rows = {key: text for key, value in payload.items()
                if (text := _rows_json(value)) is not None}
        if rows:
            items = (
                f"  {json.dumps(key)}: " + (
                    rows[key] if key in rows
                    else json.dumps(payload[key], indent=2, sort_keys=True).replace("\n", "\n  ")
                )
                for key in sorted(payload)
            )
            return "{\n" + ",\n".join(items) + "\n}"
    return json.dumps(payload, indent=2, sort_keys=True)


def _rows_json(rows) -> str | None:
    """The indented JSON of `rows` as a top-level value, or None.

    Served only when `rows` is a non-empty list of dicts that all have
    the first one's string keys and, under each key, what the first has
    there: an int (not a bool), or a non-empty list of that many ints.
    Every row is checked, column by column, then all are written with
    one %-template.
    """
    if not (type(rows) is list and rows and type(rows[0]) is dict and rows[0]
            and all(type(key) is str for key in rows[0])):
        return None
    keys = sorted(rows[0])
    # A dict with as many keys as the first, each of them found, has its keys.
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(keys)}:
        return None
    columns, lines = [], []
    for key in keys:
        try:
            column = [row[key] for row in rows]
        except KeyError:
            return None
        name = json.dumps(key).replace("%", "%%")
        kinds = set(map(type, column))
        if kinds == {int}:
            columns.append(column)
            lines.append(f"      {name}: %d")
            continue
        lengths = set(map(len, column)) if kinds == {list} else set()
        if len(lengths) != 1 or 0 in lengths:
            return None
        (length,) = lengths
        for i in range(length):
            entries = [value[i] for value in column]
            if set(map(type, entries)) != {int}:
                return None
            columns.append(entries)
        lines.append(f"      {name}: [\n" + ",\n".join(["        %d"] * length) + "\n      ]")
    template = "    {\n" + ",\n".join(lines) + "\n    }"
    return "[\n" + ",\n".join(map(template.__mod__, zip(*columns))) + "\n  ]"


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _report(args, outputs: list[str], payload, text: str | None = None,
            code: int = EXIT_OK, note: str | None = None) -> int:
    """Write one command's result and return its exit code.

    The payload goes out as JSON unless the command has a plain-text
    form and --json was not given. A note goes to stderr after it.
    """
    if text is None or getattr(args, "json", False):
        text = _json_text(payload)
    _emit(text, args.out, outputs)
    if note is not None:
        print(note, file=sys.stderr)
    return code


def _verdict(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_PROPERTY


def _write_manifest(args, argv: list[str], outputs: list[str], started: float) -> None:
    if args.manifest is None:
        return
    manifest = {
        "argv": argv,
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if not callable(v)},
        "outputs": outputs,
        "version": __version__,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    _emit(_json_text(manifest), args.manifest, [])


def _params(args) -> SignalParams:
    return SignalParams(args.t, args.r)


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _family(name: str):
    """The closed form and the builder for `name`, looked up at call time."""
    if name == "path":
        return gamma_path_power, construct_path_towers
    return gamma_cycle_power, construct_cycle_towers


# ------------------------------------------------------ formula, construct


def cmd_formula(args, outputs: list[str]) -> int:
    gamma = _family(args.family)[0](args.n, args.k, args.t, args.r)
    payload = {"family": args.family, "n": args.n, "k": args.k, "t": args.t,
               "r": args.r, "gamma": gamma}
    return _report(args, outputs, payload, str(gamma))


def cmd_construct(args, outputs: list[str]) -> int:
    towers = _family(args.family)[1](args.n, args.k, args.t, args.r)
    return _report(args, outputs, towers.to_json_dict())


# ---------------------------------------------------------- solve, verify


def cmd_solve(args, outputs: list[str]) -> int:
    spec = parse_graph_spec(args.spec)
    result = solve(spec, _params(args), node_budget=args.budget)
    payload = {
        "spec": format_graph_spec(spec),
        "t": args.t,
        "r": args.r,
        "gamma": result.gamma,
        "witness": result.witness.to_json_dict(),
        "lower_bound": result.lower_bound,
        "nodes_explored": result.nodes_explored,
        "proof_of_optimality": result.proof_of_optimality,
    }
    if result.proof_of_optimality:
        return _report(args, outputs, payload)
    note = (f"node budget {args.budget} exhausted after {result.nodes_explored} nodes; "
            f"{result.lower_bound} <= gamma <= {result.gamma}")
    return _report(args, outputs, payload, code=EXIT_BUDGET, note=note)


def cmd_verify(args, outputs: list[str]) -> int:
    towers = towers_from_json_dict(_load_json_file(args.file))
    check = is_broadcasting(towers, _params(args))
    payload = {"ok": check.ok, "deficient_vertex": check.deficient_vertex,
               "signal": check.signal, "required": args.r}
    text = "OK" if check.ok else (
        f"FAIL vertex={check.deficient_vertex} signal={check.signal} required={args.r}"
    )
    return _report(args, outputs, payload, text, _verdict(check.ok))


# ---------------------------------------------------------------- lattice


def _lattice_config(args) -> LatticeConfig:
    # argparse's required mutually exclusive group admits exactly one source
    if args.t1 is not None:
        return t1_tiling(args.t1)
    if args.t3 is not None:
        return t3_tiling(args.t3)
    return config_from_json_dict(_load_json_file(args.config))


def cmd_lattice_density(args, outputs: list[str]) -> int:
    config = _lattice_config(args)
    value = density(config)
    payload = {"density": str(value), "config": config.to_json_dict()}
    return _report(args, outputs, payload, str(value))


def cmd_lattice_verify(args, outputs: list[str]) -> int:
    check = verify_periodic(_lattice_config(args), _params(args))
    payload = {"ok": check.ok, "witness": check.witness,
               "signal": check.signal, "required": args.r}
    text = "OK" if check.ok else (
        f"FAIL cell={check.witness} signal={check.signal} required={args.r}"
    )
    return _report(args, outputs, payload, text, _verdict(check.ok))


def cmd_lattice_excess(args, outputs: list[str]) -> int:
    report = excess_report(_lattice_config(args), _params(args))
    rows = [(x, y, c, e) for (x, y), (c, e) in report.per_vertex.items()]
    if args.csv is not None:
        header = ("x", "y", "capped_signal", "excess")
        _emit(_csv_text([header, *rows]), args.csv, outputs)
    payload = {"params": {"t": args.t, "r": args.r}, "period": report.period,
               "towers_per_domain": report.towers_per_domain,
               "total_excess": report.total_excess,
               "avg_excess_per_tower": str(report.avg_excess_per_tower),
               "broadcasting": report.broadcasting,
               "per_vertex": [{"vertex": [x, y], "capped_signal": c, "excess": e}
                              for x, y, c, e in rows]}
    return _report(args, outputs, payload)


def cmd_lattice_window(args, outputs: list[str]) -> int:
    config = _lattice_config(args)
    try:
        tx, ty = (int(c) for c in args.tower.split(","))
    except ValueError:
        raise InputError(f"--tower takes X,Y integers, got {args.tower!r}") from None
    value = window_excess(config, _params(args), (tx, ty), args.orientation)
    threshold = args.expect_min
    if threshold is None:
        threshold = WINDOW_THRESHOLD_R3 if args.r == 3 else 0
    ok = value >= threshold
    payload = {"tower": [tx, ty], "orientation": args.orientation,
               "window_excess": value, "threshold": threshold, "ok": ok}
    note = None if ok else (
        f"window excess {value} below {threshold} at tower ({tx},{ty}) "
        f"orientation {args.orientation}: falsification finding"
    )
    return _report(args, outputs, payload, str(value), _verdict(ok), note)


def cmd_lattice_promote(args, outputs: list[str]) -> int:
    holds = promote_check(_lattice_config(args), args.base_t, args.base_r, args.k)
    promoted_t, promoted_r = args.base_t + args.k, args.base_r + 2 * args.k
    payload = {
        "base": {"t": args.base_t, "r": args.base_r},
        "k": args.k,
        "promoted": {"t": promoted_t, "r": promoted_r},
        "holds": holds,
    }
    note = None if holds else (
        f"promotion failed: ({args.base_t},{args.base_r}) configuration is not "
        f"({promoted_t},{promoted_r})-broadcasting; falsification finding"
    )
    return _report(args, outputs, payload, str(holds).lower(), _verdict(holds), note)


def cmd_lattice_profile(args, outputs: list[str]) -> int:
    profile = promotion_excess_profile(args.t, args.k)
    note = None if profile.matches_claimed else (
        f"observed per-tower excess {profile.average_per_tower} differs from "
        f"the claimed total {profile.claimed_total} (documented finding)"
    )
    payload = {**asdict(profile), "average_per_tower": str(profile.average_per_tower),
               "claimed_total": str(profile.claimed_total)}
    return _report(args, outputs, payload, note=note)


# ------------------------------------------------------------------ sweep


def _sweep_instance(job: tuple[str, int, int, int, int, int]) -> list:
    family, n, k, t, r, budget = job
    gamma, build = _family(family)
    formula_gamma = gamma(n, k, t, r)
    construction = build(n, k, t, r)
    result = solve(construction.spec, SignalParams(t, r), node_budget=budget)
    solver_gamma = result.gamma if result.proof_of_optimality else None
    # The builders raise unless the construction has formula_gamma towers.
    agree = result.proof_of_optimality and solver_gamma == formula_gamma
    return [
        family, n, k, t, r, formula_gamma,
        solver_gamma if solver_gamma is not None else "",
        len(construction.vertices),
        str(agree).lower(),
    ]


def cmd_sweep(args, outputs: list[str]) -> int:
    if args.threads < 1:
        raise InputError(f"--threads must be at least 1, got {args.threads}")
    threads = min(args.threads, os.cpu_count() or 1)
    families = ["path", "cycle"] if args.family == "both" else [args.family]
    jobs = [
        (family, n, k, t, r, args.budget)
        for family in families
        for k in range(1, args.k_max + 1)
        for t in range(1, args.t_max + 1)
        for r in range(1, t + 1)
        for n in range(1, args.n_max + 1)
    ]
    if threads > 1:
        # Imported here: serial runs and every other command skip its
        # import cost.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_sweep_instance, jobs, chunksize=16))
    else:
        rows = [_sweep_instance(job) for job in jobs]

    header = ["family", "n", "k", "t", "r", "formula_gamma", "solver_gamma",
              "construction_size", "agree"]
    incomplete = sum(1 for row in rows if row[6] == "")
    disagreements = sum(1 for row in rows if row[8] != "true")
    note = (f"sweep: {len(rows)} instances, {disagreements} disagreements, "
            f"{incomplete} budget-limited")
    code = EXIT_BUDGET if incomplete else EXIT_PROPERTY if disagreements else EXIT_OK
    return _report(args, outputs, None, _csv_text([header, *rows]), code, note)


# ----------------------------------------------------------------- parser


def _add_common(sub, json_flag: bool = True) -> None:
    sub.add_argument("--out", help="write the payload to this file instead of stdout")
    sub.add_argument("--manifest", help="also write a run manifest JSON to this path")
    if json_flag:
        sub.add_argument("--json", action="store_true", help="emit JSON")


def _add_params(sub) -> None:
    sub.add_argument("-t", type=int, required=True, help="transmission strength")
    sub.add_argument("-r", type=int, required=True, help="per-vertex demand")


def _add_nktr(sub) -> None:
    sub.add_argument("-n", type=int, required=True, help="vertex count")
    sub.add_argument("-k", type=int, default=1, help="power parameter (default 1)")
    _add_params(sub)


def _add_lattice_source(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--t1", type=int, metavar="T",
                       help="perfect single-cover configuration for strength T")
    group.add_argument("--t3", type=int, metavar="T",
                       help="low-excess demand-3 configuration for strength T")
    group.add_argument("--config", metavar="FILE",
                       help="lattice configuration JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trbroadcast",
        description="Exact (t,r) broadcast domination: formulas, solving, audits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("formula", help="closed-form minimum tower count")
    sub.add_argument("family", choices=["path", "cycle"])
    _add_nktr(sub)
    _add_common(sub)
    sub.set_defaults(func=cmd_formula)

    sub = commands.add_parser("solve", help="exact minimum by branch and bound")
    sub.add_argument("spec", help="graph spec, e.g. path:n=10,k=2 or grid:4x6")
    _add_params(sub)
    sub.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                     help="search node budget")
    _add_common(sub, json_flag=False)
    sub.set_defaults(func=cmd_solve)

    sub = commands.add_parser("verify", help="audit a tower set file")
    sub.add_argument("file", help="tower set JSON file")
    _add_params(sub)
    _add_common(sub)
    sub.set_defaults(func=cmd_verify)

    sub = commands.add_parser("construct", help="build a certified optimal tower set")
    sub.add_argument("family", choices=["path", "cycle"])
    _add_nktr(sub)
    _add_common(sub, json_flag=False)
    sub.set_defaults(func=cmd_construct)

    lattice = commands.add_parser("lattice", help="periodic grid configurations")
    lattice_sub = lattice.add_subparsers(dest="lattice_command", required=True)

    sub = lattice_sub.add_parser("density", help="towers per cell, exact")
    _add_lattice_source(sub)
    _add_common(sub)
    sub.set_defaults(func=cmd_lattice_density)

    sub = lattice_sub.add_parser("verify", help="certify periodic broadcasting")
    _add_lattice_source(sub)
    _add_params(sub)
    _add_common(sub)
    sub.set_defaults(func=cmd_lattice_verify)

    sub = lattice_sub.add_parser("excess", help="per-domain excess report")
    _add_lattice_source(sub)
    _add_params(sub)
    sub.add_argument("--csv", help="also write per-vertex rows to this CSV file")
    _add_common(sub, json_flag=False)
    sub.set_defaults(func=cmd_lattice_excess)

    sub = lattice_sub.add_parser("window", help="excess in the audit window beside a tower")
    _add_lattice_source(sub)
    _add_params(sub)
    sub.add_argument("--tower", default="0,0", help="tower coordinates X,Y (default 0,0)")
    sub.add_argument("--orientation", choices=["E", "N", "W", "S"], default="E")
    sub.add_argument("--expect-min", type=int, default=None,
                     help="fail below this value (default 4 when r=3, else 0)")
    _add_common(sub)
    sub.set_defaults(func=cmd_lattice_window)

    sub = lattice_sub.add_parser("promote", help="re-verify at promoted parameters")
    _add_lattice_source(sub)
    sub.add_argument("--base-t", type=int, required=True, help="base strength")
    sub.add_argument("--base-r", type=int, required=True, choices=[1, 2],
                     help="base demand (1 or 2)")
    sub.add_argument("-k", type=int, required=True, help="promotion step")
    _add_common(sub)
    sub.set_defaults(func=cmd_lattice_promote)

    sub = lattice_sub.add_parser(
        "profile", help="excess layout of the promoted perfect cover"
    )
    sub.add_argument("-t", type=int, required=True, help="base strength")
    sub.add_argument("-k", type=int, required=True, help="promotion step")
    _add_common(sub, json_flag=False)
    sub.set_defaults(func=cmd_lattice_profile)

    sub = commands.add_parser("sweep", help="formula vs solver vs construction")
    sub.add_argument("family", choices=["path", "cycle", "both"])
    sub.add_argument("--n-max", type=int, default=18)
    sub.add_argument("--k-max", type=int, default=3)
    sub.add_argument("--t-max", type=int, default=4)
    sub.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    sub.add_argument("--threads", type=int, default=1,
                     help="parallel workers, at most the CPU count; output order is unchanged")
    _add_common(sub, json_flag=False)
    sub.set_defaults(func=cmd_sweep)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `main` call.

    Each parse returns a fresh namespace, and no action keeps state
    between parses, so reusing the parser changes no result.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; write its manifest when --manifest is given.

    The manifest is written on every path that reaches a command,
    including bad input (exit 2) and internal errors (exit 4), and
    records the parsed argv. A manifest path that cannot be written is
    itself bad input.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    started = time.monotonic()
    outputs: list[str] = []
    try:
        code = args.func(args, outputs)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except Exception as exc:
        # Exit 1 means "property fails", so a crash must not look like it.
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        code = EXIT_INTERNAL
    try:
        _write_manifest(args, argv, outputs, started)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    return code


def console_main() -> None:
    sys.exit(main())
