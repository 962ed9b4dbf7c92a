"""Command line interface.

Exit codes: 0 success, 2 input/parse error (an input that cannot be read
or an output that cannot be written included), 3 validation error,
4 optimization failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    PiecewiseClosedCurve,
    amgm_energy_bound,
    drop_bound_check,
    gauss_bonnet_check,
    pair_bound_check,
    pair_loop,
    tangent_gap_bound,
    theta_lower_bound_check,
    total_abs_curvature,
    turning_cauchy_schwarz,
)
from .energy import penalized_energy
from .errors import (
    ElastinetError,
    InvalidConfigError,
    InvalidInputError,
    NetworkValidationError,
    OptimizationError,
    ParseError,
)
from .geometry import DiscreteCurve, checked_energy
from .minimize import (
    OptimizationConfig,
    minimize,
    minimize_multilevel,
    recovery_sequence,
)
from .networks import (
    Network,
    generalized_bubble_energy,
    load_json,
    make_circle,
    make_generalized_bubble,
    make_standard_double_bubble,
    normalize_to_standard_frame,
    optimal_bubble_radius,
    read_json,
    save_json,
    serialize,
    validate,
)
from .svg import save_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_OPTIMIZATION = 4

# exit code of a failed command: the first row whose types match the error
_EXIT_CODES = (
    ((ParseError, InvalidInputError, InvalidConfigError, OSError), EXIT_INPUT),
    (OptimizationError, EXIT_OPTIMIZATION),
    (ElastinetError, EXIT_VALIDATION),
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_manifest(out_dir: str, command: str, input_path: str | None, config: dict, seed: int, t0: float):
    manifest = {
        "command": command,
        "input": input_path,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "wall_time_s": time.monotonic() - t0,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _load_validated(path: str, tol_ang: float):
    net = load_json(path)
    report = validate(net, tol_ang=tol_ang)
    if not report.valid:
        raise NetworkValidationError(
            f"network fails validation: gap={report.junction_gap:.3g}, angle defect={report.angle_defect:.3g}"
        )
    return net


def cmd_energy(args) -> int:
    net = _load_validated(args.input, args.tol_ang)
    report = penalized_energy(net, args.alpha)
    doc = {
        "alpha": report.alpha,
        "length": report.length,
        "elastic": report.elastic,
        "penalized": report.penalized,
        "per_curve": [
            {"length": ce.length, "elastic": ce.elastic, "penalized": ce.penalized}
            for ce in report.per_curve
        ],
        "degenerate_curves": list(report.degenerate_curves),
    }
    print(f"{'curve':>8} {'length':>14} {'elastic':>14} {'penalized':>14}")
    for i, ce in enumerate(report.per_curve):
        print(f"{i:>8} {ce.length:>14.6f} {ce.elastic:>14.6f} {ce.penalized:>14.6f}")
    print(f"{'total':>8} {report.length:>14.6f} {report.elastic:>14.6f} {report.penalized:>14.6f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    return EXIT_OK


def _closed_to_piecewise(curve: DiscreteCurve, corner_threshold: float) -> PiecewiseClosedCurve:
    """Split a closed polyline into smooth arcs at sharp-turning vertices."""
    psi = checked_energy(curve.points, curve.closed).psi
    corners = np.nonzero(np.abs(psi) > corner_threshold)[0]
    pts = curve.points
    if len(corners) == 0:
        loop = np.vstack([pts, pts[0]])
        return PiecewiseClosedCurve((DiscreteCurve(loop),), closure_tol=1e-9)
    arcs = []
    idx = list(corners)
    for a, b in zip(idx, idx[1:] + [idx[0] + len(pts)]):
        rng = np.arange(a, b + 1) % len(pts)
        arcs.append(DiscreteCurve(pts[rng]))
    return PiecewiseClosedCurve(tuple(arcs), closure_tol=1e-9)


def cmd_bounds(args) -> int:
    if not 0.0 <= args.corner_threshold < math.inf:
        raise InvalidInputError("corner threshold must be finite and non-negative")
    net = _load_validated(args.input, args.tol_ang)
    rows = []
    if net.kind == "closed":
        pw = _closed_to_piecewise(net.curves[0], args.corner_threshold)
        gb = gauss_bonnet_check(pw)
        rows.append(("gauss_bonnet", gb.lhs, gb.rhs, gb.holds))
        total_k = total_abs_curvature(pw)
        if total_k > 0:
            am = amgm_energy_bound(net.curves[0], total_k)
            rows.append(("amgm_2c", am.f_value, am.bound, am.holds))
        cs = turning_cauchy_schwarz(net.curves[0])
        rows.append(("cauchy_schwarz", cs.lhs, cs.rhs, cs.holds))
    elif net.kind in ("drop", "double_drop", "degenerate_theta"):
        for i, c in enumerate(net.curves):
            db = drop_bound_check(Network("drop", (c,)))
            rows.append((f"drop_bound_{i}", db.lhs, db.rhs, db.holds))
            cs = turning_cauchy_schwarz(c)
            rows.append((f"cauchy_schwarz_{i}", cs.lhs, cs.rhs, cs.holds))
    elif net.kind in ("theta", "generalized_theta"):
        tb = theta_lower_bound_check(net)
        rows.append(("theta_4pi", tb.f_value, tb.bound, tb.holds))
        for (i, j), fij in zip(((0, 1), (1, 2), (2, 0)), tb.pair_values):
            rows.append((f"pair_F_{i}{j}", fij, tb.pair_bound, fij >= tb.pair_bound - 1e-9))
        if net.kind == "theta":
            for i, j in ((0, 1), (1, 2), (2, 0)):
                pb = pair_bound_check(pair_loop(net, i, j))
                rows.append((f"pair_absk_{i}{j}", pb.lhs, pb.rhs, pb.holds))
        for i, c in enumerate(net.curves):
            tg = tangent_gap_bound(c)
            rows.append((f"tangent_gap_{i}", tg.lhs, tg.rhs, tg.holds))
    print(f"{'check':>18} {'lhs':>14} {'rhs':>14} {'holds':>6}")
    all_hold = True
    for name, lhs, rhs, holds in rows:
        all_hold &= bool(holds)
        print(f"{name:>18} {lhs:>14.6f} {rhs:>14.6f} {str(bool(holds)):>6}")
    return EXIT_OK if all_hold else EXIT_VALIDATION


def _load_config(path: str | None, seed_override: str | None) -> OptimizationConfig:
    fields = read_json(path) if path else {}
    if not isinstance(fields, dict):
        raise ParseError("config must be an object", "/")
    if seed_override:
        try:
            fields["seed"] = int(seed_override)
        except ValueError:
            raise InvalidConfigError(f"ELASTINET_SEED must be an integer, got {seed_override!r}") from None
    try:
        return OptimizationConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(str(exc)) from None


def cmd_minimize(args) -> int:
    t0 = time.monotonic()
    net = _load_validated(args.input, args.tol_ang)
    config = _load_config(args.kind_config, os.environ.get("ELASTINET_SEED"))
    os.makedirs(args.out, exist_ok=True)
    save_svg(net, os.path.join(args.out, "before.svg"))

    result = minimize_multilevel(net, config)[0] if args.multilevel else minimize(net, config)
    final = result.final
    if args.standard_frame:
        final = normalize_to_standard_frame(final)
    save_svg(final, os.path.join(args.out, "after.svg"))
    save_json(final, os.path.join(args.out, "network_final.json"))
    with open(os.path.join(args.out, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("iter,F,E,L,grad_norm\n")
        for i, (f, e, l, g) in enumerate(
            zip(result.energy_trace, result.elastic_trace, result.length_trace, result.grad_norm_trace)
        ):
            fh.write(f"{i},{_fmt(f)},{_fmt(e)},{_fmt(l)},{_fmt(g)}\n")
    summary = {
        "final_F": float(result.energy_trace[-1]),
        "final_E": float(result.elastic_trace[-1]),
        "final_L": float(result.length_trace[-1]),
        "termination": result.termination,
        "iterations": result.iterations,
        "resample_events": [],  # the solver never resamples; the key stays for readers
        "constraint_violation": {
            "junction_gap": result.constraint_violation.junction_gap,
            "angle_defect": result.constraint_violation.angle_defect,
        },
    }
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    _write_manifest(args.out, "minimize", args.input, dataclasses.asdict(config), config.seed, t0)
    print(f"final F = {result.energy_trace[-1]:.6f} ({result.termination}, {result.iterations} iterations)")
    return EXIT_OK


def cmd_reference(args) -> int:
    if args.shape == "circle":
        net = make_circle(args.radius, args.n)
    elif args.shape == "double-bubble":
        r = args.r if args.r is not None else optimal_bubble_radius()
        net = make_standard_double_bubble(r, args.n)
    elif args.shape == "generalized":
        if args.alpha1 is None or args.alpha2 is None:
            raise InvalidInputError("generalized shape needs --alpha1 and --alpha2")
        net = make_generalized_bubble(args.alpha1, args.alpha2, args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInputError(f"unknown shape {args.shape!r}")
    if args.standard_frame:
        net = normalize_to_standard_frame(net)
    report = penalized_energy(net, 1.0)
    print(f"F = {report.penalized:.6f} (E = {report.elastic:.6f}, L = {report.length:.6f})")
    if args.out:
        save_json(net, args.out)
    else:
        print(json.dumps(serialize(net)))
    return EXIT_OK


def cmd_recovery(args) -> int:
    net = _load_validated(args.input, args.tol_ang)
    if net.kind != "degenerate_theta":
        raise NetworkValidationError("recovery sequences need a degenerate theta input")
    f_in = penalized_energy(net, 1.0).penalized
    theta = recovery_sequence(net, args.n)
    f_out = penalized_energy(theta, 1.0).penalized
    defect = f_out - f_in
    print(f"F(theta_n) - F(degenerate) = {defect:.9f}  (3/n = {3.0 / args.n:.9f})")
    if args.out:
        save_json(theta, args.out)
    return EXIT_OK


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            grid = np.array([float(parts[0])])
        elif len(parts) == 3:
            start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
            if num < 1:
                raise ValueError("empty grid")
            with np.errstate(all="ignore"):
                grid = np.linspace(start, stop, num)
        else:
            raise ValueError("expected VALUE or START:STOP:NUM")
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid values must be finite")
    except ValueError as exc:
        raise InvalidInputError(f"bad grid {text!r}: {exc}") from None
    return grid


def cmd_sweep(args) -> int:
    grid1 = _parse_grid(args.alpha1_grid)
    grid2 = _parse_grid(args.alpha2_grid)
    lines = ["alpha1,alpha2,f_bopt"]
    for a1 in grid1:
        for a2 in grid2:
            try:
                val = generalized_bubble_energy(float(a1), float(a2))
                cell = _fmt(val)
            except ElastinetError:
                cell = ""
            lines.append(f"{_fmt(a1)},{_fmt(a2)},{cell}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elastinet", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    network_input = argparse.ArgumentParser(add_help=False)
    network_input.add_argument("input")
    network_input.add_argument("--tol-ang", type=float, default=1e-3, dest="tol_ang")

    p = sub.add_parser("energy", parents=[network_input], help="evaluate the penalized elastic energy of a network file")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("bounds", parents=[network_input], help="run the curvature lower-bound checks")
    p.add_argument("--corner-threshold", type=float, default=0.5, dest="corner_threshold")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("minimize", parents=[network_input], help="descend the energy from a network file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kind-config", dest="kind_config", help="OptimizationConfig overrides (JSON)")
    p.add_argument("--no-multilevel", dest="multilevel", action="store_false")
    p.add_argument("--standard-frame", action="store_true", dest="standard_frame")
    p.set_defaults(func=cmd_minimize, multilevel=True)

    p = sub.add_parser("reference", help="construct a reference network")
    p.add_argument("--shape", choices=("circle", "double-bubble", "generalized"), required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--r", type=float, default=None, help="bubble arc radius (default: optimal)")
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--out")
    p.add_argument("--standard-frame", action="store_true", dest="standard_frame")
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("recovery", parents=[network_input], help="build the recovery theta-network of a degenerate input")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_recovery)

    p = sub.add_parser("sweep", help="tabulate the generalized bubble energy over an angle grid")
    p.add_argument("--alpha1-grid", required=True, dest="alpha1_grid")
    p.add_argument("--alpha2-grid", required=True, dest="alpha2_grid")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching our input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ElastinetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    raise SystemExit(main())
