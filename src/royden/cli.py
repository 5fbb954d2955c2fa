"""Command line front end.

Every public library operation is reachable from exactly one subcommand:

    validate            section invariants and component decomposition
    gen                 emit a section in the graph file format
    cap                 equilibrium potential and capacity of a vertex
    cap-profile         capacity along an exhaustion, with extrapolation
    classify            transient / recurrent verdict from the profile
    gamma               energy metric between two vertices
    gamma-o             anchored energy metric (pin vertex o)
    resistance          free effective resistance (mask ignored)
    ut-report           uniform transience verdict with certificates
    dirichlet           solve the Dirichlet problem for mask data
    decompose           split f into mask-vanishing + harmonic parts
    maxcheck            maximum principle report for a harmonic f
    hbempty             harmonic boundary emptiness probe
    truncate-harmonic   clamp a harmonic f and redecompose
    liouville           oscillation trend of receding boundary data
    spectrum            Dirichlet eigenvalues
    bounds              capacity lower bounds on eigenvalues
    heat                apply the heat semigroup (optional sup-norm check)
    trace               heat trace over a time grid
    gapcheck            spectral gap criterion
    walk                random-walk escape probability

Each command takes only the options it reads. A section command takes
exactly one of --graph FILE or --generator SPEC, where SPEC is
family:key=value,... with a level, e.g. lattice:d=3,r=8 or
tree:k=3,depth=5 (lattice keys: d, r, c0, c; tree keys: k, depth, c0, c).
The five exhaustion commands (cap-profile, classify, ut-report, hbempty,
liouville) take --generator SPEC without r=/depth=. Level lists are
"8:128" (doubling), "4:20:2" (arithmetic) or "3,5,9" (explicit).

Output is JSON on stdout; the tabular commands (cap-profile, spectrum,
bounds, trace) also take --output csv. Domain errors print a
machine-readable record and exit 1; usage errors exit 2. The
ROYDEN_VERTEX_CAP environment variable caps constructible sizes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import harmonic, potential, spectral, walker
from .errors import RoydenError, SizeOverflow
from .graph import (
    ExhaustionGenerator,
    Section,
    format_label,
    lattice_generator,
    parse_graph_file,
    parse_label,
    parse_vertex_fn,
    serialize_graph_file,
    serialize_vertex_fn,
    tree_generator,
    vertex_cap,
)


class UsageError(Exception):
    pass


# a value such as the time grid -1,0.5 or the label -1,0,0 starts like a
# negative number; argparse (before Python 3.13) takes only a plain number
# for a value there, and anything else for an unknown option
NUMBER_LIKE = re.compile(r"^-\.?\d")


# ---------------------------------------------------------------------------
# argument helpers


def _int_param(params: dict, key: str):
    """Pop an integer-valued spec key (None when absent); 2.5 is refused."""
    value = params.pop(key, None)
    if value is not None and not isinstance(value, int):
        raise UsageError(f"generator key {key} must be an integer, got {value!r}")
    return value


def parse_generator_spec(spec: str) -> tuple:
    """Return (generator, level or None) from family:key=value,..."""
    family, _, rest = spec.partition(":")
    params = {}
    if rest:
        for piece in rest.split(","):
            key, eq, value = piece.partition("=")
            if not eq or not key:
                raise UsageError(f"bad generator parameter {piece!r}")
            try:
                params[key] = float(value) if "." in value or "e" in value else int(value)
            except ValueError:
                raise UsageError(f"bad generator value {piece!r}")
    vertex_cap()  # a bad ROYDEN_VERTEX_CAP is a domain error, not a bad spec
    try:
        if family == "lattice":
            if "d" not in params:
                raise UsageError("lattice generator needs d=<dim>")
            gen = lattice_generator(
                _int_param(params, "d"),
                c_origin=float(params.pop("c0", 0.0)),
                c_const=float(params.pop("c", 0.0)),
            )
            level = _int_param(params, "r")
        elif family == "tree":
            if "k" not in params:
                raise UsageError("tree generator needs k=<degree>")
            gen = tree_generator(
                _int_param(params, "k"),
                c_origin=float(params.pop("c0", 0.0)),
                c_const=float(params.pop("c", 0.0)),
            )
            level = _int_param(params, "depth")
        else:
            raise UsageError(f"unknown generator family {family!r}")
    except SizeOverflow:
        raise  # a well-formed spec whose smallest section is too large
    except RoydenError as exc:
        raise UsageError(str(exc))
    if params:
        raise UsageError(f"unknown generator keys {sorted(params)}")
    if level is not None:
        if level < 1:
            raise UsageError(f"level must be >= 1, got {level}")
    return gen, level


def _check_level(level: int) -> None:
    """Refuse a level above vertex_cap(): a lattice or tree section of
    level L has more than L vertices, so no such level can be built.
    """
    cap = vertex_cap()
    if level > cap:
        raise SizeOverflow(f"levels above the vertex cap of {cap} cannot be built")


def parse_levels(spec: str) -> tuple:
    """Levels from "a:b" (doubling), "a:b:step" or "l1,l2,...".

    The largest level is checked against the cap before any list is built.
    """
    spec = spec.strip()
    try:
        if "," in spec:
            levels = [int(p) for p in spec.split(",")]
            _check_level(max(levels))
            return tuple(levels)
        if ":" in spec:
            parts = [int(p) for p in spec.split(":")]
            if len(parts) == 2:
                a, b = parts
                if a < 1:
                    raise UsageError("a doubling level range must start at >= 1")
                out = []
                while a <= b:
                    _check_level(a)
                    out.append(a)
                    a *= 2
                return tuple(out)
            if len(parts) == 3:
                a, b, step = parts
                if step < 1:
                    raise UsageError("level step must be >= 1")
                if a <= b:
                    _check_level(b - (b - a) % step)
                return tuple(range(a, b + 1, step))
            raise UsageError(f"bad level range {spec!r}")
        level = int(spec)
        _check_level(level)
        return (level,)
    except ValueError:
        raise UsageError(f"bad level list {spec!r}")


def finite_float(text: str) -> float:
    """argparse type: a finite float (nan and inf are usage errors)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def need_section(args) -> Section:
    if args.graph:
        try:
            with open(args.graph) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.graph}: {exc}")
        return parse_graph_file(text)
    gen, level = parse_generator_spec(args.generator)
    if level is None:
        raise UsageError("this command needs a fixed level: add r=/depth= to the generator spec")
    return gen.section(level)


def need_generator(args) -> ExhaustionGenerator:
    gen, level = parse_generator_spec(args.generator)
    if level is not None:
        raise UsageError("this command scans an exhaustion: drop r=/depth= from the spec")
    return gen


def load_fn(s: Section, path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    return parse_vertex_fn(text, s)


def _clean(obj):
    """Make a payload json-safe: tuples to lists, numpy to python,
    non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    """Print payload as JSON, or csv_rows when a tabular command asks for csv."""
    if csv_rows is not None and args.output == "csv":
        out = [",".join(csv_header)]
        for row in csv_rows:
            out.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        print("\n".join(out))
    else:
        print(json.dumps(_clean(payload), indent=2, allow_nan=False))


def _profile_payload(profile) -> dict:
    ex = profile.extrapolation
    return {
        "vertex": format_label(profile.x),
        "levels": list(profile.levels),
        "values": list(profile.values),
        "model": ex.model,
        "limit": ex.limit,
        "plateau_value": ex.plateau_value,
        "decay_coefficient": ex.decay_coefficient,
        "plateau_sse": ex.plateau_sse,
        "decay_sse": ex.decay_sse,
    }


# ---------------------------------------------------------------------------
# command handlers


def cmd_validate(args):
    s = need_section(args)
    rep = s.validate()
    comps = [
        {"size": sz, "grounded": g}
        for sz, g in zip(rep.interior_component_sizes, rep.interior_component_grounded)
    ]
    emit(args, {
        "command": "validate",
        "ok": rep.ok,
        "n": rep.n,
        "edges": rep.edge_count,
        "interior": rep.interior_count,
        "mask": rep.mask_count,
        "full_components": rep.full_component_count,
        "interior_components": comps,
        "issues": list(rep.issues),
    })


def cmd_gen(args):
    s = need_section(args)
    sys.stdout.write(serialize_graph_file(s))


def cmd_cap(args):
    s = need_section(args)
    res = potential.equilibrium_potential(s, parse_label(args.vertex), rel_tol=args.tol_solver)
    if args.potential_out:
        with open(args.potential_out, "w") as fh:
            fh.write(serialize_vertex_fn(res.u))
    emit(args, {
        "command": "cap",
        "vertex": args.vertex,
        "cap": res.cap,
        "degenerate": res.degenerate,
        "level": parse_generator_spec(args.generator)[1] if args.generator else None,
    })


def cmd_cap_profile(args):
    gen = need_generator(args)
    levels = parse_levels(args.levels) if args.levels else None
    prof = potential.capacity_profile(
        gen,
        parse_label(args.vertex) if args.vertex else None,
        levels,
        rel_tol=args.tol_solver,
    )
    emit(args, {"command": "cap-profile", **_profile_payload(prof)}, prof.residual_rows(),
         ["level", "cap", "plateau_residual", "decay_residual"])


def cmd_classify(args):
    gen = need_generator(args)
    levels = parse_levels(args.levels) if args.levels else None
    verdict = potential.classify_transience(
        gen,
        parse_label(args.vertex) if args.vertex else None,
        tol=args.tol,
        levels=levels,
        rel_tol=args.tol_solver,
    )
    emit(args, {
        "command": "classify",
        "verdict": verdict.verdict,
        "reason": verdict.reason,
        "tol": verdict.tol,
        "profile": _profile_payload(verdict.profile),
    })


def cmd_gamma(args):
    s = need_section(args)
    g = potential.gamma(s, parse_label(args.x), parse_label(args.y), rel_tol=args.tol_solver)
    emit(args, {
        "command": "gamma",
        "x": args.x,
        "y": args.y,
        "value": g.value,
        "infinite": not math.isfinite(g.value),
        "regime": g.regime,
    })


def cmd_gamma_o(args):
    s = need_section(args)
    value = potential.gamma_o(
        s, parse_label(args.pin), parse_label(args.x), parse_label(args.y),
        rel_tol=args.tol_solver,
    )
    emit(args, {
        "command": "gamma-o",
        "pin": args.pin,
        "x": args.x,
        "y": args.y,
        "value": value,
    })


def cmd_resistance(args):
    s = need_section(args)
    value = potential.free_resistance(
        s, parse_label(args.x), parse_label(args.y), rel_tol=args.tol_solver
    )
    emit(args, {"command": "resistance", "x": args.x, "y": args.y, "value": value})


def cmd_ut_report(args):
    gen = need_generator(args)
    rep = potential.uniform_transience_report(
        gen,
        window_level=args.window,
        tol=args.tol,
        profile_levels=parse_levels(args.levels) if args.levels else None,
        gap_levels=parse_levels(args.gap_levels) if args.gap_levels else None,
        rel_tol=args.tol_solver,
    )
    emit(args, {
        "command": "ut-report",
        "verdict": rep.verdict,
        "evidence": rep.evidence,
        "inf_cap_estimate": rep.inf_cap_estimate,
        "C": rep.C,
        "gamma_diameter_bound": rep.gamma_diameter_bound,
        "window_inf_cap": rep.window_inf_cap,
        "details": rep.details,
    })


def cmd_dirichlet(args):
    s = need_section(args)
    data = load_fn(s, args.boundary)
    f = harmonic.solve_dirichlet(
        s, {s.labels[v]: float(data.values[v]) for v in s.mask}, rel_tol=args.tol_solver
    )
    if args.solution_out:
        with open(args.solution_out, "w") as fh:
            fh.write(serialize_vertex_fn(f))
    emit(args, {"command": "dirichlet", "n": s.n, "values": list(f.values)})


def cmd_decompose(args):
    s = need_section(args)
    f = load_fn(s, args.fn)
    from .energy import energy

    dec = harmonic.royden_decompose(s, f, rel_tol=args.tol_solver)
    emit(args, {
        "command": "decompose",
        "f0": list(dec.f0.values),
        "fh": list(dec.fh.values),
        "orthogonality_residual": dec.orthogonality_residual,
        "bounds_preserved": dec.bounds_preserved,
        "energy": energy(s, f).value,
        "energy_f0": energy(s, dec.f0).value,
        "energy_fh": energy(s, dec.fh).value,
    })


def cmd_maxcheck(args):
    s = need_section(args)
    f = load_fn(s, args.fn)
    rep = harmonic.max_principle_check(s, f)
    emit(args, {
        "command": "maxcheck",
        "max_abs_all": rep.max_abs_all,
        "max_abs_mask": rep.max_abs_mask,
        "gap": rep.gap,
        "passed": rep.passed,
        "strict_ok": rep.strict_ok,
        "constant": rep.constant,
    })


def cmd_hbempty(args):
    gen = need_generator(args)
    rep = harmonic.harmonic_boundary_empty(
        gen,
        tol=args.tol,
        levels=parse_levels(args.levels) if args.levels else None,
        rel_tol=args.tol_solver,
    )
    emit(args, {
        "command": "hbempty",
        "status": rep.status,
        "c_tail": rep.c_tail,
        "c_partial_sums": list(rep.c_partial_sums),
        "zero_c_verdict": rep.zero_c.verdict if rep.zero_c else None,
        "levels": list(rep.levels),
        "tol": rep.tol,
    })


def cmd_truncate_harmonic(args):
    s = need_section(args)
    f = load_fn(s, args.fn)
    res = harmonic.truncate_harmonic(s, f, args.bound, rel_tol=args.tol_solver)
    emit(args, {
        "command": "truncate-harmonic",
        "bound": args.bound,
        "fh_nonconstant": res.fh_nonconstant,
        "energy_input": res.energy_input,
        "energy_truncated": res.energy_truncated,
        "fn": list(res.fn.values),
        "f0": list(res.decomposition.f0.values),
        "fh": list(res.decomposition.fh.values),
    })


def cmd_liouville(args):
    if args.tol is not None and args.ut_window is None:
        raise UsageError("--tol only applies with --ut-window")
    gen = need_generator(args)
    rep = harmonic.liouville_probe(
        gen, parse_levels(args.levels), seed=args.seed, rel_tol=args.tol_solver
    )
    note = None
    if args.ut_window is not None:
        options = {} if args.tol is None else {"tol": args.tol}
        ut = potential.uniform_transience_report(
            gen, window_level=args.ut_window, rel_tol=args.tol_solver, **options
        )
        note = harmonic.one_point_summary(rep, ut)
    emit(args, {
        "command": "liouville",
        "trend": rep.trend,
        "levels": list(rep.levels),
        "oscillations": list(rep.oscillations),
        "seed": rep.seed,
        "note": note,
    })


def cmd_spectrum(args):
    s = need_section(args)
    spec = spectral.spectrum(s, k=args.k, vectors=False)
    rows = [(i, float(v)) for i, v in enumerate(spec.eigenvalues)]
    emit(args, {
        "command": "spectrum",
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "interior": int(len(spec.interior)),
        "measure_total": spec.measure_total,
        "method": spec.method,
    }, rows, ["index", "eigenvalue"])


def cmd_bounds(args):
    s = need_section(args)
    enumeration = args.enumeration
    if enumeration != "measure-decreasing":
        enumeration = [parse_label(tok) for tok in enumeration.split(",")]
    rep = spectral.eigenvalue_bounds_check(s, enumeration, rel_tol=args.tol_solver)
    rows = [(r.n, r.bound, r.eigenvalue, r.slack) for r in rep.rows]
    emit(args, {
        "command": "bounds",
        "passed": rep.passed,
        "C": rep.C,
        "min_cap": rep.min_cap,
        "enumeration": [format_label(v) for v in rep.enumeration],
        "rows": [
            {
                "n": r.n,
                "remaining_mass": r.remaining_mass,
                "bound": r.bound,
                "eigenvalue": r.eigenvalue,
                "slack": r.slack,
            }
            for r in rep.rows
        ],
    }, rows, ["n", "bound", "eigenvalue", "slack"])


def cmd_heat(args):
    # --trials and --tol-solver default to the library's values
    options = {"trials": args.trials, "rel_tol": args.tol_solver}
    options = {key: value for key, value in options.items() if value is not None}
    if args.check and args.seed is None:
        raise UsageError("--check needs --seed")
    if not args.check and (options or args.seed is not None):
        raise UsageError("--trials, --seed and --tol-solver only apply with --check")
    s = need_section(args)
    f = load_fn(s, args.fn)
    # --check heats random functions with the same eigendecomposition
    spec = spectral.spectrum(s) if args.check and args.t > 0 else None
    out = spectral.heat_apply(s, args.t, f, spec=spec)
    ultra = None
    if args.check:
        rep = spectral.ultracontractivity_check(s, args.t, seed=args.seed, spec=spec, **options)
        ultra = {
            "C": rep.C,
            "prefactor": rep.prefactor,
            "max_ratio": rep.max_ratio,
            "passed": rep.passed,
            "trials": rep.trials,
            "seed": rep.seed,
        }
    if args.solution_out:
        with open(args.solution_out, "w") as fh:
            fh.write(serialize_vertex_fn(out))
    emit(args, {"command": "heat", "t": args.t, "values": list(out.values), "ultra": ultra})


def cmd_trace(args):
    s = need_section(args)
    try:
        times = [finite_float(tok) for tok in args.times.split(",")]
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad time grid {args.times!r}: each time must be a finite number")
    points = [{"t": t, "trace": v} for t, v in zip(times, spectral.heat_trace(s, times))]
    rows = [(p["t"], p["trace"]) for p in points]
    emit(args, {"command": "trace", "points": points}, rows, ["t", "trace"])


def cmd_gapcheck(args):
    s = need_section(args)
    rep = spectral.spectral_gap_criterion(s, trials=args.trials, seed=args.seed)
    emit(args, {
        "command": "gapcheck",
        "applicable": rep.applicable,
        "lambda0": rep.lambda0,
        "delta": rep.delta,
        "sup_bound_constant": rep.sup_bound_constant,
        "cap_lower_bound": rep.cap_lower_bound,
        "verified": rep.verified,
        "max_ratio": rep.max_ratio,
        "trials": rep.trials,
        "seed": rep.seed,
    })


def cmd_walk(args):
    s = need_section(args)
    lab = parse_label(args.vertex)
    est = walker.escape_probability(
        s, lab, trials=args.trials, seed=args.seed, threads=args.threads
    )
    pi = float(s.weighted_degree[s.index_of(lab)])
    emit(args, {
        "command": "walk",
        "vertex": args.vertex,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "successes": est.successes,
        "trials": est.trials,
        "seed": est.seed,
        "pi": pi,
        "cap_estimate": pi * est.estimate,
    })


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="royden",
        description="Potential theory on finite sections of weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    section = argparse.ArgumentParser(add_help=False)
    source = section.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="FILE", help="graph file source")
    source.add_argument("--generator", metavar="SPEC", help="family:key=value,... with r=/depth=")
    exhaustion = argparse.ArgumentParser(add_help=False)
    exhaustion.add_argument(
        "--generator", required=True, metavar="SPEC", help="family:key=value,... without r=/depth="
    )
    verdict_tol = argparse.ArgumentParser(add_help=False)
    verdict_tol.add_argument(
        "--tol", type=finite_float, default=1e-3, help="classification tolerance"
    )
    solver_tol = argparse.ArgumentParser(add_help=False)
    solver_tol.add_argument(
        "--tol-solver", type=positive_float, default=1e-10, help="linear solver relative tolerance"
    )
    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--output", choices=("json", "csv"), default="json")

    def add(name, fn, help_, *parents):
        # no abbreviations: --tol must not stand for --tol-solver where only that exists
        p = sub.add_parser(
            name, parents=parents, help=help_, description=help_, allow_abbrev=False
        )
        p.set_defaults(handler=fn)
        p._negative_number_matcher = NUMBER_LIKE
        return p

    add("validate", cmd_validate, "check section invariants, list components", section)
    add("gen", cmd_gen, "emit the section in the graph file format", section)

    p = add("cap", cmd_cap, "capacity of a vertex (least energy pinned at 1 there)",
            section, solver_tol)
    p.add_argument("--vertex", required=True, help="vertex index or label")
    p.add_argument("--potential-out", metavar="FILE", help="write the minimizer")

    p = add("cap-profile", cmd_cap_profile, "capacity along an exhaustion",
            exhaustion, solver_tol, tabular)
    p.add_argument("--vertex", help="tracked label (default: generator origin)")
    p.add_argument("--levels", help="levels, e.g. 8:128 or 4:20:2 or 3,5,9")

    p = add("classify", cmd_classify, "transient / recurrent from the capacity profile",
            exhaustion, verdict_tol, solver_tol)
    p.add_argument("--vertex", help="tracked label (default: generator origin)")
    p.add_argument("--levels", help="levels override")

    p = add("gamma", cmd_gamma, "energy metric between two vertices", section, solver_tol)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("gamma-o", cmd_gamma_o, "energy metric anchored at a pin vertex", section, solver_tol)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--pin", required=True, help="anchor vertex o")

    p = add("resistance", cmd_resistance, "free effective resistance, mask ignored",
            section, solver_tol)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("ut-report", cmd_ut_report, "uniform transience verdict with certificates",
            exhaustion, verdict_tol, solver_tol)
    p.add_argument("--window", type=int, default=2, help="window scan level")
    p.add_argument("--levels", help="profile levels override")
    p.add_argument("--gap-levels", help="spectral gap scan levels override")

    p = add("dirichlet", cmd_dirichlet, "solve the Dirichlet problem for mask data",
            section, solver_tol)
    p.add_argument("--boundary", required=True, metavar="FILE", help="mask values file")
    p.add_argument("--solution-out", metavar="FILE")

    p = add("decompose", cmd_decompose, "energy-orthogonal mask-vanishing + harmonic split",
            section, solver_tol)
    p.add_argument("--fn", required=True, metavar="FILE", help="vertex function file")

    p = add("maxcheck", cmd_maxcheck, "maximum principle report for a harmonic function", section)
    p.add_argument("--fn", required=True, metavar="FILE")

    p = add("hbempty", cmd_hbempty, "harmonic boundary emptiness probe",
            exhaustion, verdict_tol, solver_tol)
    p.add_argument("--levels", help="levels override")

    p = add("truncate-harmonic", cmd_truncate_harmonic, "clamp a harmonic f, redecompose",
            section, solver_tol)
    p.add_argument("--fn", required=True, metavar="FILE")
    p.add_argument("--bound", required=True, type=finite_float)

    p = add("liouville", cmd_liouville, "oscillation trend of receding sector data",
            exhaustion, solver_tol)
    p.add_argument("--levels", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument(
        "--ut-window", type=positive_int, help="also run ut-report at this window level and combine"
    )
    p.add_argument(
        "--tol", type=finite_float, help="classification tolerance of --ut-window (default 1e-3)"
    )

    p = add("spectrum", cmd_spectrum, "Dirichlet eigenvalues", section, tabular)
    p.add_argument("--k", type=int, help="number of smallest pairs (enables Lanczos)")

    p = add("bounds", cmd_bounds, "capacity lower bounds on eigenvalues",
            section, solver_tol, tabular)
    p.add_argument(
        "--enumeration",
        default="measure-decreasing",
        help='"measure-decreasing" or a comma list of interior vertices',
    )

    p = add("heat", cmd_heat, "apply the heat semigroup to a function", section)
    p.add_argument("--t", required=True, type=finite_float)
    p.add_argument("--fn", required=True, metavar="FILE")
    p.add_argument(
        "--check", action="store_true",
        help="also verify the sup-norm bound; --seed is required with it",
    )
    p.add_argument("--trials", type=int, help="random functions of --check (default 50)")
    p.add_argument("--seed", type=int, help="seed of --check")
    p.add_argument(
        "--tol-solver", type=positive_float,
        help="linear solver relative tolerance of --check (default 1e-10)",
    )
    p.add_argument("--solution-out", metavar="FILE")

    p = add("trace", cmd_trace, "heat trace over a time grid", section, tabular)
    p.add_argument("--times", required=True, help="comma list, e.g. 0.1,1,10")

    p = add("gapcheck", cmd_gapcheck, "spectral gap criterion", section)
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--seed", required=True, type=int)

    p = add("walk", cmd_walk, "random-walk escape probability from a vertex", section)
    p.add_argument("--vertex", required=True)
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument(
        "--threads",
        type=positive_int,
        default=1,
        help="walker threads (>= 1); the estimate does not depend on it",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); point stdout at devnull
        # so the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _run(args) -> int:
    try:
        args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RoydenError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, indent=2))
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
