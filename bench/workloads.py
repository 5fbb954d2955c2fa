"""The four benchmark workloads: their seeded inputs, op lists and output oracles.

Each workload builds its inputs once (this is the set-up the benchmark
times) and returns a fixed list of ops that every pass runs in the same
order. An op is a call into the public library, or for `cli` one cold
`python -m royden.cli` process. Each op carries a check that compares its
output with an oracle the benchmark computes itself, untimed, after the
passes; a check returns None when the output is right and a message when
it is not.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

import royden as R
from royden.energy import energy_matrix

BENCH = Path(__file__).resolve().parent
RTOL = 1e-8
WALK_Z = 4.0  # standard errors allowed between pi * p and cap; see bench/README.md


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _close(got, want, rtol: float = RTOL) -> bool:
    """Elementwise relative agreement; entries far below the largest one are
    compared against 1e-3 of it, so values near zero need not match digit for digit."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = float(np.max(np.abs(want), initial=0.0))
    return bool(np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), scale * 1e-3)))


def _expect(cond: bool, what: str):
    return None if cond else what


class Context:
    """What a workload factory gets: the seeded rng, a directory for input
    files, the tracer, and the pass variant the worker is running."""

    def __init__(self, rng: random.Random, workdir: Path, tracer):
        self.rng = rng
        self.workdir = workdir
        self.tracer = tracer
        self.variant = "plain"  # "plain" | "traced" | "blas1"


# ---------------------------------------------------------------------------
# exhaust: whole exhaustions, each built section solved about once

# Values the library returned when this benchmark was written; oracles below
# that are computed (cache(...)) run on first use, after the passes.
EXHAUST_EXPECTED = {
    "ut-report lattice:d=3": {
        "verdict": ("certified-UT", "transitivity"),
        "inf_cap_estimate": 4.017400989632588,
        "window_inf_cap": 4.175790064574661,
    },
    "ut-report tree:k=3": {
        "verdict": ("certified-UT", "spectral-gap"),
        "inf_cap_estimate": 0.22111806282786636,
        "window_inf_cap": 1.552941176470588,
        "gap_lambdas": [0.2587993813186001, 0.23591496826077735, 0.22111806282786636],
    },
    "classify lattice:d=2 levels=8..128": {
        "verdict": ("recurrent", "capacity decays with the log of the level"),
        "values": [
            1.6664076384323003, 1.4072468523363062, 1.2180653886454613,
            1.073763270051695, 0.9600385684917212,
        ],
    },
    "hbempty lattice:d=2,c0=1": {
        "verdict": ("empty", "recurrent"),
        "c_partial_sums": [1.0] * 7,
        "values": [
            2.045112781954887, 1.8047227509930752, 1.6664076384323003, 1.5042782526378708,
            1.4072468523363062, 1.2900307493714984, 1.2180653886454613,
        ],
    },
}


def _check_ut(name):
    exp = EXHAUST_EXPECTED[name]

    def check(rep):
        if (rep.verdict, rep.evidence) != exp["verdict"]:
            return f"verdict {rep.verdict}/{rep.evidence}, expected {'/'.join(exp['verdict'])}"
        if not _close(rep.inf_cap_estimate, exp["inf_cap_estimate"]):
            return f"inf_cap_estimate {rep.inf_cap_estimate!r}"
        if not _close(rep.window_inf_cap, exp["window_inf_cap"]):
            return f"window_inf_cap {rep.window_inf_cap!r}"
        if "gap_lambdas" in exp and not _close(rep.details.get("gap_lambdas"), exp["gap_lambdas"]):
            return f"gap_lambdas {rep.details.get('gap_lambdas')!r}"
        return None

    return check


def _check_classify(v):
    exp = EXHAUST_EXPECTED["classify lattice:d=2 levels=8..128"]
    if (v.verdict, v.reason) != exp["verdict"]:
        return f"verdict {v.verdict!r} ({v.reason})"
    return _expect(_close(v.profile.values, exp["values"]), f"profile {v.profile.values!r}")


def _check_hbempty(rep):
    exp = EXHAUST_EXPECTED["hbempty lattice:d=2,c0=1"]
    got = (rep.status, rep.zero_c.verdict if rep.zero_c else None)
    if got != exp["verdict"]:
        return f"status {got!r}"
    if not _close(rep.c_partial_sums, exp["c_partial_sums"]):
        return f"c_partial_sums {rep.c_partial_sums!r}"
    return _expect(_close(rep.zero_c.profile.values, exp["values"]), "zero-c profile values")


def exhaust(ctx: Context):
    rng = ctx.rng
    # each op makes its generator afresh, as one CLI call does
    ops = [
        Op("ut-report lattice:d=3",
           lambda: R.uniform_transience_report(R.lattice_generator(3)),
           _check_ut("ut-report lattice:d=3")),
        Op("ut-report tree:k=3",
           lambda: R.uniform_transience_report(R.tree_generator(3)),
           _check_ut("ut-report tree:k=3")),
        Op("classify lattice:d=2 levels=8..128",
           lambda: R.classify_transience(R.lattice_generator(2), levels=(8, 16, 32, 64, 128)),
           _check_classify),
        Op("hbempty lattice:d=2,c0=1",
           lambda: R.harmonic_boundary_empty(R.lattice_generator(2, c_origin=1.0)),
           _check_hbempty),
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sweep: a few sections built once, solved against many times

SWEEP_PAIRS = 20


class _DenseOracle:
    """Dense inverse of the interior energy matrix of one section."""

    def __init__(self, s):
        self.s = s
        inter = s.interior
        self.pos = {int(v): i for i, v in enumerate(inter)}
        self.A = energy_matrix(s, inter).dense()
        self.Ainv = np.linalg.inv(self.A)

    def chi(self, x, y):
        v = np.zeros(len(self.pos))
        v[self.pos[self.s.index_of(x)]] += 1.0
        v[self.pos[self.s.index_of(y)]] -= 1.0
        return v

    @cached_property
    def eigenvalues(self):
        return scipy.linalg.eigh(self.A, np.diag(self.s.m[self.s.interior]), eigvals_only=True)

    @cached_property
    def grounded_inverse(self):
        """Inverse of the full (mask ignored) energy matrix grounded at vertex 0."""
        s = self.s
        L = (np.diag(s.weighted_degree + s.c) - s.adj.toarray())[1:, 1:]
        G = np.zeros((s.n, s.n))
        G[1:, 1:] = np.linalg.inv(L)
        return G


def _check_bounds(oracle):
    def check(rep):
        o = oracle()
        if not rep.passed:
            return "eigenvalue bounds check did not pass"
        want = 1.0 / float(np.max(np.diag(o.Ainv)))
        if not _close(rep.min_cap, want):
            return f"min_cap {rep.min_cap!r}, dense {want!r}"
        got = [r.eigenvalue for r in rep.rows]
        return _expect(_close(got, o.eigenvalues), "eigenvalues differ from dense eigh")

    return check


def _wide_weight_section(rng: np.random.Generator):
    """Z^2 r=20 with edge weights log-uniform over 10^-3..10^3."""
    z = R.generate_lattice(2, 20)
    coo = z.adj.tocoo()
    up = coo.row < coo.col
    w = 10.0 ** rng.uniform(-3.0, 3.0, int(up.sum()))
    edges = zip(coo.row[up].tolist(), coo.col[up].tolist(), w.tolist())
    return R.build_section(z.n, edges, dirichlet=z.mask, labels=z.labels)


def sweep(ctx: Context):
    rng = ctx.rng
    sections = {
        "tree:k=3,depth=6": R.generate_tree(3, 6),
        "lattice:d=2,r=15": R.generate_lattice(2, 15),
        "lattice:d=3,r=6": R.generate_lattice(3, 6),
    }
    oracles = {k: cache(lambda s=s: _DenseOracle(s)) for k, s in sections.items()}
    ops = [
        Op(f"bounds {k}", lambda s=s: R.eigenvalue_bounds_check(s), _check_bounds(oracles[k]))
        for k, s in sections.items()
    ]

    z3 = sections["lattice:d=3,r=6"]
    z3o = oracles["lattice:d=3,r=6"]
    labels = [z3.labels[v] for v in z3.interior]
    for _ in range(SWEEP_PAIRS):
        x, y, o = rng.sample(labels, 3)

        def check_gamma(g, x=x, y=y):
            d = z3o()
            want = d.chi(x, y) @ d.Ainv @ d.chi(x, y)
            return _expect(g.regime == "wired" and _close(g.value**2, want), f"gamma {x}-{y}")

        def check_gamma_o(v, o=o, x=x, y=y):
            d = z3o()
            col = d.Ainv[:, d.pos[z3.index_of(o)]]
            pinned = d.Ainv - np.outer(col, col) / (1.0 + col[d.pos[z3.index_of(o)]])
            want = d.chi(x, y) @ pinned @ d.chi(x, y)
            return _expect(_close(v**2, want), f"gamma_o {x}-{y} pin {o}")

        def check_resistance(v, x=x, y=y):
            G = z3o().grounded_inverse
            xi, yi = z3.index_of(x), z3.index_of(y)
            want = G[xi, xi] + G[yi, yi] - 2.0 * G[xi, yi]
            return _expect(_close(v, want), f"resistance {x}-{y}")

        ops += [
            Op("gamma", lambda x=x, y=y: R.gamma(z3, x, y), check_gamma),
            Op("gamma_o", lambda o=o, x=x, y=y: R.gamma_o(z3, o, x, y), check_gamma_o),
            Op("resistance", lambda x=x, y=y: R.free_resistance(z3, x, y), check_resistance),
        ]

    # ill-conditioned weights on purpose: Jacobi-PCG runs out of iterations here
    wide = _wide_weight_section(np.random.default_rng(rng.getrandbits(32)))
    wide_oracle = cache(lambda: _DenseOracle(wide))

    def check_wide(res):
        d = wide_oracle()
        want = 1.0 / d.Ainv[d.pos[wide.index_of((0, 0))], d.pos[wide.index_of((0, 0))]]
        return _expect(_close(res.cap, want), f"wide-weight cap {res.cap!r}, dense {want!r}")

    ops.append(Op("capacity wide-weight lattice:d=2,r=20",
                  lambda: R.equilibrium_potential(wide, (0, 0)), check_wide))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# walk: only the walker runs; the section is built in set-up

WALK_TRIALS = 65536


def walk(ctx: Context):
    rng = ctx.rng
    s = R.generate_lattice(3, 20)
    walk_seed = rng.getrandbits(31)
    cap = cache(lambda: R.equilibrium_potential(s, (0, 0, 0)).cap)
    first = []

    def check(est):
        if not first:
            first.append(est.successes)
        if est.successes != first[0]:
            return f"success count {est.successes} differs from {first[0]} at the same seed"
        pi = float(s.weighted_degree[s.index_of((0, 0, 0))])
        dev = abs(pi * est.estimate - cap())
        return _expect(dev <= WALK_Z * pi * est.stderr, f"pi*p off the capacity by {dev:.4g}")

    return [Op(f"walk lattice:d=3,r=20 seed={walk_seed}",
               lambda: R.escape_probability(s, (0, 0, 0), trials=WALK_TRIALS, seed=walk_seed, threads=1),
               check)]


# ---------------------------------------------------------------------------
# cli: cold processes, verdict-sized and O(n)-sized outputs


class CliRun(NamedTuple):
    code: int
    out: str


def _schema_check(command: str, payload: dict):
    import jsonschema
    from royden.schemas import schema_for

    try:
        jsonschema.validate(payload, schema_for(command))
    except jsonschema.ValidationError as exc:
        return f"{command} output fails its schema: {exc.message}"
    return None


def _json_check(command: str, compare):
    def check(res: CliRun):
        if res.code != 0:
            return f"exit {res.code}"
        payload = json.loads(res.out)
        return _schema_check(command, payload) or compare(payload)

    return check


def _values_match(key, fn):
    ref = cache(fn)
    return lambda p: _expect(_close(p[key], ref()), f"{key} differs from the library")


def cli(ctx: Context):
    rng = ctx.rng
    nrng = np.random.default_rng(rng.getrandbits(32))
    z16 = R.generate_lattice(3, 16)
    boundary = ctx.workdir / "boundary.vec"
    boundary.write_text(R.serialize_vertex_fn(
        z16.fn({int(v): float(x) for v, x in zip(z16.mask, nrng.uniform(-1, 1, len(z16.mask)))})
    ))
    z12 = R.generate_lattice(3, 12)
    fn_file = ctx.workdir / "fn.vec"
    fn_file.write_text(R.serialize_vertex_fn(z12.fn(nrng.uniform(-1, 1, z12.n))))
    walk_seed = rng.getrandbits(31)
    gap_seed = rng.getrandbits(31)
    walk_ref = cache(lambda: R.escape_probability(
        R.generate_lattice(3, 6), (0, 0, 0), trials=4096, seed=walk_seed).successes)

    def dirichlet_ref():
        data = R.parse_vertex_fn(boundary.read_text(), z16)
        return R.solve_dirichlet(z16, {z16.labels[v]: float(data.values[v]) for v in z16.mask}).values

    decomposition = cache(lambda: R.royden_decompose(z12, R.parse_vertex_fn(fn_file.read_text(), z12)))
    gap = cache(lambda: R.spectral_gap_criterion(R.generate_tree(3, 6), trials=32, seed=gap_seed))
    ut = cache(lambda: R.uniform_transience_report(R.tree_generator(3)))
    cls = cache(lambda: R.classify_transience(R.lattice_generator(2)))

    def check_gen(res: CliRun):
        if res.code != 0:
            return f"exit {res.code}"
        got = R.parse_graph_file(res.out)
        return _expect(R.sections_equal(got, R.generate_lattice(3, 10)), "gen output differs")

    commands = [
        ("cap --generator lattice:d=3,r=12 --vertex 0,0,0",
         _values_match("cap", lambda: R.equilibrium_potential(z12, (0, 0, 0)).cap)),
        ("spectrum --generator tree:k=3,depth=8 --k 8",
         _values_match("eigenvalues", lambda: R.spectrum(R.generate_tree(3, 8), k=8).eigenvalues)),
        (f"gapcheck --generator tree:k=3,depth=6 --seed {gap_seed}",
         lambda p: _expect(p["verified"] == gap().verified and _close(p["lambda0"], gap().lambda0),
                           "gapcheck differs from the library")),
        ("ut-report --generator tree:k=3",
         lambda p: _expect((p["verdict"], p["evidence"]) == (ut().verdict, ut().evidence)
                           and _close(p["inf_cap_estimate"], ut().inf_cap_estimate),
                           "ut-report differs from the library")),
        ("classify --generator lattice:d=2",
         lambda p: _expect(p["verdict"] == cls().verdict
                           and _close(p["profile"]["values"], cls().profile.values),
                           "classify differs from the library")),
        (f"walk --generator lattice:d=3,r=6 --vertex 0,0,0 --trials 4096 --seed {walk_seed}",
         lambda p: _expect(p["successes"] == walk_ref(), "walk differs from the library")),
        ("dirichlet --generator lattice:d=3,r=16 --boundary {boundary}",
         _values_match("values", dirichlet_ref)),
        ("gen --generator lattice:d=3,r=10", None),
        ("decompose --generator lattice:d=3,r=12 --fn {fn}",
         lambda p: _expect(_close(p["f0"], decomposition().f0.values)
                           and _close(p["fh"], decomposition().fh.values),
                           "decompose differs from the library")),
    ]

    spans_file = ctx.workdir / "spans.json"

    def run(argv, variant):
        env = dict(os.environ)
        if variant == "blas1":
            env["OPENBLAS_NUM_THREADS"] = "1"
        if variant == "traced":
            spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "royden.cli", *argv]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
        if variant == "traced" and spans_file.exists():
            ctx.tracer.extend(json.loads(spans_file.read_text()))
        return CliRun(proc.returncode, proc.stdout)

    ops = []
    for line, compare in commands:
        argv = [tok.format(boundary=boundary, fn=fn_file) for tok in line.split()]
        # every pass prints the same output, so each distinct output is checked once
        check = cache(check_gen if compare is None else _json_check(argv[0], compare))
        ops.append(Op(line, lambda argv=argv: run(argv, ctx.variant), check))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"exhaust": exhaust, "sweep": sweep, "walk": walk, "cli": cli}
