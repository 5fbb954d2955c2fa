import json
import tracemalloc

import numpy as np
import pytest

import royden as R
from royden import walker
from royden.cli import main
from royden.errors import InvalidParameter, KillingUnsupported, RoydenError, UnmaskedSection

from conftest import random_section


def test_forced_escape_probability_one():
    # star with masked leaves: first step always hits the mask
    s = R.build_section(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)], dirichlet=[1, 2, 3])
    est = R.escape_probability(s, 0, trials=500, seed=0)
    assert est.estimate == 1.0
    assert est.successes == 500


def test_p3_escape_half(p3_end_masked):
    est = R.escape_probability(p3_end_masked, 0, trials=100_000, seed=1)
    assert est.estimate == pytest.approx(0.5, abs=4 * est.stderr)
    assert est.stderr == pytest.approx(
        np.sqrt(est.estimate * (1 - est.estimate) / est.trials)
    )


def test_weighted_step_distribution():
    # from 1: weight 3 to masked 0, weight 1 to masked 2 -> p(hit 0) = 3/4,
    # but both absorb, so escape = 1; instead check origin-return asymmetry:
    # path 0-1-2 with weights 3 and 1, mask {2}: from 0 forced to 1, then
    # p(2) = 1/4, p(back to 0) = 3/4 -> escape probability 1/4
    s = R.build_section(3, [(0, 1, 3.0), (1, 2, 1.0)], dirichlet=[2])
    est = R.escape_probability(s, 0, trials=200_000, seed=2)
    assert est.estimate == pytest.approx(0.25, abs=4 * est.stderr)
    # capacity cross-check: pi(0) * p = cap(0)
    cap = R.equilibrium_potential(s, 0).cap
    assert 3.0 * est.estimate == pytest.approx(cap, abs=3 * 3.0 * est.stderr)


def test_thread_count_invariance(p3_end_masked):
    runs = [
        R.escape_probability(p3_end_masked, 0, trials=50_000, seed=9, threads=k)
        for k in (1, 2, 4, 7)
    ]
    assert len({r.successes for r in runs}) == 1


def test_seed_sensitivity(p3_end_masked):
    a = R.escape_probability(p3_end_masked, 0, trials=50_000, seed=1)
    b = R.escape_probability(p3_end_masked, 0, trials=50_000, seed=2)
    assert a.successes != b.successes


def test_validations(p3_end_masked, killed_point):
    with pytest.raises(InvalidParameter):
        R.escape_probability(p3_end_masked, 0, trials=0, seed=0)
    with pytest.raises(InvalidParameter):
        R.escape_probability(p3_end_masked, 2, trials=10, seed=0)  # masked start
    for threads in (0, -1):
        with pytest.raises(InvalidParameter, match="threads"):
            R.escape_probability(p3_end_masked, 0, trials=10, seed=0, threads=threads)
    with pytest.raises(KillingUnsupported):
        R.escape_probability(killed_point, 0, trials=10, seed=0)
    free = R.build_section(2, [(0, 1, 1.0)])
    with pytest.raises(UnmaskedSection):
        R.escape_probability(free, 0, trials=10, seed=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 2.5},
        {"trials": True},
        {"trials": "10"},
        {"seed": 1.5},
        {"seed": True},
        {"seed": None},
        {"threads": 1.5},
        {"threads": True},
    ],
)
def test_non_integer_arguments_refused(p3_end_masked, kwargs):
    args = {"trials": 10, "seed": 0, "threads": 1, **kwargs}
    name = next(iter(kwargs))
    with pytest.raises(InvalidParameter, match=f"{name} must be an integer"):
        R.escape_probability(p3_end_masked, 0, **args)


def test_numpy_integer_arguments_accepted(p3_end_masked):
    want = R.escape_probability(p3_end_masked, 0, trials=1000, seed=3, threads=2)
    got = R.escape_probability(
        p3_end_masked, 0, trials=np.int64(1000), seed=np.uint32(3), threads=np.int8(2)
    )
    assert got == want
    assert type(got.trials) is int and type(got.seed) is int


def test_random_fixture_capacity_match():
    rng = np.random.default_rng(40)
    for _ in range(5):
        s = random_section(rng, n_max=20)
        o = s.labels[int(rng.choice(s.interior))]
        oi = s.index_of(o)
        est = R.escape_probability(s, o, trials=100_000, seed=13)
        cap = R.equilibrium_potential(s, o).cap
        pi = float(s.weighted_degree[oi])
        assert pi * est.estimate == pytest.approx(cap, abs=3.5 * pi * max(est.stderr, 1e-5))


@pytest.mark.parametrize(
    "section, o",
    [
        (R.generate_lattice(3, 8), (0, 0, 0)),
        (R.build_section(3, [(0, 1, 3.0), (1, 2, 1.0)], dirichlet=[2]), 0),
        (random_section(np.random.default_rng(40), n_max=20), None),
    ],
    ids=["z3-r8", "weighted-p3", "random-weighted"],
)
def test_python_steps_match_numpy_steps(monkeypatch, section, o):
    # trials finished one at a time in python scalars read the same
    # uniforms and make the same draws as the vectorised step
    o = section.labels[int(section.interior[0])] if o is None else o

    def successes(tail, long):
        monkeypatch.setattr(walker, "_TAIL", tail)
        monkeypatch.setattr(walker, "_LONG", long)
        return R.escape_probability(section, o, trials=5000, seed=4).successes

    assert successes(0, walker._STEP_LIMIT) == successes(walker._TAIL, 0) == successes(100, 3)


def test_long_one_dimensional_walk_completes():
    # a trial from 1 that reaches 2000 before 0 is a gambler's ruin walk
    # of about 2000^2 steps: three trials of seed 1 take over 10^6 steps,
    # the longest 2,788,438, and none may count as stuck
    est = R.escape_probability(R.generate_lattice(1, 2000), 0, trials=10_000, seed=1)
    assert est.successes == 7


def test_equal_weight_counts_are_pinned():
    # recorded with the cumulative-sum draw that preceded the alias
    # tables: on unit weights floor(u * deg) picks the same neighbor
    s = R.generate_lattice(3, 8)
    got = [R.escape_probability(s, (0, 0, 0), trials=20_000, seed=k).successes for k in (1, 2, 3)]
    assert got == [13576, 13777, 13698]


def _log_uniform_z2():
    """Z^2 r=20 with edge weights log-uniform over 10^-3..10^3."""
    z = R.generate_lattice(2, 20)
    coo = z.adj.tocoo()
    up = coo.row < coo.col
    w = 10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, int(up.sum()))
    edges = zip(coo.row[up].tolist(), coo.col[up].tolist(), w.tolist())
    return R.build_section(z.n, edges, dirichlet=z.mask, labels=z.labels)


def test_weighted_counts_are_pinned():
    # recorded before unit-weight tables skipped the lending pass: on
    # weighted tables that pass still runs and must draw as before
    s = random_section(np.random.default_rng(40), n_max=20)
    z = _log_uniform_z2()
    assert walker._Transitions(s)._lends and walker._Transitions(z)._lends
    o = s.labels[int(s.interior[0])]
    got = [R.escape_probability(s, o, trials=20_000, seed=k).successes for k in (1, 2, 3)]
    assert got == [10087, 10126, 10147]
    got = [R.escape_probability(z, (0, 0), trials=20_000, seed=k).successes for k in (1, 2)]
    assert got == [57, 56]


@pytest.mark.parametrize(
    "section",
    [R.generate_lattice(3, 6), R.generate_lattice(1, 50), R.generate_tree(3, 6)],
    ids=["z3-r6", "z1-r50", "tree-k3"],
)
def test_skipped_lending_pass_draws_the_same_vertices(section):
    # unit weights: every accept is 1, so no fractional part lends
    trans = walker._Transitions(section)
    assert not trans._lends
    rng = np.random.default_rng(5)
    pos = rng.choice(np.flatnonzero(np.diff(section.adj.indptr)), size=20_000)
    u = walker._uniforms(walker._trial_keys(7, np.arange(len(pos))), 3, _buffers(len(pos)))
    u[:2] = 0.0, 1.0 - 2.0**-53  # the least and the largest uniform drawn
    skipped = trans.step(pos, u)
    trans._lends = True
    assert trans.step(pos, u).tolist() == skipped.tolist()


def _buffers(n):
    return np.empty(n, np.uint64), np.empty(n, np.uint64), np.empty(n)


@pytest.mark.parametrize("n", [0, 1, 65, 2_000])
def test_uniforms_into_buffers_equal_the_scalar_form(n):
    keys = walker._trial_keys(11, np.arange(n, dtype=np.uint64))
    bufs = _buffers(walker._CHUNK)
    for step in (0, 1, 2353, walker._STEP_LIMIT):
        got = walker._uniforms(keys, step, bufs)
        want = [walker._trial_uniforms(k, step, step + 1)[0] for k in keys]
        assert got.tolist() == want
        assert np.shares_memory(got, bufs[2]) or n == 0
    # the keys are read, never written
    assert keys.tobytes() == walker._trial_keys(11, np.arange(n, dtype=np.uint64)).tobytes()


def _weighted_stars(hubs, leaves, seed):
    # hub h at vertex h, its leaves after all hubs
    w = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, hubs * leaves)
    edges = zip(np.repeat(np.arange(hubs), leaves).tolist(), range(hubs, hubs * (leaves + 1)), w.tolist())
    return R.build_section(hubs * (leaves + 1), edges, dirichlet=[hubs])


@pytest.mark.parametrize("hubs, leaves", [(1, 4000), (80, 200)])
def test_weighted_hubs_paired_alone_equal_the_rounds(monkeypatch, hubs, leaves):
    # rows wider than _WIDE pair alone however many of them there are;
    # with _WIDE above every degree each hub takes its deg - 1 rounds
    s = _weighted_stars(hubs, leaves, seed=3)
    alone, pair_row = [], walker._pair_row
    monkeypatch.setattr(walker, "_pair_row", lambda q: alone.append(len(q)) or pair_row(q))
    heaps = walker._Transitions(s)
    assert alone == [leaves] * hubs
    monkeypatch.setattr(walker, "_WIDE", leaves)
    rounds = walker._Transitions(s)
    assert alone == [leaves] * hubs
    assert heaps.accept.tobytes() == rounds.accept.tobytes()
    assert heaps.alias.tolist() == rounds.alias.tolist()
    assert (heaps.accept < 1.0).sum() > 0.75 * hubs * leaves


@pytest.mark.parametrize("deg", range(1, 65))
def test_largest_uniform_lands_on_a_real_slot(deg):
    # the hub's slots are followed by the first leaf's, so a column of deg
    # would read the next row; u = 1 - 2^-53 is the largest uniform drawn
    s = R.build_section(deg + 1, [(0, v, 1.0) for v in range(1, deg + 1)], dirichlet=[1])
    trans = walker._Transitions(s)
    hub = np.zeros(2, dtype=np.int64)
    nxt = trans.step(hub, np.array([0.0, 1.0 - 2.0**-53]))
    assert nxt.tolist() == [1, deg]


def test_alias_tables_grow_with_edges_not_with_the_widest_row():
    # rows padded to the hub's degree held 4,002,000 slots here
    s = R.build_section(2001, [(0, v, 1.0) for v in range(1, 2001)], dirichlet=[1])
    s.weighted_degree  # the section's own cache, not the tables'
    tracemalloc.start()
    try:
        walker._Transitions(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _weight_trap():
    # a walker at 3 bounces across the 1e9 edge for about 2e9 steps
    # before it leaves, far beyond any step limit
    return R.build_section(5, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1e9)], dirichlet=[2])


@pytest.mark.parametrize("trials", [10, 1000])
def test_weight_trap_hits_the_step_limit(monkeypatch, trials):
    # about a third of the trials are trapped: 1000 trials leave the
    # vectorised step at the limit, 10 are walked one at a time
    monkeypatch.setattr(walker, "_STEP_LIMIT", 10**4)
    with pytest.raises(RoydenError, match="within 10000 steps"):
        R.escape_probability(_weight_trap(), 0, trials=trials, seed=0)


def test_trapped_trials_are_walked_alone_after_long_steps(monkeypatch):
    # the vectorised step would carry every trapped trial to the limit at
    # once, at tens of microseconds a step
    monkeypatch.setattr(walker, "_STEP_LIMIT", 10**4)
    monkeypatch.setattr(walker, "_LONG", 100)
    alone = []
    finish = walker._finish
    monkeypatch.setattr(walker, "_finish", lambda *args: alone.append(args[5]) or finish(*args))
    with pytest.raises(RoydenError, match="within 10000 steps"):
        R.escape_probability(_weight_trap(), 0, trials=1000, seed=0)
    assert alone and set(alone) == {100}


def test_weight_trap_exits_1_from_the_cli(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(walker, "_STEP_LIMIT", 10**4)
    path = tmp_path / "trap.graph"
    path.write_text(R.serialize_graph_file(_weight_trap()))
    code = main(["walk", "--graph", str(path), "--vertex", "0", "--trials", "1000", "--seed", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["error"] == "RoydenError"
    assert "Traceback" not in out + err
