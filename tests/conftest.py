from unittest import mock

import numpy as np
import pytest

from royden import build_section, walker


@pytest.fixture
def p3_end_masked():
    # path 0-1-2, unit weights, vertex 2 masked
    return build_section(3, [(0, 1, 1.0), (1, 2, 1.0)], dirichlet=[2])


@pytest.fixture
def p3_both_masked():
    return build_section(3, [(0, 1, 1.0), (1, 2, 1.0)], dirichlet=[0, 2])


@pytest.fixture
def path4():
    return build_section(
        4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], dirichlet=[0, 3]
    )


@pytest.fixture
def star():
    # center 0, three masked leaves
    return build_section(
        4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)], dirichlet=[1, 2, 3]
    )


@pytest.fixture
def killed_point():
    return build_section(1, [], c={0: 2.0})


def random_section(
    rng,
    n_max=50,
    n_min=4,
    weights=(0.2, 2.0),
    with_killing=False,
    with_measure=False,
    mask_frac=0.34,
):
    """Connected random section with a nonempty mask.

    A random spanning tree keeps it connected, so every interior
    component can reach the mask.
    """
    n = int(rng.integers(n_min, n_max + 1))
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = float(rng.uniform(*weights))
    for _ in range(int(rng.integers(0, n))):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((a, b), float(rng.uniform(*weights)))
    k = int(rng.integers(1, max(2, int(n * mask_frac))))
    mask = rng.choice(n, size=k, replace=False).tolist()
    c = None
    if with_killing:
        c = {int(v): float(rng.uniform(0, 1)) for v in rng.choice(n, size=n // 3 + 1, replace=False)}
    m = None
    if with_measure:
        m = {i: float(rng.uniform(0.3, 3.0)) for i in range(n)}
    return build_section(
        n,
        [(a, b, w) for (a, b), w in edges.items()],
        c=c,
        m=m,
        dirichlet=mask,
    )


def random_fn(rng, s, vanish_on_mask=False):
    vals = rng.normal(size=s.n)
    if vanish_on_mask:
        vals[s.mask] = 0.0
    return s.fn(vals)


class CountingGenerator:
    """Wraps a level -> Section rule as a custom generator and records
    every level it builds, in order. `held` records, per build, how many
    sections this generator built earlier are still alive."""

    def __init__(self, build, origin, family="custom", transitive=False):
        import weakref

        from royden import custom_generator

        self.levels = []
        self.held = []
        live = weakref.WeakSet()

        def counted(level):
            self.held.append(len(live))
            self.levels.append(level)
            sec = build(level)
            live.add(sec)
            return sec

        self.gen = custom_generator(
            counted, origin=origin, family=family, is_vertex_transitive=transitive
        )


def walk_routes(section, o, trials, seed, threads=1):
    """Successes of escape_probability with every step vectorised, and
    with every trial walked alone in python scalars from its start."""
    with mock.patch.object(walker, "_TAIL", 0), mock.patch.object(walker, "_LONG", walker._STEP_LIMIT):
        vectorised = walker.escape_probability(section, o, trials, seed, threads).successes
    with mock.patch.object(walker, "_LONG", 0):
        alone = walker.escape_probability(section, o, trials, seed, threads).successes
    return vectorised, alone
