import random
from fractions import Fraction

import pytest

from boxlab import bell, shareability
from boxlab.core import mix


@pytest.fixture(scope="session")
def ns_vertices():
    return bell.ns_vertices_2222()


def random_ns_box(rng: random.Random, vertices, nonlocal_bias=0, interior=False):
    """Rational mixture of the 24 vertices.

    nonlocal_bias is a rough percentage of mass piled on one PR-type
    vertex (high values make the box reliably nonlocal); interior keeps
    every vertex weight positive."""
    low = 1 if interior else 0
    weights = [rng.randrange(low, 8) for _ in vertices]
    if nonlocal_bias:
        others = sum(weights)
        target = max(1, others * nonlocal_bias // max(1, 100 - nonlocal_bias))
        weights[16 + rng.randrange(8)] += target + rng.randrange(target + 1)
    total = sum(weights)
    if total == 0:
        weights[rng.randrange(len(weights))] = 1
        total = 1
    return mix(list(vertices), [Fraction(w, total) for w in weights])


def random_local_box(rng: random.Random, vertices):
    """Mixture of deterministic vertices only."""
    weights = [rng.randrange(0, 8) for _ in range(16)] + [0] * 8
    total = sum(weights)
    if total == 0:
        weights[rng.randrange(16)] = 1
        total = 1
    return mix(list(vertices), [Fraction(w, total) for w in weights])


def asymmetric_giso(c):
    """Generalized isotropic 2222 box that swapping A and B changes:
    biased noise on Alice, uniform noise on Bob."""
    return shareability.generalized_isotropic(
        2, c, [Fraction(3, 4), Fraction(1, 4)], [Fraction(1, 2), Fraction(1, 2)]
    )
