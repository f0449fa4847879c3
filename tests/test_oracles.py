"""The exact references of ``oracles`` reject seeded formula errors.

Each checker gets the library's values with one formula changed on purpose: the
mode frame with tan(2 theta)'s denominator formed with m1 and m2 swapped, and
the ion pair with its trap curvature scaled by 1.001 or its Coulomb spring by
1 + 1e-9.  Each must be rejected, while the unchanged library passes, and so
do three groupings of tan(2 theta) = num / den that differ only in rounding:
the raw-mass num = 2k sqrt(m1 m2) over m1 (k + k2) - m2 (k + k1) or over
(m1 - m2) k + (m1 k2 - m2 k1), and the mass-weighted num = 2k/sqrt(m1 m2) over
k (1/m2 - 1/m1) + (k2/m2 - k1/m1).
"""

import math
from unittest import mock

import pytest

from dnmodes import presets
from dnmodes.modes import _frame
from dnmodes.presets import PhaseGateConfig, SeparationConfig, TransportConfig, build_preset
from dnmodes.quadratic import MassPair, StiffnessTriple
from dnmodes.schedules import Polynomial

from oracles import check_frame, check_ion_pair_view, recorded_build, replace

# (num, den) of tan(2 theta) from (k, k1, k2, m1, m2).
DENOMINATORS = {
    "raw": lambda k, k1, k2, m1, m2: (2.0 * k * math.sqrt(m1 * m2),
                                      m1 * (k + k2) - m2 * (k + k1)),
    "regrouped": lambda k, k1, k2, m1, m2: (2.0 * k * math.sqrt(m1 * m2),
                                            (m1 - m2) * k + (m1 * k2 - m2 * k1)),
    "mass_weighted": lambda k, k1, k2, m1, m2: (2.0 * k / math.sqrt(m1 * m2),
                                                k * (1.0 / m2 - 1.0 / m1) + (k2 / m2 - k1 / m1)),
    "swapped": lambda k, k1, k2, m1, m2: (2.0 * k * math.sqrt(m1 * m2),
                                          m2 * (k + k2) - m1 * (k + k1)),
}

FRAMES = [
    (StiffnessTriple(0.3, 1.1, -0.4), MassPair(1.0, 2.0), None),
    (StiffnessTriple(-2.0, 0.5, 3.0), MassPair(4.0, 0.3), 2.0),
    # m1 k2 = m2 k1 in floats, so tan(2 theta) = 2 sqrt(2) / -1 at any k
    (StiffnessTriple(1e-9, 0.7, 1.4), MassPair(1.0, 2.0), None),
]


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except AssertionError:
        return True
    return False


def angle_terms_with(pair):
    """modes._angle_terms with (num, den) = pair(k, k1, k2, m1, m2) in place of the
    library's; e = k2/m2 - k1/m1 as the library forms it."""
    def terms(K, masses, t=None):
        num, den = pair(K.k, K.k1, K.k2, masses.m1, masses.m2)
        return num, den, K.k2 / masses.m2 - K.k1 / masses.m1, math.hypot(num, den)

    return terms


@pytest.mark.parametrize("pair", sorted(DENOMINATORS))
def test_the_frame_check_rejects_only_the_swapped_denominator(pair):
    for K, masses, branch in FRAMES:
        with mock.patch("dnmodes.modes._angle_terms", angle_terms_with(DENOMINATORS[pair])):
            frame = _frame(K, masses, branch)
        assert rejects(check_frame, frame, K, masses, branch) == (pair == "swapped")


CONFIGS = {
    "transport": TransportConfig(k=Polynomial((1.5, 0.3)), Q0=Polynomial((0.2, -0.4)), Cc=1.2,
                                 masses=(1.0, 2.5)),
    "separation": SeparationConfig(alpha=Polynomial((-1.0, 0.2)), beta=Polynomial((0.8, 0.1)),
                                   Cc=0.9, masses=(2.0, 0.7)),
    "phase-gate": PhaseGateConfig(k0=1.3, F1=Polynomial((0.2, 0.1)), F2=Polynomial((-0.1, 0.3)),
                                  Cc=1.1, masses=(1.0, 1.6)),
}


def seeded_ion_pair(kappa_factor: float, spring_factor: float):
    """Patch: ion pairs built inside scale their trap curvature by ``kappa_factor`` and
    their Coulomb spring 2 Cc/q0^3 by ``spring_factor``, through the Cc that _ion_pair
    reads; the distance equation keeps the builder's Cc, so q0 does not move."""
    ion_pair = presets._ion_pair

    def seeded(cfg, *args, curvature, **kwargs):
        return ion_pair(replace(cfg, Cc=cfg.Cc * spring_factor), *args,
                        curvature=lambda *u: kappa_factor * curvature(*u), **kwargs)

    return mock.patch.object(presets, "_ion_pair", seeded)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
@pytest.mark.parametrize("kappa_factor, spring_factor",
                         [(1.0, 1.0), (1.001, 1.0), (1.0, 1.0 + 1e-9)])
def test_the_ion_pair_checks_reject_a_seeded_curvature_or_spring(
        kind, kappa_factor, spring_factor):
    # The stiffness view's check, and the frame check on that stiffness.
    cfg, t = CONFIGS[kind], 0.375
    with seeded_ion_pair(kappa_factor, spring_factor):
        sys, roots = recorded_build(cfg)
    K, exact = sys.stiffness(t), build_preset(cfg).stiffness(t)
    seeded = (kappa_factor, spring_factor) != (1.0, 1.0)
    got = (K.k, K.k1, K.k2)
    assert rejects(check_ion_pair_view, cfg, "stiffness", t, roots[-1], got) == seeded
    assert rejects(check_frame, _frame(K, cfg.masses), exact, cfg.masses) == seeded
