import numpy as np
import pytest

from dnmodes.presets import CustomConfig, build_custom
from dnmodes.quadratic import MassPair, PhasePoint, StiffnessTriple
from dnmodes.errors import ConfigError, PresetDomainError

from oracles import grad4


def make_static(k, k1, k2, masses=(1.0, 1.0), q_eq=(0.0, 0.0)):
    return build_custom(
        CustomConfig(k=k, k1=k1, k2=k2, masses=masses, q1_eq=q_eq[0], q2_eq=q_eq[1])
    )


def test_mass_pair_validation():
    with pytest.raises(ConfigError):
        MassPair(0.0, 1.0)
    with pytest.raises(ConfigError):
        MassPair(1.0, float("nan"))


@pytest.mark.parametrize("name", ["k", "k1", "k2"])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_stiffness_triple_names_the_non_finite_entry(name, bad):
    entries = {"k": 1.0, "k1": 2.0, "k2": 3.0, name: bad}
    # Configs are checked finite first, so this is an overflow in a preset.
    with pytest.raises(PresetDomainError, match=f"^stiffness {name} must be finite, got {bad}$"):
        StiffnessTriple(**entries)


def test_stiffness_matrix_assembly():
    assert np.array_equal(
        StiffnessTriple(1.0, 1.0, 1.0).matrix(), np.array([[2.0, -1.0], [-1.0, 2.0]])
    )
    assert np.array_equal(
        StiffnessTriple(0.0, 3.0, 4.0).matrix(), np.diag([3.0, 4.0])
    )


def test_stiffness_matrix_exactly_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        K = np.array(StiffnessTriple(*rng.uniform(-5, 5, size=3)).matrix())
        assert K[0, 1] == K[1, 0]


def test_hamiltonian_values():
    sys = make_static(1.0, 1.0, 1.0)
    at_eq = PhasePoint(0.0, (0.0, 0.0), (0.0, 0.0))
    assert sys.hamiltonian_value(at_eq) == 0.0
    # 0.5 * (1,0) K (1,0)^T with K = [[2,-1],[-1,2]]
    assert sys.hamiltonian_value(PhasePoint(0.0, (1.0, 0.0), (0.0, 0.0))) == 1.0
    kinetic = make_static(1.0, 1.0, 1.0, masses=(1.0, 4.0))
    assert kinetic.hamiltonian_value(PhasePoint(0.0, (0.0, 0.0), (1.0, 2.0))) == 1.0


def test_hamiltonian_overflows_to_inf_in_either_term():
    sys = make_static(1.0, 1.0, 1.0)
    assert sys.hamiltonian_value(PhasePoint(0.0, (1e200, 0.0), (0.0, 0.0))) == float("inf")
    assert sys.hamiltonian_value(PhasePoint(0.0, (0.0, 0.0), (1e200, 0.0))) == float("inf")


def test_force_values():
    sys = make_static(1.0, 1.0, 1.0)
    assert sys.force_at(PhasePoint(0.0, (0.0, 0.0), (0.0, 0.0))) == (0.0, 0.0)
    assert sys.force_at(PhasePoint(0.0, (1.0, 0.0), (0.0, 0.0))) == (-2.0, 1.0)
    diag = make_static(0.0, 3.0, 5.0)
    assert diag.force_at(PhasePoint(0.0, (2.0, -1.0), (0.0, 0.0))) == (-6.0, 5.0)


def test_force_is_minus_potential_gradient():
    rng = np.random.default_rng(11)
    for _ in range(30):
        sys = make_static(*rng.uniform(-5, 5, size=3), masses=tuple(rng.uniform(0.1, 10, size=2)))
        q = rng.uniform(-2, 2, size=2)

        def pot(x):
            return sys.hamiltonian_value(PhasePoint(0.0, tuple(x), (0.0, 0.0)))

        f = np.array(sys.force_at(PhasePoint(0.0, tuple(q), (0.0, 0.0))))
        g = grad4(pot, q)
        scale = max(1.0, np.abs(f).max())
        assert np.abs(f + g).max() <= 1e-8 * scale


def test_nonnegative_for_nonnegative_stiffness():
    rng = np.random.default_rng(13)
    for _ in range(200):
        sys = make_static(*rng.uniform(0, 5, size=3), masses=tuple(rng.uniform(0.1, 10, size=2)))
        x = PhasePoint(0.0, tuple(rng.uniform(-3, 3, 2)), tuple(rng.uniform(-3, 3, 2)))
        assert sys.hamiltonian_value(x) >= 0.0


def test_equilibrium_velocity_fd_consistency():
    # quadratic equilibrium trajectory exercises the analytic/FD agreement
    cfg = CustomConfig(
        k=1.0, k1=2.0, k2=2.0,
        q1_eq={"kind": "polynomial", "coeffs": [0.0, 0.5, 0.25]},
        q2_eq={"kind": "polynomial", "coeffs": [1.0, -0.3, 0.0]},
    )
    sys = build_custom(cfg)
    for t in [0.0, 0.7, 2.0]:
        v = sys.equilibrium_velocity_at(t)
        h = 1e-5
        a = sys.equilibrium(t + h)
        b = sys.equilibrium(t - h)
        fd = ((a[0] - b[0]) / (2 * h), (a[1] - b[1]) / (2 * h))
        assert v == pytest.approx(fd, abs=1e-8)


def test_frame_guards():
    sys = make_static(1.0, 1.0, 1.0)
    mode_point = PhasePoint(0.0, (0.0, 0.0), (0.0, 0.0), frame="mode")
    with pytest.raises(ConfigError):
        sys.hamiltonian_value(mode_point)
    with pytest.raises(ConfigError):
        sys.force_at(mode_point)
