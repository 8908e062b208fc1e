"""Four-amplitude inversion: contrast algebra and recovery."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helmpert import disentangle as dis
from helmpert import fem, forward

from conftest import constant_field, model_datum

QUAD = dis.AmplitudeQuad().as_tuple()


def synthetic_pairs(F, G, a, b, lams=QUAD):
    return [(lam, model_datum(F, G, a, b, lam)) for lam in lams]


# ---------------------------------------------------------------------------
# model pieces


def test_f_contrast_values():
    assert dis.f_contrast(1.0) == 0.0
    assert dis.f_contrast(3.0) == 1.0
    assert dis.f_contrast(0.0) == 1.0
    with pytest.raises(ValueError):
        dis.f_contrast(-1.0)


def test_amplitude_quad_validation():
    assert QUAD == (0.5, 1.5, 2.0, 3.0)
    with pytest.raises(ValueError):
        dis.AmplitudeQuad(lam1=-0.5)
    with pytest.raises(ValueError):
        dis.AmplitudeQuad(lam1=1.5)  # collides with lam2


def test_d_triple_annihilates_affine_data():
    G, b = -2.3, 1.7
    pairs = [(lam, G * (b * lam - 1.0)) for lam in (0.5, 1.5, 2.0)]
    assert abs(dis.d_triple(pairs)) < 1e-12 * abs(G)
    # a repeated sample point contributes nothing beyond its own datum
    assert dis.d_triple([(0.5, 1.0), (1.5, 2.0), (0.5, 1.0)]) == 0.0
    with pytest.raises(ValueError):
        dis.d_triple([(0.5, 1.0), (0.5, 2.0), (1.5, 3.0)])


def test_d_triple_frozen_value():
    # D(lam) = f(2 lam) at (0.5, 1.5, 3): 25/7 - 5/2 = 15/14
    pairs = [(lam, dis.f_contrast(2.0 * lam)) for lam in (0.5, 1.5, 3.0)]
    assert dis.d_triple(pairs) == pytest.approx(15.0 / 14.0, rel=1e-14)


def test_q_rational_zeros_and_symmetry():
    assert dis.q_rational(0.5, 1.5, 2.0, 0.0) == 0.0
    assert dis.q_rational(0.5, 1.5, 0.5, 1.3) == 0.0
    assert dis.q_rational(0.5, 1.5, 1.5, 1.3) == 0.0
    assert dis.q_rational(0.5, 1.5, 2.0, 1.3) == pytest.approx(
        dis.q_rational(1.5, 0.5, 2.0, 1.3), rel=1e-13)


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
       st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_d_factors_as_f_times_q(x1, x2, x3, a, F):
    xs = sorted([x1, x2, x3])
    assume(xs[1] - xs[0] > 0.05 and xs[2] - xs[1] > 0.05)
    x1, x2, x3 = xs
    pairs = [(x, F * dis.f_contrast(a * x)) for x in (x1, x2, x3)]
    got = dis.d_triple(pairs)
    want = F * dis.q_rational(x1, x2, x3, a)
    assert got == pytest.approx(want, rel=1e-8, abs=1e-10 * F)


# ---------------------------------------------------------------------------
# recovery


def test_recover_exact_synthetic_point():
    rec = dis.recover(synthetic_pairs(1.0, -0.5, 2.0, 3.0))
    assert rec.F == pytest.approx(1.0, rel=1e-8)
    assert rec.G == pytest.approx(-0.5, rel=1e-8)
    assert rec.a == pytest.approx(2.0, rel=1e-8)
    assert rec.b == pytest.approx(3.0, rel=1e-8)
    assert rec.residual < 1e-10


def test_recover_affine_fallback_when_gradient_silent():
    G, b = -0.7, 2.2
    pairs = [(lam, G * (b * lam - 1.0)) for lam in QUAD]
    rec = dis.recover(pairs)
    assert rec.F == 0.0
    assert math.isnan(rec.a)
    assert rec.G == pytest.approx(G, rel=1e-12)
    assert rec.b == pytest.approx(b, rel=1e-12)
    assert rec.residual < 1e-12


def test_recover_all_zero_data_is_the_empty_fit():
    # max|D| = 0: the degeneracy test must still take the F = 0 branch
    # instead of dividing d3 by d4 = 0
    rec = dis.recover([(lam, 0.0) for lam in QUAD])
    assert (rec.F, rec.G, rec.residual) == (0.0, 0.0, 0.0)
    assert math.isnan(rec.a) and math.isnan(rec.b)


def test_recover_is_permutation_invariant():
    pairs = synthetic_pairs(2.0, 0.3, 0.7, 1.2)
    rec1 = dis.recover(pairs)
    rec2 = dis.recover(list(reversed(pairs)))
    assert (rec1.F, rec1.G, rec1.a, rec1.b, rec1.residual) == (
        rec2.F, rec2.G, rec2.a, rec2.b, rec2.residual)


def test_recover_raises_no_root_outside_bracket():
    lo, hi = dis.CONTRAST_RANGE
    for a in (0.5 * lo, 5.0 * hi):
        with pytest.raises(dis.NoRoot):
            dis.recover(synthetic_pairs(1.0, -0.5, a, 3.0))
    # d3 = d4 = 1, so r = 1 lies above the largest model ratio
    # c*lam4/lam3 = 0.3 and the closed form gives a = -0.8/1.4 < 0
    with pytest.raises(dis.NoRoot):
        dis.recover([(0.5, 0.0), (1.5, 0.0), (2.0, 1.0), (3.0, 1.0)])


def test_recover_input_validation():
    pairs = synthetic_pairs(1.0, -0.5, 2.0, 3.0)
    with pytest.raises(ValueError):
        dis.recover(pairs[:3])
    with pytest.raises(ValueError):
        dis.recover([pairs[0]] * 2 + pairs[2:])
    with pytest.raises(ValueError):
        dis.recover([(-0.5, 1.0)] + pairs[1:])


def test_recover_randomized_round_trips():
    rng = np.random.default_rng(3)
    for _ in range(20):
        F = 10.0 ** rng.uniform(-2, 2)
        G = (10.0 ** rng.uniform(-2, 2)) * rng.choice([-1.0, 1.0])
        a = rng.uniform(0.2, 5.0)
        b = rng.uniform(0.2, 5.0)
        rec = dis.recover(synthetic_pairs(F, G, a, b))
        worst = max(abs(rec.F - F) / F, abs(rec.G - G) / abs(G),
                    abs(rec.a - a) / a, abs(rec.b - b) / abs(b))
        assert worst < 1e-6


@pytest.mark.parametrize("a", [0.01, 0.1, 10.0, 100.0])
def test_recover_round_trips_wide_contrast(a):
    # the inversion's conditioning grows with a: 8e-7 at a = 100
    F, G, b = 1.3, -0.4, 0.9
    rec = dis.recover(synthetic_pairs(F, G, a, b))
    assert rec.F == pytest.approx(F, rel=1e-5)
    assert rec.G == pytest.approx(G, rel=1e-5)
    assert rec.a == pytest.approx(a, rel=1e-5)
    assert rec.b == pytest.approx(b, rel=1e-5)


def test_recovered_point_validation():
    with pytest.raises(ValueError):
        dis.RecoveredPoint(F=-1.0, G=0.0, a=1.0, b=1.0, residual=0.0)
    with pytest.raises(ValueError):
        dis.RecoveredPoint(F=1.0, G=0.0, a=-2.0, b=1.0, residual=0.0)
    # nan contrast is the documented F = 0 convention
    rec = dis.RecoveredPoint(F=0.0, G=1.0, a=math.nan, b=1.0, residual=0.0)
    assert math.isnan(rec.a)


# ---------------------------------------------------------------------------
# internal-data maps


def test_recover_internal_data_scaling(disk50):
    recs = {5: dis.RecoveredPoint(F=1.0, G=-0.5, a=2.0, b=3.0, residual=0.0),
            17: dis.RecoveredPoint(F=2.0, G=0.0, a=1.5, b=math.nan, residual=0.0)}
    data = dis.recover_internal_data(disk50, recs, k=1.0)
    assert data.J[5] == 1.0 and data.j[5] == 0.5
    assert data.J[17] == 2.0 and data.j[17] == 0.0
    assert data.J[0] == 0.0 and data.j[0] == 0.0
    data2 = dis.recover_internal_data(disk50, recs, k=2.0)
    assert data2.j[5] == 0.125
    with pytest.raises(ValueError):
        dis.recover_internal_data(disk50, recs, k=0.0)
    # positive G would mean negative mass energy, which internal data rejects
    bad = {3: dis.RecoveredPoint(F=0.0, G=0.5, a=math.nan, b=1.0, residual=0.0)}
    with pytest.raises(ValueError):
        dis.recover_internal_data(disk50, bad, k=1.0)


# ---------------------------------------------------------------------------
# end to end against measured probes


@pytest.mark.xfail(strict=True, reason=(
    "measured probe data does not follow the fitted gradient-channel law: the "
    "boundary datum of a finite conductivity inclusion is antisymmetric about "
    "contrast 1 while the model factor (x-1)^2/(x+1) is nonnegative, so the "
    "fit returns a negative gradient energy (or no bracket root) instead of "
    "the interior values"))
def test_measured_probes_round_trip_to_internal_data(disk100):
    gamma = constant_field(disk100, 1.0)
    q = constant_field(disk100, 3.0)
    k = 0.35
    bc = fem.BoundaryCondition("neumann", forward.boundary_phase(disk100, "yx"))
    u = fem.solve_bvp(disk100, gamma, q, k, bc)
    val, grad = forward.sample_field(u, (2.3, 1.1))
    J_true = float(abs(grad[0]) ** 2 + abs(grad[1]) ** 2)
    j_true = 3.0 * abs(val) ** 2
    pairs = []
    for lam in QUAD:
        probe = forward.PerturbationProbe(center=(2.3, 1.1), radius=0.1,
                                          amplitude=lam, gamma_tilde=0.5,
                                          q_tilde=3.0)
        pairs.append((lam, forward.measure_probe(disk100, gamma, q, k, bc, probe).D))
    rec = dis.recover(pairs)
    assert rec.F == pytest.approx(J_true, rel=0.15)
    assert -rec.G / k ** 2 == pytest.approx(j_true, rel=0.15)
