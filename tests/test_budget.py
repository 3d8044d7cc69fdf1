"""Round-trip loss decomposition: inversion, branches, and consistency guards."""

import math

import pytest

from fibercav.budget import (
    LossBudget,
    budget,
    finesse_from_loss,
    loss_from_finesse,
    mirror_transmittance_from_reflectance,
)
from fibercav.errors import (
    DomainError,
    MeasurementInconsistencyError,
    SingularCavityError,
)
from fibercav.quantity import Quantity

# Frozen: finesse for an intrinsic loss of 0.31% per round trip.
FINESSE_INT_0031 = 2026.833970057931

# Reference budget: T1 = T2 = 0.0867e-2, alpha_int = 0.31e-2.
T_MIRROR = 0.000867
ALPHA_INT = 0.0031
ALPHA_TOT = 2 * T_MIRROR + ALPHA_INT
R_RESONANT = (1.0 - 2.0 * T_MIRROR / ALPHA_TOT) ** 2


class TestLossFinesseInversion:
    def test_frozen_intrinsic_finesse(self):
        fin = finesse_from_loss(Quantity(ALPHA_INT))
        assert fin.value == pytest.approx(FINESSE_INT_0031, rel=1e-12)

    def test_round_trip(self):
        fin = Quantity(1300.0, 40.0)
        back = finesse_from_loss(loss_from_finesse(fin))
        assert back.value == pytest.approx(fin.value, rel=1e-14)
        assert back.sigma == pytest.approx(fin.sigma, rel=1e-12)

    def test_sigma_first_order(self):
        loss = loss_from_finesse(Quantity(2000.0, 100.0))
        assert loss.value == pytest.approx(2.0 * math.pi / 2000.0, rel=1e-14)
        assert loss.sigma == pytest.approx(2.0 * math.pi * 100.0 / 2000.0**2, rel=1e-14)

    def test_guards(self):
        with pytest.raises(DomainError):
            loss_from_finesse(Quantity(0.0))
        with pytest.raises(SingularCavityError):
            finesse_from_loss(Quantity(0.0))


class TestMirrorTransmittance:
    def test_undercoupled_branch(self):
        alpha = Quantity(0.01)
        t = mirror_transmittance_from_reflectance(alpha, Quantity(0.36), "under")
        assert t.value == pytest.approx(0.005 * (1.0 - 0.6), rel=1e-14)

    def test_overcoupled_branch(self):
        alpha = Quantity(0.01)
        t = mirror_transmittance_from_reflectance(alpha, Quantity(0.36), "over")
        assert t.value == pytest.approx(0.005 * (1.0 + 0.6), rel=1e-14)

    def test_impedance_matched(self):
        alpha = Quantity(0.01)
        for regime in ("under", "over"):
            t = mirror_transmittance_from_reflectance(alpha, Quantity(0.0), regime)
            assert t.value == pytest.approx(0.005, rel=1e-14)

    def test_sigma_quadrature(self):
        alpha = Quantity(0.01, 1e-4)
        refl = Quantity(0.36, 0.02)
        t = mirror_transmittance_from_reflectance(alpha, refl, "under")
        d_alpha = 0.5 * (1.0 - 0.6) * 1e-4
        d_refl = 0.25 * 0.01 / 0.6 * 0.02
        assert t.sigma == pytest.approx(math.hypot(d_alpha, d_refl), rel=1e-12)

    def test_reflectance_above_one_clamped_within_three_sigma(self):
        alpha = Quantity(0.01)
        t = mirror_transmittance_from_reflectance(alpha, Quantity(1.02, 0.01), "under")
        assert t.value == 0.0

    def test_reflectance_above_one_rejected_beyond_three_sigma(self):
        alpha = Quantity(0.01)
        with pytest.raises(MeasurementInconsistencyError):
            mirror_transmittance_from_reflectance(alpha, Quantity(1.05, 0.01), "under")

    def test_guards(self):
        with pytest.raises(DomainError):
            mirror_transmittance_from_reflectance(Quantity(0.01), Quantity(0.3), "sideways")
        with pytest.raises(DomainError):
            mirror_transmittance_from_reflectance(Quantity(0.01), Quantity(-0.1))


class TestBudget:
    def test_recovers_reference_channels_exactly(self):
        fin = Quantity(2.0 * math.pi / ALPHA_TOT)
        result = budget(fin, Quantity(R_RESONANT), Quantity(R_RESONANT))
        assert result.t1.value == pytest.approx(T_MIRROR, rel=1e-12)
        assert result.t2.value == pytest.approx(T_MIRROR, rel=1e-12)
        assert result.alpha_int.value == pytest.approx(ALPHA_INT, rel=1e-12)
        assert result.alpha_tot.value == pytest.approx(ALPHA_TOT, rel=1e-12)
        assert result.finesse_int is not None
        assert result.finesse_int.value == pytest.approx(FINESSE_INT_0031, rel=1e-10)
        assert result.diagnostics == ()

    def test_budget_closes_by_construction(self):
        result = budget(Quantity(1300.0, 30.0), Quantity(0.4, 0.02), Quantity(0.5, 0.02))
        total = result.t1.value + result.t2.value + result.alpha_int.value
        assert total == result.alpha_tot.value
        assert result.finesse_tot.value * result.alpha_tot.value == pytest.approx(
            2.0 * math.pi, rel=1e-14
        )

    def test_asymmetric_mirrors(self):
        t1, t2, a_int = 0.002, 0.0005, 0.0015
        alpha = t1 + t2 + a_int
        r1 = (1.0 - 2.0 * t1 / alpha) ** 2
        r2 = (1.0 - 2.0 * t2 / alpha) ** 2
        result = budget(Quantity(2.0 * math.pi / alpha), Quantity(r1), Quantity(r2))
        assert result.t1.value == pytest.approx(t1, rel=1e-12)
        assert result.t2.value == pytest.approx(t2, rel=1e-12)
        assert result.alpha_int.value == pytest.approx(a_int, rel=1e-12)

    def test_overcoupled_branch_recovery(self):
        # one mirror takes 80% of the loss: R puts it on the overcoupled branch
        t1, t2, a_int = 0.008, 0.0005, 0.0015
        alpha = t1 + t2 + a_int
        r1 = (2.0 * t1 / alpha - 1.0) ** 2
        r2 = (1.0 - 2.0 * t2 / alpha) ** 2
        result = budget(
            Quantity(2.0 * math.pi / alpha), Quantity(r1), Quantity(r2),
            regime_1="over",
        )
        assert result.t1.value == pytest.approx(t1, rel=1e-12)
        assert result.alpha_int.value == pytest.approx(a_int, rel=1e-12)
        assert result.regime_1 == "over"

    def test_wrong_branch_is_detected(self):
        # truly undercoupled mirrors declared overcoupled: channels overflow
        t, a_int = 0.0009, 0.0031
        alpha = 2 * t + a_int
        r = (1.0 - 2.0 * t / alpha) ** 2
        with pytest.raises(MeasurementInconsistencyError):
            budget(
                Quantity(2.0 * math.pi / alpha), Quantity(r), Quantity(r),
                regime_1="over", regime_2="over",
            )

    def test_small_negative_residual_clamps_with_diagnostic(self):
        alpha = 0.005
        fin = Quantity(2.0 * math.pi / alpha)
        result = budget(fin, Quantity(1e-6, 0.01), Quantity(0.0), regime_1="over")
        assert result.alpha_int.value == 0.0
        assert result.finesse_int is None
        assert any("clamped" in line for line in result.diagnostics)
        assert "lossless" in result.diagnostics

    def test_exactly_matched_mirrors_are_lossless(self):
        alpha = 0.004
        result = budget(Quantity(2.0 * math.pi / alpha), Quantity(0.0), Quantity(0.0))
        assert result.alpha_int.value == 0.0
        assert result.finesse_int is None
        assert "lossless" in result.diagnostics

    def test_alpha_int_sigma_quadrature(self):
        fin = Quantity(1300.0, 26.0)
        r1 = Quantity(0.41, 0.02)
        r2 = Quantity(0.36, 0.01)
        result = budget(fin, r1, r2)
        alpha = 2.0 * math.pi / 1300.0
        d_f = result.alpha_int.value * 26.0 / 1300.0
        d_r1 = 0.25 * alpha / math.sqrt(0.41) * 0.02
        d_r2 = 0.25 * alpha / math.sqrt(0.36) * 0.01
        expected = math.sqrt(d_f**2 + d_r1**2 + d_r2**2)
        assert result.alpha_int.sigma == pytest.approx(expected, rel=1e-12)

    def test_dict_round_trip(self):
        result = budget(Quantity(1300.0, 26.0), Quantity(0.41, 0.02), Quantity(0.36, 0.01))
        assert LossBudget.from_dict(result.as_dict()) == result

    def test_post_init_guards(self):
        good = budget(Quantity(1300.0), Quantity(0.4), Quantity(0.4))
        with pytest.raises(DomainError):
            LossBudget(
                alpha_tot=good.alpha_tot,
                t1=good.t1,
                t2=good.t2,
                alpha_int=Quantity(good.alpha_int.value + 1e-3),
                finesse_tot=good.finesse_tot,
                finesse_int=good.finesse_int,
            )
        with pytest.raises(DomainError):
            LossBudget(
                alpha_tot=good.alpha_tot,
                t1=good.t1,
                t2=good.t2,
                alpha_int=good.alpha_int,
                finesse_tot=Quantity(good.finesse_tot.value * 1.01),
                finesse_int=good.finesse_int,
            )
