"""Sweep orchestration, CSV persistence, power-law fits, thin-rectangle bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kslyap import study
from kslyap.coercivity import certify
from kslyap.potential import PiecewiseParams, SmoothedPotential, SmoothingParams, build_profile, smooth
from kslyap.solver import simulate as study_simulate
from kslyap.study import (
    ConditionViolatedError,
    FitError,
    MolinetBound,
    PowerLawFit,
    SweepRecord,
    fit_power_law,
    molinet,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)

SWEEP_LS = [8.0, 1.0, 16.0]

# scaled_profile's one domain rule: the support, a + delta = 1 + 1/64 at the
# defaults, must fit in [-L, L] after the rescaling by L^{-1/3}
TOO_SMALL = "DomainTooSmallError: support half-width 1.01562 exceeds domain half-length 1"


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    records = sweep(SWEEP_LS, csv_path=path)
    return records, path


def test_sweep_rows_in_input_order(sweep_out):
    records, _ = sweep_out
    assert [r.L for r in records] == SWEEP_LS
    good = records[0]
    assert good.certified and good.error is None
    assert good.delta_margin > 0 and good.lambda_min > good.delta_margin
    assert good.r_star_star > good.phi_norm > 0
    assert good.M2 > 0 and good.h2_norm > 0
    assert good.sim_sup_norm is None  # no simulation requested
    bad = records[1]
    assert not bad.certified
    assert bad.error == TOO_SMALL
    assert bad.delta_margin is None and bad.r_star_star is None
    assert records[2].certified  # failure in the middle does not stop the sweep


def test_sweep_margins_pinned():
    # margins from transforms padded to 5-smooth lengths; the padding
    # length may move them by rounding only
    recorded = {32.0: 69.64420135006127, 64.0: 69.64080783266311}
    for rec in sweep(list(recorded)):
        assert abs(rec.delta_margin - recorded[rec.L]) <= 1e-12 * recorded[rec.L]


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_sweep_smooths_once(monkeypatch):
    # every row rescales one smoothed potential
    counts = _count_calls(monkeypatch, study, ["smooth"])
    records = sweep([32.0, 64.0, 128.0], workers=1)
    assert counts == {"smooth": 1}
    for rec in records:
        assert repr(rec.delta_margin) == repr(certify(build_profile(rec.L)).delta_margin)


def test_sweep_after_smooth_runs_no_quadrature(monkeypatch):
    # the sweep's potential is the one smooth already returned, integrals
    # and all
    sp = smooth(PiecewiseParams())
    counts = _count_calls(monkeypatch, SmoothedPotential, ["_norm_integrals_half"])
    records = sweep([32.0, 64.0], workers=1)
    assert counts == {"_norm_integrals_half": 0}
    assert all(rec.certified for rec in records)
    assert smooth(PiecewiseParams()) is sp


def test_sweep_reports_failed_smoothing_on_every_row():
    bad = SmoothingParams(delta=0.5, mu=0.75)  # smooth needs delta < a/4
    with pytest.raises(ValueError) as exc:
        smooth(PiecewiseParams(), bad)
    expected = f"ValueError: {exc.value}"
    records = sweep([32.0, 1.0, 64.0], smoothing=bad)
    assert [r.error for r in records] == [expected] * 3
    assert not any(r.certified or r.delta_margin is not None for r in records)


def test_sweep_certifies_below_eight():
    # sweep applies scaled_profile's domain rule and no other: the rows at
    # L = 2, 4 and 6 are the certificates that verify prints
    for rec in sweep([2.0, 4.0, 6.0]):
        assert rec.certified and rec.error is None
        assert repr(rec.delta_margin) == repr(certify(build_profile(rec.L)).delta_margin)


def test_sweep_csv_round_trip(sweep_out):
    records, path = sweep_out
    assert read_sweep_csv(path) == records


def test_round_trip_preserves_every_field(tmp_path):
    records = [
        SweepRecord(
            L=32.0,
            delta_margin=69.64420135006026,
            lambda_min=69.97744573007638,
            h2_norm=1.5e7,
            phi_norm=10377.901363672947,
            M2=2.433480578641536e18,
            r_star_star=264364726.89598617,
            sim_sup_norm=151.25,
            certified=True,
        ),
        SweepRecord(L=1.0, error=TOO_SMALL),
        SweepRecord(L=64.0, delta_margin=-0.5, certified=False),
    ]
    path = tmp_path / "rt.csv"
    write_sweep_csv(records, path)
    assert read_sweep_csv(path) == records


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("L,margin\n8.0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_sweep_csv(path)


@pytest.mark.parametrize("edit", [lambda c: c[:3], lambda c: c[:-1], lambda c: c + ["1.0"]], ids=["3", "short", "long"])
def test_read_refuses_a_row_whose_cells_miss_the_header(sweep_out, tmp_path, edit):
    # a row cut to its first 3 cells read back as certified=False,
    # error=None with every norm None, and fit used it
    lines = sweep_out[1].read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    path = tmp_path / "cut.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 3 has \d+ cells, not the header's \d+$"):
        read_sweep_csv(path)


def test_sweep_empty_list(tmp_path):
    path = tmp_path / "empty.csv"
    assert sweep([], csv_path=path) == []
    assert path.read_text().strip().count("\n") == 0  # header only


def test_sweep_runs_serially():
    with pytest.raises(ValueError, match="workers"):
        sweep([32.0], workers=2)


def test_fit_exact_power_law():
    fit = fit_power_law([(L, L**1.5) for L in (8.0, 16.0, 32.0, 64.0, 128.0)])
    assert np.isclose(fit.slope, 1.5, rtol=1e-12)
    assert abs(fit.intercept) < 1e-12
    assert fit.r_squared == 1.0
    assert fit.n_points == 5


def test_fit_recovers_prefactor():
    fit = fit_power_law([(L, 7.0 * L ** (7.0 / 6.0)) for L in (10.0, 20.0, 40.0, 80.0)])
    assert np.isclose(fit.slope, 7.0 / 6.0, rtol=1e-10)
    assert np.isclose(fit.intercept, math.log(7.0), rtol=1e-10)


def test_fit_reports_scatter():
    rng = np.random.default_rng(3)
    pairs = [(L, L**2 * math.exp(rng.normal(0.0, 0.1))) for L in np.geomspace(4.0, 256.0, 12)]
    fit = fit_power_law(pairs)
    assert 0.0 < fit.r_squared < 1.0
    assert abs(fit.slope - 2.0) < 0.2


def test_fit_validation():
    with pytest.raises(FitError):
        fit_power_law([(8.0, 1.0), (16.0, 2.0)])
    with pytest.raises(FitError):
        fit_power_law([(8.0, 1.0), (16.0, 0.0), (32.0, 2.0)])
    with pytest.raises(FitError):
        fit_power_law([(-8.0, 1.0), (16.0, 1.0), (32.0, 2.0)])


def test_molinet_threshold_values():
    m = molinet(100.0)
    assert isinstance(m, MolinetBound)
    assert np.isclose(m.ly_max, 100.0 ** (-13.0 / 7.0), rtol=1e-12)
    # at the threshold height the bound collapses to C * Lx^{4/7}
    assert np.isclose(m.norm_bound, 100.0 ** (4.0 / 7.0), rtol=1e-12)
    m = molinet(100.0, Ly=1e-4)
    assert np.isclose(m.norm_bound, 10.0, rtol=1e-6)
    assert np.isclose(molinet(100.0, C=2.0).ly_max, 2.0 * 100.0 ** (-13.0 / 7.0), rtol=1e-12)


def test_molinet_condition_enforced():
    ly_max = molinet(50.0).ly_max
    molinet(50.0, Ly=ly_max)  # boundary admissible
    with pytest.raises(ConditionViolatedError):
        molinet(50.0, Ly=ly_max * (1.0 + 1e-9))
    with pytest.raises(ValueError):
        molinet(50.0, Ly=-1.0)
    with pytest.raises(ValueError):
        molinet(1.0)
    with pytest.raises(ValueError):
        molinet(0.5)
    with pytest.raises(ValueError):
        molinet(50.0, C=0.0)


@pytest.mark.parametrize("field", ["Lx", "C", "Ly"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_molinet_rejects_non_finite(field, value):
    # an infinite Lx or C, or a NaN Ly, gave a bound of nan or inf
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        molinet(**{"Lx": 100.0, field: value})


def test_molinet_exponent_beats_steeper_reference():
    # the admissible height decays like Lx^{-13/7}, slower than Lx^{-67/35}
    assert Fraction(-13, 7) > Fraction(-67, 35)
    assert molinet(1e6).ly_max > 1e6 ** (-67.0 / 35.0)


def test_sweep_simulates_on_the_odd_subspace(monkeypatch):
    # the certificate behind R** holds on odd functions only, so the row's
    # run must stay on them: the general kernel drifts off (max |Re u_hat|
    # reached 5e-3 by t = 400 at L = 16 pi)
    runs = []

    def recorded(initial, cfg):
        runs.append(study_simulate(initial, cfg))
        return runs[-1]

    monkeypatch.setattr(study, "simulate", recorded)
    (row,) = sweep([16.0], run_simulation=True)
    (traj,) = runs
    assert traj.config.odd_only and traj.N == 64
    assert np.max(np.abs(traj.half.real)) == 0.0
    assert row.certified and row.sim_sup_norm == traj.sup_norm <= row.r_star_star


def test_uncertified_row_keeps_M2_and_has_no_ball(monkeypatch):
    """A positive margin from a ladder that did not converge is not a
    certificate: the row keeps the margin and M^2 but gets no R** and runs
    no simulation."""
    from kslyap.attractor import forcing_constant
    from kslyap.coercivity import CoercivityReport

    def unconverged(profile):
        return CoercivityReport(lambda_min=2.0, delta_margin=1.0, N_sequence=(64, 128), converged=False)

    def no_simulation(*args, **kwargs):
        raise AssertionError("an uncertified row must not simulate")

    monkeypatch.setattr(study, "certify", unconverged)
    monkeypatch.setattr(study, "simulate", no_simulation)
    (row,) = sweep([16.0], run_simulation=True)
    assert row.error is None and not row.certified
    assert row.delta_margin == 1.0 and row.r_star_star is None and row.sim_sup_norm is None
    assert row.M2 == forcing_constant(build_profile(16.0))
