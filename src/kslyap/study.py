"""L-sweep orchestration, power-law fitting, and the thin-rectangle corollary
calculator. A sweep smooths the potential once and rescales it critically
to each L. Records persist incrementally to CSV so partial sweeps survive
interruption; floats are written with repr for exact round-trips.
"""

import csv
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .attractor import forcing_constant, headline_bound
from .coercivity import certify
from .potential import (
    PiecewiseParams,
    SmoothedPotential,
    SmoothingParams,
    norms,
    scaled_profile,
    smooth,
)
from .solver import SolveConfig, default_grid, default_transient, random_initial, simulate


class ConditionViolatedError(ValueError):
    """Aspect-ratio condition of the thin-rectangle bound does not hold."""


class FitError(ValueError):
    """Power-law fit input invalid (too few points, or values that are not
    finite and positive)."""


@dataclass(frozen=True)
class SweepRecord:
    """One sweep row; error is set (and numeric fields left None) when the
    pipeline failed for this L."""

    L: float
    delta_margin: float | None = None
    lambda_min: float | None = None
    h2_norm: float | None = None
    phi_norm: float | None = None
    M2: float | None = None
    r_star_star: float | None = None
    sim_sup_norm: float | None = None
    certified: bool = False
    error: str | None = None


_CSV_FIELDS = [f.name for f in fields(SweepRecord)]


def _record_to_row(rec: SweepRecord):
    row = []
    for name in _CSV_FIELDS:
        val = getattr(rec, name)
        if val is None:
            row.append("")
        elif isinstance(val, bool):
            row.append("true" if val else "false")
        elif isinstance(val, float):
            row.append(repr(val))
        else:
            row.append(str(val))
    return row


def write_sweep_csv(records, path) -> list:
    """Write the header and then each of ``records`` to path, flushed as it
    comes, so that records computed one by one leave a valid prefix if
    interrupted; return them as a list."""
    written = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        fh.flush()
        for rec in records:
            writer.writerow(_record_to_row(rec))
            fh.flush()
            written.append(rec)
    return written


def read_sweep_csv(path):
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"sweep CSV {path} is empty")
        if header != _CSV_FIELDS:
            raise ValueError(f"unexpected sweep CSV header: {header}")
        for row in reader:
            kw = {}
            for name, cell in zip(_CSV_FIELDS, row):
                if name == "error":
                    kw[name] = cell or None
                elif name == "certified":
                    kw[name] = cell == "true"
                elif cell == "":
                    kw[name] = None
                else:
                    kw[name] = float(cell)
            records.append(SweepRecord(**kw))
    return records


def _error_row(L, exc: Exception) -> SweepRecord:
    return SweepRecord(L=float(L), error=f"{type(exc).__name__}: {exc}")


def _sweep_one(
    L,
    sp: SmoothedPotential,
    run_simulation=False,
    gamma=0.0,
    t_end=None,
    seed=0,
) -> SweepRecord:
    """One sweep row from the sweep's smoothed potential; a failure becomes
    the row's error."""
    try:
        profile = scaled_profile(sp, L)
        report = certify(profile)
        nrm = norms(profile)
        hb = headline_bound(profile, report) if report.certified else None
        sim_sup = None
        if run_simulation and hb is not None:
            N = default_grid(L)
            transient = default_transient(L, N, gamma)
            cfg = SolveConfig(
                gamma=gamma,
                t_end=t_end if t_end is not None else transient + 200.0,
                transient=transient,
                record_every=100,
                odd_only=True,
            )
            traj = simulate(random_initial(L, N, seed=seed, odd_only=True), cfg)
            sim_sup = traj.sup_norm
        return SweepRecord(
            L=float(L),
            delta_margin=report.delta_margin,
            lambda_min=report.lambda_min,
            h2_norm=nrm.h2,
            phi_norm=nrm.phi,
            M2=forcing_constant(profile) if hb is None else hb.M2,
            r_star_star=None if hb is None else hb.r_star_star,
            sim_sup_norm=sim_sup,
            certified=report.certified,
        )
    except Exception as exc:  # noqa: BLE001 - per-L failures become rows
        return _error_row(L, exc)


def sweep(
    L_list,
    csv_path=None,
    params: PiecewiseParams | None = None,
    smoothing: SmoothingParams | None = None,
    run_simulation: bool = False,
    gamma: float = 0.0,
    t_end: float | None = None,
    seed: int = 0,
    workers: int = 1,
):
    """Build, certify, and bound a profile for each L; optionally simulate.

    The smoothed potential does not depend on L: it is computed once per
    call, and every row rescales it critically. Rows are flushed to csv_path
    in input order as soon as available, so an interrupted sweep leaves a
    valid prefix. Per-L failures, scaled_profile's refusal of an L too
    small for the support among them, are recorded in the row's error column
    and do not stop the sweep; a failure to smooth is recorded on every row.

    Rows are computed serially: a thread pool was measured no faster on
    L = 32..1024. ``workers`` stays for callers that pass ``workers=1``.
    """
    if workers != 1:
        raise ValueError(f"sweeps run serially; workers must be 1, got {workers}")
    L_list = list(L_list)
    failure = None
    try:
        sp = smooth(params if params is not None else PiecewiseParams(), smoothing)
    except Exception as exc:  # noqa: BLE001 - written into every row below
        failure = exc

    def rows():
        for L in L_list:
            if failure is not None:
                yield _error_row(L, failure)
            else:
                yield _sweep_one(L, sp, run_simulation, gamma, t_end, seed)

    return list(rows()) if csv_path is None else write_sweep_csv(rows(), csv_path)


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_power_law(pairs) -> PowerLawFit:
    """Least squares of log(value) against log(L); intercept in natural log."""
    pts = [(float(L), float(v)) for L, v in pairs]
    if len(pts) < 3:
        raise FitError("need at least 3 points")
    if not all(0.0 < L < math.inf and 0.0 < v < math.inf for L, v in pts):
        raise FitError("power-law fit requires finite positive L and values")
    logx = np.log([L for L, _ in pts])
    logy = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(logx, logy, 1)
    resid = logy - (slope * logx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return PowerLawFit(slope=float(slope), intercept=float(intercept), r_squared=r2, n_points=len(pts))


class MolinetBound(NamedTuple):
    ly_max: float
    norm_bound: float


def molinet(Lx: float, C: float = 1.0, Ly: float | None = None) -> MolinetBound:
    """Thin-rectangle corollary: admissible strip height Ly_max = C*Lx^{-13/7}
    and the L2 bound C*Lx^{3/2}*Ly^{1/2} at Ly (default: at the threshold)."""
    if not 1.0 < Lx < math.inf:
        raise ValueError(f"Lx must be finite and exceed 1, not {Lx!r}")
    if not 0.0 < C < math.inf:
        raise ValueError(f"C must be finite and positive, not {C!r}")
    ly_max = C * Lx ** (-13.0 / 7.0)
    if Ly is None:
        Ly = ly_max
    elif not 0.0 < Ly < math.inf:
        raise ValueError(f"Ly must be finite and positive, not {Ly!r}")
    elif Ly > ly_max * (1.0 + 1e-12):
        raise ConditionViolatedError(f"Ly = {Ly:g} exceeds the admissible {ly_max:g}")
    return MolinetBound(ly_max=ly_max, norm_bound=C * Lx**1.5 * math.sqrt(Ly))
