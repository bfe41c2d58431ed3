"""The benchmark workloads.

Each workload has three parts:

- ``setup(seed)`` builds what a user has before the measured work starts
  (exponents, smoothed potential, profiles, certificates). It is timed as
  ``setup_s``.
- ``execute(ctx)`` is the timed section (``wall_s``). It calls the library
  through module attributes (``potential.build_profile``), so the traced run
  can wrap them. A failing operation is recorded, not raised.
- ``check(ctx, out)`` compares the outputs with ``references.json``, outside
  the timed section, and counts attempted and failed operations.

Operations are a sweep row, a trajectory with its monitor check, and a
ladder level. A setup output that misses its reference makes the run
incorrect without being an operation.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from kslyap import attractor, coercivity, exponents, potential, solver, study

REFERENCES = json.loads(Path(__file__).with_name("references.json").read_text())
MARGIN_ATOL = REFERENCES["margin_atol"]

SWEEP_LS = (32.0, 64.0, 128.0, 256.0, 512.0)

# criterion-6 shape with a shortened horizon: 400 steps per trajectory, so a
# run holds many timed sections
ENSEMBLE_LS = {"16pi": 16.0 * math.pi, "32pi": 32.0 * math.pi}
ENSEMBLE_GAMMAS = (0.0, 0.1)
ENSEMBLE_T_END = 20.0
ENSEMBLE_TRANSIENT = 10.0
ENSEMBLE_RECORD_EVERY = 20

LADDER_L = 128.0
LADDER_NS = (64, 128, 256, 512, 1024, 2048)


@dataclass
class Outcome:
    """Checked result of one timed section, or the running total of a run."""

    attempted: int = 0
    failed: int = 0
    traj_steps: int = 0
    failures: list = field(default_factory=list)
    health: dict = field(default_factory=dict)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def worst(self, key: str, value: float):
        self.health[key] = max(self.health.get(key, -math.inf), value)

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.traj_steps += other.traj_steps
        self.failures.extend(other.failures)
        for key, value in other.health.items():
            self.worst(key, value)


def _margin_ok(value, ref) -> bool:
    return value is not None and abs(value - ref) <= MARGIN_ATOL


def _critical_pair():
    return exponents.solve_critical_exponents(exponents.OperatorOrder.FOURTH).pair


def reset_caches():
    """Empty module-global caches before a timed section.

    The ETDRK4 coefficient cache outlives the calls that fill it; clearing
    it charges the coefficients to every timed section, as a fresh run of
    the ensemble pays them."""
    cache = getattr(solver, "_COEFF_CACHE", None)
    if cache is not None:
        cache.clear()


@dataclass
class Certified:
    """A profile with its certificate and the constants the monitor needs."""

    L: float
    profile: object
    delta_margin: float
    r_star_star: float
    constants: object


def _certified(L, pair) -> Certified:
    profile = potential.build_profile(L, pair=pair)
    report = coercivity.certify(profile)
    nrm = potential.norms(profile)
    M2 = attractor.forcing_constant(profile)
    r_ss = attractor.radius(nrm.phi, M2, report.delta_margin).r_star_star
    constants = attractor.LyapunovConstants(lam=report.delta_margin, M2=M2)
    return Certified(L, profile, report.delta_margin, r_ss, constants)


def _in_ball(out: Outcome, traj, rep, cert: Certified) -> bool:
    """sup|u| <= R** with no monitor violations; records the slack ratios."""
    out.worst("attractor.ball_ratio", traj.sup_norm / cert.r_star_star)
    out.worst("attractor.residual_slack", rep.max_residual / cert.constants.M2)
    return math.isfinite(traj.sup_norm) and traj.sup_norm <= cert.r_star_star and rep.violations == 0


def _ball_note(traj, rep, cert: Certified) -> str:
    return f"sup {traj.sup_norm:.6g} vs R** {cert.r_star_star:.6g}, {rep.violations} monitor violations"


# ---------------------------------------------------------------- sweep


@dataclass
class SweepCtx:
    csv_path: Path
    setup_failures: list = field(default_factory=list)


def setup_sweep(seed, out_dir: Path) -> SweepCtx:
    _critical_pair()
    potential.smooth(potential.PiecewiseParams())
    return SweepCtx(csv_path=out_dir / "sweep.csv")


def execute_sweep(ctx: SweepCtx):
    return study.sweep(list(SWEEP_LS), csv_path=ctx.csv_path, workers=1)


def check_sweep(ctx: SweepCtx, records) -> Outcome:
    out = Outcome()
    refs = REFERENCES["sweep_delta_margin"]
    by_L = {rec.L: rec for rec in records}
    csv_rows = study.read_sweep_csv(ctx.csv_path)
    for L in SWEEP_LS:
        rec = by_L.get(L)
        ok = (
            rec is not None
            and rec.error is None
            and rec.certified
            and _margin_ok(rec.delta_margin, refs[f"{L:g}"])
            and rec in csv_rows
        )
        out.op(ok, f"sweep L={L:g}: {rec}")
    return out


# ------------------------------------------------------------- ensemble


@dataclass
class EnsembleCtx:
    grids: dict  # label -> (Certified, N)
    seeds: tuple
    setup_failures: list = field(default_factory=list)


def setup_ensemble(seed, out_dir: Path) -> EnsembleCtx:
    pair = _critical_pair()
    grids, failures = {}, []
    for label, L in ENSEMBLE_LS.items():
        cert = _certified(L, pair)
        if not _margin_ok(cert.delta_margin, REFERENCES["ensemble_delta_margin"][label]):
            failures.append(f"ensemble L={label}: delta_margin {cert.delta_margin!r}")
        grids[label] = (cert, solver.default_grid(L))
    return EnsembleCtx(grids=grids, seeds=tuple(3 * seed + k for k in range(3)), setup_failures=failures)


def execute_ensemble(ctx: EnsembleCtx):
    results = []
    for label, (cert, N) in ctx.grids.items():
        for gamma in ENSEMBLE_GAMMAS:
            cfg = solver.SolveConfig(
                gamma=gamma,
                t_end=ENSEMBLE_T_END,
                transient=ENSEMBLE_TRANSIENT,
                record_every=ENSEMBLE_RECORD_EVERY,
                odd_only=True,
            )
            for s in ctx.seeds:
                key = (label, gamma, s)
                try:
                    traj = solver.simulate(solver.random_initial(cert.L, N, seed=s, odd_only=True), cfg)
                    rep = attractor.monitor(traj, cert.profile, cert.constants)
                except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                    results.append((key, cfg, None, f"{type(exc).__name__}: {exc}"))
                else:
                    results.append((key, cfg, traj, rep))
    return results


def check_ensemble(ctx: EnsembleCtx, results) -> Outcome:
    out = Outcome()
    for (label, gamma, s), cfg, traj, rep in results:
        what = f"ensemble L={label} gamma={gamma:g} seed={s}"
        if traj is None:
            out.op(False, f"{what}: {rep}")
            continue
        cert = ctx.grids[label][0]
        out.op(_in_ball(out, traj, rep, cert), f"{what}: {_ball_note(traj, rep, cert)}")
        out.traj_steps += int(round(cfg.t_end / cfg.dt))
    return out


# --------------------------------------------------------------- ladder


@dataclass
class LadderCtx:
    profile: object
    setup_failures: list = field(default_factory=list)


def setup_ladder(seed, out_dir: Path) -> LadderCtx:
    profile = potential.build_profile(LADDER_L, pair=_critical_pair())
    # the first assembly on a profile pays one large rfft; users of the
    # ladder pay it once per profile, so it is charged to setup
    getattr(profile, "phi_x_rfft", None)
    return LadderCtx(profile=profile)


def execute_ladder(ctx: LadderCtx):
    results = {}
    for N in LADDER_NS:
        try:
            results[N] = coercivity.min_eigenvalue(coercivity.assemble(ctx.profile, N))
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            results[N] = f"{type(exc).__name__}: {exc}"
    return results


def check_ladder(ctx: LadderCtx, results) -> Outcome:
    out = Outcome()
    refs = REFERENCES["ladder_lambda_min"]
    for N in LADDER_NS:
        lam = results.get(N)
        ok = isinstance(lam, float) and _margin_ok(lam, refs[str(N)])
        out.op(ok, f"ladder N={N}: lambda_min {lam!r}")
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    execute: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", setup_sweep, execute_sweep, check_sweep),
        Workload("ensemble", setup_ensemble, execute_ensemble, check_ensemble),
        Workload("ladder", setup_ladder, execute_ladder, check_ladder),
    )
}
