"""Command-line surface.

Subcommands: exponents, build-potential, verify, bound, simulate, sweep, fit,
molinet. Every flag has a config-file twin (flat ``key = value`` lines, ``#``
comments, keys named like the flag with underscores); command-line flags win.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .attractor import OddSubspaceError, headline_bound, monitor
from .coercivity import certify
from .exponents import OperatorOrder, classify, solve_critical_exponents
from .potential import PiecewiseParams, SmoothingParams, build_profile, norms, read_profile, write_profile
from .solver import SolveConfig, default_grid, default_transient, random_initial, simulate
from .study import SweepRecord, fit_power_law, molinet, read_sweep_csv, sweep


def load_config(path):
    """Flat key = value lines; # starts a comment; blank lines ignored."""
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key = value: {raw!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _parse_bool(key, text):
    """A config switch: 1/true/yes/on or 0/false/no/off, in any case."""
    value = text.strip().lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"config switch {key} = {text!r} is not one of 1/true/yes/on or 0/false/no/off")
    return value in ("1", "true", "yes", "on")


def _parse_l_list(text):
    return [float(tok) for tok in str(text).replace(",", " ").split()]


def _config_defaults(args, config):
    """The config values that name a flag of the parsed subcommand, as
    defaults for its parser: a switch (a flag whose value is a bool) reads
    its value with ``_parse_bool``, and every other value stays a string,
    which argparse converts with the flag's type."""
    flags = vars(args)
    return {
        key: _parse_bool(key, val) if isinstance(flags[key], bool) else val
        for key, val in config.items()
        if key in flags and key not in ("command", "func")
    }


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key, val in payload.items():
            if isinstance(val, float):
                print(f"{key}: {val:.8g}")
            else:
                print(f"{key}: {val}")


def _potential(args):
    """The step potential and smoothing of the potential flags; no --delta
    means a / 64."""
    params = PiecewiseParams(a=args.a, q0=args.q0, q1=args.q1)
    delta = params.a / 64.0 if args.delta is None else args.delta
    return params, SmoothingParams(delta=delta, mu=args.mu)


def _profile(args):
    """The profile that --profile names, else the one that --L and the
    potential flags build."""
    if getattr(args, "profile", None):
        return read_profile(args.profile)
    if args.L is None:
        raise ValueError("--L (or a profile path) is required")
    params, smoothing = _potential(args)
    return build_profile(args.L, params=params, smoothing=smoothing)


def _cmd_exponents(args, out_dir):
    sol = solve_critical_exponents(args.order)
    pair = sol.pair
    payload = {
        "order": args.order.value,
        "c1": str(pair.c1),
        "c2": str(pair.c2),
        "objective": str(sol.objective),
        "c1_decimal": float(pair.c1),
        "c2_decimal": float(pair.c2),
        "objective_decimal": float(sol.objective),
        "classification": classify(pair).value,
    }
    _emit(payload, args.json)
    return 0


def _cmd_build_potential(args, out_dir):
    if args.L is None:
        raise ValueError("--L is required")
    profile = _profile(args)
    path = out_dir / f"profile_L{args.L:g}.json"
    write_profile(profile, path)
    nrm = norms(profile)
    payload = {
        "meta": str(path),
        "L": args.L,
        "n": profile.n,
        "mean_q": profile.mean_q,
        "phi_norm": nrm.phi,
        "h2_norm": nrm.h2,
    }
    _emit(payload, args.json)
    return 0


def _cmd_verify(args, out_dir):
    profile = _profile(args)
    report = certify(profile)
    payload = {
        "L": profile.L,
        "lambda_min": report.lambda_min,
        "delta_margin": report.delta_margin,
        "N_sequence": list(report.N_sequence),
        "converged": report.converged,
        "certified": report.certified,
    }
    _emit(payload, args.json)
    return 0 if payload["certified"] else 1


def _cmd_bound(args, out_dir):
    profile = _profile(args)
    hb = headline_bound(profile, certify(profile))
    payload = {
        "L": hb.L,
        "lambda": hb.lam,
        "M2": hb.M2,
        "phi_norm": hb.phi_norm,
        "h2_norm": hb.h2_norm,
        "r_star": hb.r_star,
        "r_star_star": hb.r_star_star,
        "r_star_star_scaled": hb.r_scaled,
    }
    _emit(payload, args.json)
    return 0


def _cmd_simulate(args, out_dir):
    L = args.L
    if L is None:
        raise ValueError("--L is required")
    N = args.N or default_grid(L)
    transient = default_transient(L, N, args.gamma) if args.transient is None else args.transient
    cfg = SolveConfig(
        gamma=args.gamma,
        dt=args.dt,
        t_end=transient + 200.0 if args.t_end is None else args.t_end,
        transient=transient,
        record_every=args.record_every,
        odd_only=args.odd,
    )
    constants = None
    if args.check_lyapunov:
        # both refusals come before the run
        if not cfg.odd_only:
            raise OddSubspaceError(
                "--check-lyapunov needs --odd: the coercivity certificate holds on the odd subspace only"
            )
        profile = _profile(args)
        constants = headline_bound(profile, certify(profile)).constants
    initial = random_initial(L, N, seed=args.seed, amplitude=args.amplitude, odd_only=cfg.odd_only)
    traj = simulate(initial, cfg)

    residuals = violations = max_residual = tolerance = None
    if constants is not None:
        mon = monitor(traj, profile, constants)
        residuals = mon.residuals
        violations, max_residual, tolerance = mon.violations, mon.max_residual, mon.tolerance

    csv_path = out_dir / f"simulate_L{L:g}.csv"
    with open(csv_path, "w") as fh:
        fh.write("t,l2,l2_grad,l2_hess,lyapunov_residual\n")
        for i in range(traj.t.size):
            res = ""
            if residuals is not None and 1 <= i < traj.t.size - 1:
                res = repr(float(residuals[i - 1]))
            cells = [repr(float(v)) for v in (traj.t[i], traj.l2[i], traj.l2_grad[i], traj.l2_hess[i])]
            fh.write(",".join(cells) + f",{res}\n")

    payload = {
        "csv": str(csv_path),
        "L": L,
        "N": N,
        "gamma": args.gamma,
        "dt": cfg.dt,
        "t_end": cfg.t_end,
        "transient": traj.transient,
        "sup_norm": traj.sup_norm,
        "violations": violations,
        "max_residual": max_residual,
        "tolerance": tolerance,
    }
    (out_dir / f"simulate_L{L:g}.json").write_text(json.dumps(payload, indent=2) + "\n")
    _emit(payload, args.json)
    return 0


def _cmd_sweep(args, out_dir):
    params, smoothing = _potential(args)
    csv_path = out_dir / "sweep.csv"
    records = sweep(
        args.L_list,
        csv_path=csv_path,
        params=params,
        smoothing=smoothing,
        run_simulation=args.simulate,
        gamma=args.gamma,
        t_end=args.t_end,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps([rec.__dict__ for rec in records], indent=2))
    else:
        print(f"wrote {len(records)} records to {csv_path}")
        for rec in records:
            if rec.error:
                print(f"L = {rec.L:g}: error: {rec.error}")
            else:
                print(
                    f"L = {rec.L:g}: margin = {rec.delta_margin:.6g}, "
                    f"R** = {rec.r_star_star:.6g}, certified = {rec.certified}"
                )
    return 0


_FIT_COLUMNS = [f.name for f in fields(SweepRecord) if f.type == float | None]


def _fit_column(name):
    """A numeric sweep column, checked here for config-file values too:
    argparse applies ``choices``, which the usage line lists, to
    command-line values only."""
    if name not in _FIT_COLUMNS:
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {', '.join(_FIT_COLUMNS)})")
    return name


def _cmd_fit(args, out_dir):
    if args.input is None:
        raise ValueError("--input sweep CSV is required")
    records = read_sweep_csv(args.input)
    pairs = [(rec.L, getattr(rec, args.column)) for rec in records if getattr(rec, args.column) is not None]
    fit = fit_power_law(pairs)
    payload = {
        "column": args.column,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
    }
    _emit(payload, args.json)
    return 0


def _cmd_molinet(args, out_dir):
    if args.Lx is None:
        raise ValueError("--Lx is required")
    bound = molinet(args.Lx, C=args.C, Ly=args.Ly)
    payload = {"Lx": args.Lx, "ly_max": bound.ly_max, "norm_bound": bound.norm_bound}
    _emit(payload, args.json)
    return 0


def _common_flags(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", default=".", help="output directory (default .)")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _potential_flags(sub):
    sub.add_argument("--a", type=float, default=1.0, help="step-potential support half-width")
    sub.add_argument("--q0", type=float, default=0.5, help="well depth")
    sub.add_argument("--q1", type=float, default=2.0, help="barrier height")
    sub.add_argument("--delta", type=float, help="mollification width (default a/64)")
    sub.add_argument("--mu", type=float, default=0.75, help="required magnitude of the negative mean")


def build_parser(**defaults):
    """The kslyap parser; ``defaults`` replace the defaults of the flags
    they name (``main`` passes a config file's values)."""
    parser = argparse.ArgumentParser(prog="kslyap", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("exponents", help="critical scaling exponents (exact rationals)")
    p.add_argument("--order", type=OperatorOrder, default=OperatorOrder.FOURTH, help="operator order: fourth or second")
    _common_flags(p)
    p.set_defaults(func=_cmd_exponents, **defaults)

    p = subs.add_parser("build-potential", help="construct and save a profile")
    p.add_argument("--L", type=float, help="domain half-length")
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_build_potential, **defaults)

    p = subs.add_parser("verify", help="certify coercivity of the form")
    p.add_argument("--L", type=float, help="domain half-length")
    p.add_argument("--profile", help="profile JSON written by build-potential")
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_verify, **defaults)

    p = subs.add_parser("bound", help="attracting-ball radius for a profile")
    p.add_argument("--L", type=float, help="domain half-length")
    p.add_argument("--profile", help="profile JSON written by build-potential")
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_bound, **defaults)

    p = subs.add_parser("simulate", help="integrate the flow and record norms")
    p.add_argument("--L", type=float, help="domain half-length")
    p.add_argument("--gamma", type=float, default=0.0, help="destabilization coefficient")
    p.add_argument("--t-end", type=float, help="integration horizon")
    p.add_argument("--dt", type=float, default=0.05, help="time step")
    p.add_argument("--N", type=int, help="grid size (power of two)")
    p.add_argument("--transient", type=float, help="burn-in excluded from statistics")
    p.add_argument("--record-every", type=int, default=10, help="sampling stride")
    p.add_argument("--amplitude", type=float, default=1.0, help="initial L2 norm")
    p.add_argument("--odd", action="store_true", help="restrict to odd functions")
    p.add_argument("--check-lyapunov", action="store_true", help="monitor the ball inequality (needs --odd)")
    p.add_argument("--seed", type=int, default=0, help="random seed of the initial data")
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_simulate, **defaults)

    p = subs.add_parser("sweep", help="certify and bound across a list of L")
    p.add_argument("--L-list", type=_parse_l_list, default="32,64,128,256,512", help="comma-separated L values")
    p.add_argument("--simulate", action="store_true", help="also run simulations")
    p.add_argument("--gamma", type=float, default=0.0, help="destabilization coefficient")
    p.add_argument("--t-end", type=float, help="integration horizon")
    p.add_argument("--seed", type=int, default=0, help="random seed of the simulations' initial data")
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_sweep, **defaults)

    p = subs.add_parser("fit", help="power-law fit of a sweep CSV column")
    p.add_argument("--input", help="sweep CSV path")
    p.add_argument(
        "--column",
        type=_fit_column,
        default="h2_norm",
        choices=_FIT_COLUMNS,
        help="numeric sweep column to fit against L (default h2_norm)",
    )
    _common_flags(p)
    p.set_defaults(func=_cmd_fit, **defaults)

    p = subs.add_parser("molinet", help="thin-rectangle bound calculator")
    p.add_argument("--Lx", type=float, help="rectangle length (> 1)")
    p.add_argument("--C", type=float, default=1.0, help="constant in the corollary")
    p.add_argument("--Ly", type=float, help="strip height to evaluate at")
    _common_flags(p)
    p.set_defaults(func=_cmd_molinet, **defaults)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # the file's values become the subcommand's defaults, and the
            # second parse converts them; flags on the command line still win
            args = build_parser(**_config_defaults(args, load_config(args.config))).parse_args(argv)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, out_dir)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
