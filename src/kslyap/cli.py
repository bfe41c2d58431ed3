"""Command-line surface.

Subcommands: exponents, build-potential, verify, bound, simulate, sweep, fit,
molinet. Every flag has a config-file twin (flat ``key = value`` lines, ``#``
comments, keys named like the flag with underscores); command-line flags win.
"""

import argparse
import json
import sys
from pathlib import Path

from .attractor import LyapunovConstants, OddSubspaceError, forcing_constant, headline_bound, monitor
from .coercivity import certify
from .exponents import OperatorOrder, classify, solve_critical_exponents
from .potential import (
    PiecewiseParams,
    SmoothingParams,
    build_profile,
    norms,
    read_profile,
    write_profile,
)
from .solver import SolveConfig, default_grid, default_transient, random_initial, simulate
from .study import fit_power_law, molinet, read_sweep_csv, sweep


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


def _parse_bool(text):
    return str(text).strip().lower() in ("1", "true", "yes", "on")


def _parse_l_list(text):
    return [float(tok) for tok in str(text).replace(",", " ").split()]


def _make_getter(args, config):
    def get(key, fallback=None, conv=None):
        val = getattr(args, key, None)
        if val is not None:
            return val
        raw = config.get(key)
        if raw is None:
            return fallback
        if conv is not None:
            return conv(raw)
        if isinstance(fallback, bool):
            return _parse_bool(raw)
        if fallback is not None:
            return type(fallback)(raw)
        return raw

    return get


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key, val in payload.items():
            if isinstance(val, float):
                print(f"{key}: {val:.8g}")
            else:
                print(f"{key}: {val}")


def _order_from(get):
    name = get("order", "fourth")
    try:
        return OperatorOrder(name)
    except ValueError:
        raise ValueError(f"unknown order {name!r}; use fourth or second") from None


def _piecewise_from(get):
    return PiecewiseParams(a=get("a", 1.0), q0=get("q0", 0.5), q1=get("q1", 2.0))


def _smoothing_from(get, params):
    delta = get("delta", params.a / 64.0)
    mu = get("mu", 0.75)
    return SmoothingParams(delta=delta, mu=mu)


def _cmd_exponents(args, get, out_dir):
    order = _order_from(get)
    sol = solve_critical_exponents(order)
    pair = sol.pair
    payload = {
        "order": order.value,
        "c1": str(pair.c1),
        "c2": str(pair.c2),
        "objective": str(sol.objective),
        "c1_decimal": float(pair.c1),
        "c2_decimal": float(pair.c2),
        "objective_decimal": float(sol.objective),
        "classification": classify(pair).value,
    }
    _emit(payload, get("json", False))
    return 0


def _load_or_build_profile(get):
    path = get("profile", None)
    if path:
        return read_profile(path)
    L = get("L", None, float)
    if L is None:
        raise ValueError("--L (or a profile path) is required")
    params = _piecewise_from(get)
    return build_profile(L, params=params, smoothing=_smoothing_from(get, params))


def _cmd_build_potential(args, get, out_dir):
    L = get("L", None, float)
    if L is None:
        raise ValueError("--L is required")
    params = _piecewise_from(get)
    profile = build_profile(L, params=params, smoothing=_smoothing_from(get, params))
    path = out_dir / f"profile_L{L:g}.json"
    write_profile(profile, path)
    nrm = norms(profile)
    payload = {
        "meta": str(path),
        "L": L,
        "n": profile.n,
        "mean_q": profile.mean_q,
        "phi_norm": nrm.phi,
        "h2_norm": nrm.h2,
    }
    _emit(payload, get("json", False))
    return 0


def _cmd_verify(args, get, out_dir):
    profile = _load_or_build_profile(get)
    report = certify(profile, order=_order_from(get))
    payload = {
        "L": profile.L,
        "order": report.order.value,
        "lambda_min": report.lambda_min,
        "delta_margin": report.delta_margin,
        "N_sequence": list(report.N_sequence),
        "converged": report.converged,
        "certified": report.certified,
    }
    _emit(payload, get("json", False))
    return 0 if payload["certified"] else 1


def _cmd_bound(args, get, out_dir):
    profile = _load_or_build_profile(get)
    report = certify(profile)
    hb = headline_bound(profile, report.delta_margin)
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
    _emit(payload, get("json", False))
    return 0


def _cmd_simulate(args, get, out_dir):
    L = get("L", None, float)
    if L is None:
        raise ValueError("--L is required")
    gamma = get("gamma", 0.0)
    N = get("N", None, int) or default_grid(L)
    transient = get("transient", None, float)
    if transient is None:
        transient = default_transient(L, N, gamma)
    t_end = get("t_end", None, float)
    if t_end is None:
        t_end = transient + 200.0
    cfg = SolveConfig(
        gamma=gamma,
        dt=get("dt", 0.05),
        t_end=t_end,
        transient=transient,
        record_every=get("record_every", 10, int),
        odd_only=get("odd", False),
    )
    if get("check_lyapunov", False) and not cfg.odd_only:
        raise OddSubspaceError("--check-lyapunov needs --odd: the coercivity certificate holds on the odd subspace only")
    initial = random_initial(L, N, seed=get("seed", 0, int), amplitude=get("amplitude", 1.0), odd_only=cfg.odd_only)
    traj = simulate(initial, cfg)

    residuals = None
    violations = max_residual = tolerance = None
    if get("check_lyapunov", False):
        params = _piecewise_from(get)
        profile = build_profile(L, params=params, smoothing=_smoothing_from(get, params))
        report = certify(profile)
        constants = LyapunovConstants(lam=report.delta_margin, M2=forcing_constant(profile))
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
        "gamma": gamma,
        "dt": cfg.dt,
        "t_end": cfg.t_end,
        "transient": traj.transient,
        "sup_norm": traj.sup_norm,
        "violations": violations,
        "max_residual": max_residual,
        "tolerance": tolerance,
    }
    (out_dir / f"simulate_L{L:g}.json").write_text(json.dumps(payload, indent=2) + "\n")
    _emit(payload, get("json", False))
    return 0


def _cmd_sweep(args, get, out_dir):
    L_list = get("L_list", [32.0, 64.0, 128.0, 256.0, 512.0], _parse_l_list)
    params = _piecewise_from(get)
    csv_path = out_dir / "sweep.csv"
    records = sweep(
        L_list,
        csv_path=csv_path,
        params=params,
        smoothing=_smoothing_from(get, params),
        run_simulation=get("simulate", False),
        gamma=get("gamma", 0.0),
        t_end=get("t_end", None, float),
        seed=get("seed", 0, int),
    )
    if get("json", False):
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


def _cmd_fit(args, get, out_dir):
    path = get("input", None)
    if path is None:
        raise ValueError("--input sweep CSV is required")
    column = get("column", "h2_norm")
    records = read_sweep_csv(path)
    pairs = [(rec.L, getattr(rec, column)) for rec in records if getattr(rec, column) is not None]
    fit = fit_power_law(pairs)
    payload = {
        "column": column,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
    }
    _emit(payload, get("json", False))
    return 0


def _cmd_molinet(args, get, out_dir):
    Lx = get("Lx", None, float)
    if Lx is None:
        raise ValueError("--Lx is required")
    bound = molinet(Lx, C=get("C", 1.0), Ly=get("Ly", None, float))
    payload = {"Lx": Lx, "ly_max": bound.ly_max, "norm_bound": bound.norm_bound}
    _emit(payload, get("json", False))
    return 0


def _common_flags(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="output directory (default .)")
    sub.add_argument("--json", action="store_const", const=True, help="machine-readable output")
    sub.add_argument("--seed", type=int, help="random seed")


def _potential_flags(sub):
    sub.add_argument("--a", type=float, help="step-potential support half-width")
    sub.add_argument("--q0", type=float, help="well depth")
    sub.add_argument("--q1", type=float, help="barrier height")
    sub.add_argument("--delta", type=float, help="mollification width")
    sub.add_argument("--mu", type=float, help="required magnitude of the negative mean")


def build_parser():
    parser = argparse.ArgumentParser(prog="kslyap", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("exponents", help="critical scaling exponents (exact rationals)")
    p.add_argument("--order", choices=["fourth", "second"], help="operator order")
    _common_flags(p)
    p.set_defaults(func=_cmd_exponents)

    p = subs.add_parser("build-potential", help="construct and save a profile")
    p.add_argument("--L", type=float, help="domain half-length")
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_build_potential)

    p = subs.add_parser("verify", help="certify coercivity of the form")
    p.add_argument("--L", type=float, help="domain half-length")
    p.add_argument("--order", choices=["fourth", "second"], help="operator order")
    p.add_argument("--profile", help="profile JSON written by build-potential")
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("bound", help="attracting-ball radius for a profile")
    p.add_argument("--L", type=float, help="domain half-length")
    p.add_argument("--profile", help="profile JSON written by build-potential")
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("simulate", help="integrate the flow and record norms")
    p.add_argument("--L", type=float, help="domain half-length")
    p.add_argument("--gamma", type=float, help="destabilization coefficient")
    p.add_argument("--t-end", dest="t_end", type=float, help="integration horizon")
    p.add_argument("--dt", type=float, help="time step")
    p.add_argument("--N", type=int, help="grid size (power of two)")
    p.add_argument("--transient", type=float, help="burn-in excluded from statistics")
    p.add_argument("--record-every", dest="record_every", type=int, help="sampling stride")
    p.add_argument("--amplitude", type=float, help="initial L2 norm")
    p.add_argument("--odd", action="store_const", const=True, help="restrict to odd functions")
    p.add_argument(
        "--check-lyapunov",
        dest="check_lyapunov",
        action="store_const",
        const=True,
        help="monitor the ball inequality along the run (needs --odd)",
    )
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("sweep", help="certify and bound across a list of L")
    p.add_argument("--L-list", dest="L_list", type=_parse_l_list, help="comma-separated L values")
    p.add_argument("--simulate", action="store_const", const=True, help="also run simulations")
    p.add_argument("--gamma", type=float, help="destabilization coefficient")
    p.add_argument("--t-end", dest="t_end", type=float, help="integration horizon")
    _potential_flags(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("fit", help="power-law fit of a sweep CSV column")
    p.add_argument("--input", help="sweep CSV path")
    p.add_argument("--column", help="column to fit against L (default h2_norm)")
    _common_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = subs.add_parser("molinet", help="thin-rectangle bound calculator")
    p.add_argument("--Lx", type=float, help="rectangle length (> 1)")
    p.add_argument("--C", type=float, help="constant in the corollary")
    p.add_argument("--Ly", type=float, help="strip height to evaluate at")
    _common_flags(p)
    p.set_defaults(func=_cmd_molinet)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        get = _make_getter(args, config)
        out_dir = Path(get("out", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, get, out_dir)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
