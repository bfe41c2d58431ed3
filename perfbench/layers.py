"""Which library functions the traced run wraps, and the per-layer metrics
derived from the spans they record.

Functions are wrapped by module attribute in the namespace that calls them:
``study.sweep`` calls ``build_profile`` through ``kslyap.study``, and
``certify`` calls ``assemble`` through ``kslyap.coercivity``. A span is named
after the layer that defines the function (``potential.build_profile``),
whichever namespace the call went through.

Sizes marked "computed" are derived from array shapes, not measured:
profile bytes 4*n*8, Galerkin matrix bytes 8*N^2, eigensolve flops
(4/3)*N^3 (Householder tridiagonalisation, which dominates eigvalsh), and
8 FFTs of N complex points per ETDRK4 step (4 nonlinear evaluations, one
inverse and one forward transform each) moving 2*16*N bytes each.
"""

import math
import re
from collections import defaultdict

from kslyap import attractor, coercivity, exponents, potential, solver, study

FFTS_PER_STEP = 8

# metrics derived from array shapes rather than measured; they repeat exactly
COMPUTED = (
    "potential.profile_bytes",
    "coercivity.matrix_bytes",
    "coercivity.eig_flops",
    "solver.fft_calls",
    "solver.fft_bytes",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _grid(args, kwargs, q):
    return {"L": float(_arg(args, kwargs, 1, "L")), "grid_points": int(q.size)}


def _profile_L(args, kwargs, _):
    return {"L": float(_arg(args, kwargs, 0, "profile").L)}


def _built(args, kwargs, profile):
    n = int(profile.n)
    return {"L": float(profile.L), "grid_points": n, "profile_bytes": 4 * n * 8}


def _certified(args, kwargs, report):
    seq = report.N_sequence
    return {"L": float(_arg(args, kwargs, 0, "profile").L), "levels": len(seq), "N_final": int(seq[-1])}


def _assembled(args, kwargs, _):
    N = int(_arg(args, kwargs, 1, "N"))
    return {"L": float(_arg(args, kwargs, 0, "profile").L), "N": N, "matrix_bytes": 8 * N * N}


def _eig(args, kwargs, _):
    m = _arg(args, kwargs, 0, "m")
    N = int(getattr(m, "entries", m).shape[0])
    return {"N": N, "eig_flops": 4 * N**3 // 3}


def _simulated(args, kwargs, traj):
    initial = _arg(args, kwargs, 0, "initial")
    return {
        "L": float(initial.L),
        "N": int(initial.N),
        "samples": int(traj.t.size),
        "states_bytes": int(traj.states.nbytes),
    }


def _monitored(args, kwargs, rep):
    return {"samples": int(rep.n_samples), "violations": int(rep.violations)}


def _swept(args, kwargs, records):
    return {"rows": len(records), "error_rows": sum(rec.error is not None for rec in records)}


def install(tracer):
    """Wrap every traced library function; undo with ``tracer.unwrap_all``."""
    w = tracer.wrap
    for mod in (exponents, potential):
        w(mod, "solve_critical_exponents", "exponents.solve")
    w(potential, "smooth", "potential.smooth")
    w(potential, "scale_to_domain", "potential.scale_to_domain", _grid)
    w(potential, "assemble_profile", "potential.assemble_profile", lambda a, k, _: {"L": float(_arg(a, k, 1, "L"))})
    # a cached_property calls its .func on first access
    rfft = vars(getattr(potential, "PotentialProfile", object)).get("phi_x_rfft")
    w(rfft, "func", "potential.phi_x_rfft", _profile_L)
    for mod in (potential, study):
        w(mod, "build_profile", "potential.build_profile", _built)
    for mod in (potential, study, attractor):
        w(mod, "norms", "potential.norms", _profile_L)
    for mod in (coercivity, study):
        w(mod, "certify", "coercivity.certify", _certified)
    w(coercivity, "assemble", "coercivity.assemble", _assembled)
    w(coercivity, "min_eigenvalue", "coercivity.eig", _eig)
    for mod in (attractor, study):
        w(mod, "forcing_constant", "attractor.forcing_constant", _profile_L)
        w(mod, "radius", "attractor.radius")
    w(attractor, "monitor", "attractor.monitor", _monitored)
    for mod in (solver, study):
        w(mod, "simulate", "solver.simulate", _simulated)
        w(mod, "random_initial", "solver.random_initial")
    w(solver, "step", "solver.step", aggregate=True)
    w(study, "sweep", "study.sweep", _swept)


LAYERS = ("exponents", "potential", "coercivity", "attractor", "solver", "study")

# timed functions reported as <name>_s, with a per-L or per-N breakdown
_TIMED = {
    "exponents.solve": None,
    "potential.smooth": None,
    "potential.build_profile": "L",
    "potential.scale_to_domain": "L",
    "potential.assemble_profile": "L",
    "potential.norms": "L",
    "potential.phi_x_rfft": "L",
    "coercivity.certify": None,
    "coercivity.assemble": "N",
    "coercivity.eig": "N",
    "attractor.forcing_constant": None,
    "attractor.radius": None,
    "attractor.monitor": None,
    "solver.simulate": None,
    "study.sweep": None,
}

# span attribute -> metric, summed over spans (with a per-L or per-N breakdown)
_COUNTED = {
    ("potential.build_profile", "grid_points"): ("potential.grid_points", "L"),
    ("potential.build_profile", "profile_bytes"): ("potential.profile_bytes", "L"),
    ("coercivity.certify", "levels"): ("coercivity.levels", None),
    ("coercivity.assemble", "matrix_bytes"): ("coercivity.matrix_bytes", "N"),
    ("coercivity.eig", "eig_flops"): ("coercivity.eig_flops", "N"),
    ("solver.simulate", "states_bytes"): ("solver.states_bytes", None),
    ("attractor.monitor", "samples"): ("attractor.monitor_samples", None),
    ("study.sweep", "rows"): ("study.rows", None),
    ("study.sweep", "error_rows"): ("study.error_rows", None),
}


def base_name(name: str) -> str:
    """Metric name without its per-L or per-N suffix."""
    return re.sub(r"\.[LN][0-9].*$", "", name)


def unit_of(name: str) -> str:
    base = base_name(name)
    if base.endswith("_s"):
        return "s"
    if base.endswith("_us"):
        return "us"
    if base.endswith("_mb"):
        return "MB"
    if base.endswith("_bytes"):
        return "B"
    if base.endswith("_flops"):
        return "flop"
    if base.endswith(("_frac", "_ratio", "_slack", "_residual")):
        return "ratio"
    return "count"


def _key(size):
    return f"{size:g}" if isinstance(size, float) else str(size)


def subtree(tracer, root) -> list:
    """``root`` and every span below it."""
    kids = tracer.children()
    spans, stack = [], [root]
    while stack:
        sp = stack.pop()
        spans.append(sp)
        stack.extend(kids[sp.id])
    return spans


def self_time_sum(tracer, root, self_times) -> float:
    """Self times of the spans under ``root`` plus their aggregated calls;
    equals ``root.duration`` when every child lies inside its parent."""
    return sum(self_times[sp.id] + sum(sec for _, sec in sp.calls.values()) for sp in subtree(tracer, root))


def pass_metrics(tracer, root, self_times) -> dict:
    """Per-layer metrics of one traced pass (the spans under ``root``).

    Times are inclusive span durations summed per function; ``<layer>.self_s``
    sums self times, and ``trace.unattributed_s`` is the benchmark's own time
    between library calls. Every base metric is present, 0 when its function
    was not called."""
    spans = subtree(tracer, root)
    m = defaultdict(float)
    for name in _TIMED:
        m[f"{name}_s"] = 0.0
    for metric, _ in _COUNTED.values():
        m[metric] = 0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    m.update({"solver.steps": 0, "solver.step_s": 0.0, "solver.fft_calls": 0, "solver.fft_bytes": 0})
    m.update({"solver.blowups": 0, "coercivity.eigensolves": 0, "coercivity.N_final": 0, "potential.rss_growth_mb": 0.0})

    for sp in spans:
        layer = sp.name.split(".")[0]
        if layer in LAYERS:
            m[f"{layer}.self_s"] += self_times[sp.id]
        else:
            m["trace.unattributed_s"] += self_times[sp.id]
        for name, (_, seconds) in sp.calls.items():
            m[f"{name.split('.')[0]}.self_s"] += seconds
        by = _TIMED.get(sp.name, False)
        if by is not False:
            m[f"{sp.name}_s"] += sp.duration
            if by and by in sp.attrs:
                m[f"{sp.name}_s.{by}{_key(sp.attrs[by])}"] += sp.duration
        for (span_name, attr), (metric, by) in _COUNTED.items():
            if sp.name == span_name and attr in sp.attrs:
                m[metric] += sp.attrs[attr]
                if by and by in sp.attrs:
                    m[f"{metric}.{by}{_key(sp.attrs[by])}"] += sp.attrs[attr]
        if sp.name == "coercivity.eig":
            m["coercivity.eigensolves"] += 1
        if sp.name == "coercivity.certify" and "N_final" in sp.attrs:
            m["coercivity.N_final"] = max(m["coercivity.N_final"], sp.attrs["N_final"])
        if sp.name == "potential.build_profile" and not math.isnan(sp.attrs.get("rss_end_mb", math.nan)):
            growth = sp.attrs["rss_end_mb"] - sp.attrs["rss_start_mb"]
            m["potential.rss_growth_mb"] = max(m["potential.rss_growth_mb"], growth)
            m[f"potential.rss_growth_mb.L{_key(sp.attrs['L'])}"] = growth
        if sp.name == "solver.simulate":
            if sp.attrs.get("error") == "BlowUpError":
                m["solver.blowups"] += 1
            calls, seconds = sp.calls.get("solver.step", (0, 0.0))
            m["solver.steps"] += calls
            m["solver.step_s"] += seconds
            ffts = FFTS_PER_STEP * calls
            m["solver.fft_calls"] += ffts
            m["solver.fft_bytes"] += ffts * 2 * 16 * sp.attrs.get("N", 0)
    m["solver.step_us"] = 1e6 * m["solver.step_s"] / m["solver.steps"] if m["solver.steps"] else 0.0
    return dict(m)
