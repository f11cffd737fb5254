"""Output checks computed apart from beamctl.

The moment and cost checks rebuild the curvature profile f'' = sum c_k k_k
from a report's kernel descriptors and decimal coefficients, with this
file's own mpmath code, and integrate it by composite Gauss-Legendre
quadrature on panels graded toward s = T, where the fast kernels peak.
Nothing here calls beamctl.
"""
from __future__ import annotations

import csv
from fractions import Fraction

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre

GUARD_BITS = 64
GL_DEGREE = 5            # mpmath degree 5: 48 Gauss-Legendre nodes per panel
# The quadrature's own error is below 1e-50 of |f''| |k_i| on these cases and
# the self-test's perturbation moves moments by 1e-2; 1e-9 sits between and
# also admits verification.json, whose decimal strings carry only 53 bits.
MOMENT_RTOL = 1e-9       # |<f'', k_i> - target_i| against |f''| |k_i|
COST_RTOL = 1e-9         # reported cost against the quadrature norm of f''
FLAT_RTOL = 1e-8         # f, f' at both ends of control.csv against their peaks,
                         # far below the verdict's 1e-6 tolerance


def _horizon(doc) -> mp.mpf:
    T = Fraction(doc["config"]["horizon"])
    return mp.mpf(T.numerator) / T.denominator


def _rate_scale(desc) -> mp.mpf:
    kind = desc["kind"]
    if kind in ("exp", "polyexp"):
        return abs(mp.mpf(desc["rate"]))
    if kind in ("expcos", "expsin"):
        return mp.hypot(mp.mpf(desc["decay"]), mp.mpf(desc["freq"]))
    return mp.mpf(0)


def _rule(T, lam_max):
    """Nodes u = T - s and weights: panels of width 8/lam_max near u = 0,
    then each panel half as wide as its distance from u = 0."""
    h0 = min(T, 8 / max(lam_max, mp.mpf(1)))
    edges = [mp.mpf(0)]
    while edges[-1] < T:
        u = edges[-1]
        edges.append(min(T, u + max(h0, u / 2)))
    base = GaussLegendre(mp.mp).calc_nodes(GL_DEGREE, mp.mp.prec)
    us, ws = [], []
    for a, b in zip(edges, edges[1:]):
        half, mid = (b - a) / 2, (a + b) / 2
        for x, w in base:
            us.append(mid + half * x)
            ws.append(half * w)
    return us, ws


def _kernel_table(rows, T, us):
    """Value of every row's kernel at every node (oscillatory pairs share work)."""
    shared = {}
    table = []
    for row in rows:
        d = row["kernel"]
        kind = d["kind"]
        if kind == "const":
            table.append([mp.mpf(1)] * len(us))
        elif kind == "linear":
            table.append([T - u for u in us])
        elif kind in ("exp", "polyexp"):
            rate = mp.mpf(d["rate"])
            vals = [mp.exp(rate * u) for u in us]
            if kind == "polyexp":
                vals = [u * v for u, v in zip(us, vals)]
            table.append(vals)
        else:
            key = (d["decay"], d["freq"])
            if key not in shared:
                decay, freq = mp.mpf(d["decay"]), mp.mpf(d["freq"])
                env = [mp.exp(decay * u) for u in us]
                cs = [mp.cos_sin(freq * u) for u in us]
                shared[key] = ([e * c for e, (c, _) in zip(env, cs)],
                               [e * s for e, (_, s) in zip(env, cs)])
            table.append(shared[key][0 if kind == "expcos" else 1])
    return table


def quadrature_check(doc: dict) -> dict:
    """Moments and cost of a synthesis report, recomputed by quadrature.

    `doc` is the JSON form of a synthesis report: rows with kernel
    descriptor, target and coefficient, plus cost, precision_bits_used and
    the config's horizon.  Returns the worst moment gap relative to
    |f''| |k_i|, the relative cost gap, and one message per failed check.
    """
    bits = int(doc["precision_bits_used"])
    rows = doc["rows"]
    with mp.workprec(bits + GUARD_BITS):
        T = _horizon(doc)
        us, ws = _rule(T, max(_rate_scale(r["kernel"]) for r in rows))
        table = _kernel_table(rows, T, us)
        f2 = [mp.mpf(0)] * len(us)
        for row, vals in zip(rows, table):
            c = mp.mpf(row["coefficient"])
            f2 = [acc + c * v for acc, v in zip(f2, vals)]
        wf2 = [w * v for w, v in zip(ws, f2)]
        fnorm = mp.sqrt(mp.fdot(wf2, f2))
        failures = []
        worst = 0.0
        for i, (row, vals) in enumerate(zip(rows, table)):
            moment = mp.fdot(wf2, vals)
            knorm = mp.sqrt(mp.fdot([w * v for w, v in zip(ws, vals)], vals))
            rel = float(abs(moment - mp.mpf(row["target"])) / (fnorm * knorm))
            worst = max(worst, rel)
            if not rel <= MOMENT_RTOL:
                failures.append(f"row {i} ({row['label']}): moment off by "
                                f"{rel:.3g} of |f''| |k|")
        cost_rel = float(abs(fnorm - mp.mpf(doc["cost"])) / fnorm)
        if not cost_rel <= COST_RTOL:
            failures.append(f"cost {doc['cost']} off the quadrature |f''| "
                            f"{mp.nstr(fnorm, 17)} by {cost_rel:.3g}")
        return {"worst_moment_rel": worst, "cost_rel": cost_rel,
                "failures": failures}


def perturbed(doc: dict) -> dict:
    """Copy of a synthesis report with the first coefficient (the constant
    kernel's) moved by 1% of the control's cost."""
    bits = int(doc["precision_bits_used"])
    rows = [dict(r) for r in doc["rows"]]
    with mp.workprec(bits + GUARD_BITS):
        c0 = mp.mpf(rows[0]["coefficient"])
        T = _horizon(doc)
        shift = mp.mpf(doc["cost"]) / 100 / mp.sqrt(T)   # |const| = sqrt(T)
        rows[0]["coefficient"] = mp.nstr(c0 + shift, int(bits * 0.302) + 4)
    return dict(doc, rows=rows)


def flatness_failures(path) -> list:
    """control.csv must lie in H_0^2(0, T): f and f' vanish at both ends,
    relative to their peaks over the samples."""
    with open(path, newline="") as fh:
        data = [[float(x) for x in rec] for rec in list(csv.reader(fh))[1:]]
    f = [rec[1] for rec in data]
    fp = [rec[2] for rec in data]
    failures = []
    for name, col in (("f", f), ("f'", fp)):
        peak = max(abs(x) for x in col)
        for where, x in (("0", col[0]), ("T", col[-1])):
            if not abs(x) <= FLAT_RTOL * peak:
                failures.append(f"{name}({where}) = {x!r} against peak {peak!r}")
    return failures
