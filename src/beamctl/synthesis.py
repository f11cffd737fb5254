"""Minimum-norm synthesis of the boundary control from a moment system.

Among all curvature profiles f'' in L2(0, T) meeting the moment constraints,
the smallest one lies in the span of the constraint kernels themselves, so
synthesis reduces to the normal equations G c = target with G the kernels'
Gram matrix.  The boundary signal is then rebuilt from f'' by double
integration in closed form (the two flatness rows guarantee f(T) = f'(T) = 0,
and f(0) = f'(0) = 0 by construction).

The Gram matrix of nearly dependent kernels is famously ill conditioned.
One calculus builds and factors it: the column solves of the kernels'
displacement structure (d/du k = Lambda k, so Lambda G + G Lambda^T = k(T)
k(T)^T - k(0) k(0)^T), the factor being a generalized Schur algorithm that
watches its own pivots.  A pivot collapsing below 2^(-precision_bits/2) of the
largest one seen means the matrix has lost definiteness at the working
precision: the solver then reassembles everything at doubled precision, up
to PRECISION_CEILING bits, or gives up with a quantitative report.  Rungs
that an upper bound on the pivots, read from the kernel rates alone, proves
too coarse are tried without factoring: the ladder starts at the first rung
the bound does not refuse, and always factors the ceiling.  There is no
approximate fallback: a returned control meets its moment targets to the
working precision.

All of it runs on integers with a fixed binary point (FixedMatrix), F
fraction bits in the Gram (_gram_scale, by closed_form._fixed_point_bits)
and F + 32 in its column solves; the columns of its rate-0 rows, whose
Sylvester operator is singular, are sums of closed_form._moment_set, the
moment calculus the closed-form final state uses too, and the generators
come from the Gram's first column.  mpf stays at the edges: each rate's
e^(lam T) and the returned coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import isqrt
from operator import mul
from typing import Tuple

import mpmath as mp

from ._numutil import GUARD_BITS, decimal_str, quotient, to_fixed, to_mpf
from .errors import NumericalRankDeficiency
from .closed_form import _fixed_point_bits, _fixed_rate, _moment_set
from .kernels import ControlSignal
from .moment_problem import MomentSystem

__all__ = [
    "PRECISION_CEILING",
    "FixedMatrix",
    "SynthesisReport",
    "gram_matrix",
    "cholesky_factor",
    "solve_min_norm",
]

PRECISION_CEILING = 4096    # highest rung of the doubling ladder, in bits
_REFUSAL_MARGIN_BITS = 2    # refuse a rung this far below its pivot test, which rounds GUARD_BITS finer
_COLLISION = 2.0 ** -30     # relative gap under which two float64 rates count as one


@dataclass(frozen=True)
class FixedMatrix:
    """Integer rows with a binary point: entry (j, k) is ints[j][k] / 2^scale,
    0 past the end of a factor's row, which stops at the diagonal; rows is
    the order."""

    ints: Tuple[Tuple[int, ...], ...]
    scale: int
    rows = property(lambda self: len(self.ints))


def _gram_scale(system: MomentSystem) -> int:
    """Fraction bits of a system's Gram (closed_form._fixed_point_bits), its
    magnitude bits those below the smallest G_jj >= w^2 min(h, h^3) / 10
    (each kernel keeps a share of its value near u = 0 on [0, h], h = min(T,
    1/(2 max |lam|)), w = min(1, least expsin frequency)), and log2 of 1 /
    min |Re lam| > 1, which the factor's displacement divides by."""
    T = system.config.horizon
    rates = [k.real_form(T)[:2] for k in system.kernels]  # (lam, Im)
    w = min([1.0] + [float(mp.im(lam)) for lam, imag in rates if imag])
    top = 2 * max(abs(lam) for lam, _ in rates) or 1e-300     # an mpf: it may pass float64
    slow = min([1.0] + [abs(mp.re(lam)) for lam, _ in rates if lam])
    log_h = min(math.log2(T), -float(mp.log(top, 2)))
    floor = 2 * math.log2(w) + min(log_h, 3 * log_h) + float(mp.log(slow, 2)) - math.log2(10)
    return _fixed_point_bits(system.config.precision_bits, math.ceil(max(0.0, -floor)), T)


def gram_matrix(system: MomentSystem) -> FixedMatrix:
    """Symmetric Gram matrix of the system's kernels over [0, horizon].

    Each kernel is Re, or Im, of one term P(u) e^(lam u) (Kernel.real_form).
    Against a rate-0 row (the flatness pair, an exp row at rate 0) an entry
    is Re, or Im, of sum c d M_(p+q) at lam plus, or less, the same at
    conj(lam): one _moment_set call per rate.  Every other entry solves
    Lambda G + G Lambda^T = a a^T - b b^T by the factor's column solves, on
    the generators of column 0, at E = F + 32 fraction bits; a polyexp
    column p subtracts its exp partner j's: (Lambda_I + lam) X_Ip = a_I a_p
    - b_I b_p - X_Ij.
    """
    F, n = _gram_scale(system), system.n_rows
    E = F + 32
    G = [[0] * n for _ in range(n)]
    with mp.workprec(F + 16):
        T, den = to_mpf(system.config.horizon), system.config.horizon.denominator
        forms = [k.real_form(T) for k in system.kernels]
        zero = [j for j, (lam, _, _) in enumerate(forms) if not lam]     # the rate-0 rows
        # c is 1, -1 or T: times T's denominator an integer
        polys = [[(int(mp.nint(c * den)), p) for c, p in poly] for _, _, poly in forms]
        origin, t, w = _fixed_rate(0, T, F), to_fixed(T, F), 2 * den * den
        for i, (lam, imag, _) in enumerate(forms):
            if not i or lam != forms[i - 1][0]:     # a rate's rows are adjacent
                # orders to the highest power at this rate plus 1, the linear row's
                d = 1 + max(p for f in forms[i:i + 2] if f[0] == lam for _, p in f[2])
                sets = _moment_set(d, origin, _fixed_rate(lam, T, F), t, F)
            for j in zero:
                s = [sum(c * e * m[p + q][imag] for c, p in polys[i] for e, q in polys[j]) // w
                     for m in sets]
                G[i][j] = G[j][i] = s[0] - s[1] if imag else s[0] + s[1]
    groups, re, im, a, b = _displacement(system, [row[0] for row in G], F, E)
    live = [(kind, rows) for kind, rows in groups if rows[0] not in zero]
    for k, (kind, rows) in enumerate(live):
        rest, j = live[k:], rows[0]
        if kind == "pair":
            out = _pair_columns(rest, a, b, re, im, *rows, E)
        else:
            out = _real_columns(rest, a, b, re, im, a[j], b[j], re[j], E)
        if kind == "jordan":
            p = rows[1]
            out = [(r, x, y) for (r, x), (_, y) in
                   zip(out, _real_columns(rest, a, b, re, im, a[p], b[p], re[j], E, dict(out)))]
        for r, *xs in out:      # row r's entries in the columns of rows
            for c, x in zip(rows, xs):
                G[r][c] = G[c][r] = x >> E - F
    return FixedMatrix(tuple(map(tuple, G)), F)


def _displacement(system: MomentSystem, col: list, F: int, E: int):
    """(groups, re, im, a, b) of the kernels at E fraction bits: re + i im is
    each row's rate, a = k(T) and b = k(0) the generators of G, read off its
    column 0 (col, at F fraction bits).

    d/du k = Lambda k, u = T - s, so Lambda G + G Lambda^T = a a^T - b b^T,
    and on column 0 (const' = 0) a = b + Lambda G_(:,0).  Past the flatness
    pair, whose block is nilpotent (linear' = -const), Lambda is block
    diagonal in assemble's row groups: "real" (exp), "pair" (expcos, expsin
    at z = beta + i omega: a rotation) and "jordan" (exp, polyexp at one
    rate: (u e^(lam u))' = e^(lam u) + lam u e^(lam u)).
    """
    kinds, n = [k.kind for k in system.kernels], system.n_rows
    if kinds[:2] != ["const", "linear"]:
        raise ValueError("the Gram factor wants the flatness rows first")
    with mp.workprec(E):
        rates = [mp.mpc(k.real_form(1)[0]) for k in system.kernels]
    re, im = [to_fixed(z.real, E) for z in rates], [to_fixed(z.imag, E) for z in rates]
    T = system.config.horizon
    b = [0 if kind in ("polyexp", "expsin") else 1 << E for kind in kinds]
    b[1] = (T.numerator << E) // T.denominator
    a = [b[0], 0] + [b[j] + (re[j] * col[j] >> F) for j in range(2, n)]
    groups, j = [], 2
    while j < n:
        kind, partner = kinds[j], kinds[j + 1] if j + 1 < n and rates[j] == rates[j + 1] else None
        if (kind, partner) == ("expcos", "expsin"):
            groups.append(("pair", (j, j + 1)))
            a[j] -= im[j] * col[j + 1] >> F
            a[j + 1] += im[j] * col[j] >> F
        elif (kind, partner) == ("exp", "polyexp"):
            groups.append(("jordan", (j, j + 1)))
            a[j + 1] += col[j] << E - F
        elif kind == "exp":
            groups.append(("real", (j,)))
        else:
            raise ValueError(f"no displacement structure at row {j} ({kind})")
        j += len(groups[-1][1])
    return groups, re, im, a, b


def cholesky_factor(system: MomentSystem, G: FixedMatrix):
    """Lower-triangular factor of the system's Gram G, with pivot monitoring.

    Returns (L, condition_estimate), L a FixedMatrix with G = L L^T, the
    estimate the ratio of the largest to the smallest squared pivot.  Raises
    NumericalRankDeficiency, past which digits are noise, at a row whose
    pivot drops below 2^(-precision_bits/2) of the largest one seen, or with
    a nonpositive pivot or diagonal entry.

    A block generalized Schur factor (Gohberg, Kailath & Olshevsky, Math.
    Comp. 64, 1995; Kailath & Sayed, SIAM Rev. 37, 1995): O(n^2) products,
    where a row-by-row Cholesky takes O(n^3).  Each Schur complement keeps
    the displacement of G (_displacement) with generators updated as g <- g
    - L_iB L_BB^-1 g_B per pivot block B, one row or a pair's two.  They give
    B's columns, its own block and so its pivots included, by one small
    Sylvester solve per row group (_real_columns, _pair_columns); the
    flatness pair, whose Sylvester operator is singular, takes G's first two
    columns instead.

    Everything is held times 2^E, E = F + 32.  Pivots and columns come from
    the generators alone, so each rounding perturbs the current Schur
    complement of one matrix, by 2^-E |g_i| |g_j| / |lam_i + conj lam_j|
    (the Gram's scale covers 1 / min |Re lam|), and no error compounds.
    Pivots read off G less L's rows, as a Cholesky has them, would mix two
    matrices: that error grew about a thousandfold per row on the 66-row
    Gram of rho = 2 at 32 modes.
    """
    bits = system.config.precision_bits
    A, F, n = G.ints, G.scale, G.rows
    E = F + 32
    up = E - F
    groups, re, im, a, b = _displacement(system, [row[0] for row in A], F, E)
    L = [[] for _ in range(n)]
    pivots, top = [], 0

    def pivot(j, s):
        """Test row j's diagonal entry and pivot s (times 2^E) against the
        largest pivot so far; the square root of s."""
        nonlocal top
        if A[j][j] <= 0:
            raise NumericalRankDeficiency(j, quotient(A[j][j] << up, top or 1 << E), bits)
        if s <= 0 or s << bits // 2 < top:
            raise NumericalRankDeficiency(j, quotient(s, top) if top else 1.0, bits)
        pivots.append(s)
        top = max(top, s)
        return isqrt(s << E)

    groups.insert(0, ("flat", (0, 1)))
    while groups:
        kind, rows = groups.pop(0)
        j = rows[0]
        if kind in ("real", "jordan"):     # one pivot row
            aj, bj, lb = a[j], b[j], re[j]
            block = [(kind, rows)] + groups     # at rate 0 the const row again: pivot 0
            (_, d), *cols = _real_columns(block, a, b, re, im, aj, bj, lb, E) if lb else [(j, 0)]
            l11 = pivot(j, d)
            r1 = (1 << 2 * E) // l11
            L[j].append(l11)
            if kind == "jordan":    # the polyexp row, still coupled to its pivot
                groups.insert(0, ("real", rows[1:]))
            ga, gb = aj * r1 >> E, bj * r1 >> E          # L_BB^-1 g_B
            for r, x in cols:
                x = x * r1 >> E
                L[r].append(x)
                a[r] -= x * ga >> E
                b[r] -= x * gb >> E
            continue
        s = rows[1]
        if kind == "flat":
            cols = [(r, A[r][0] << up, A[r][1] << up) for r in range(n)]
        else:
            cols = _pair_columns([(kind, rows)] + groups, a, b, re, im, j, s, E)
        (_, d11, d21), (_, _, d22), *cols = cols
        l11 = pivot(j, d11)
        r1 = (1 << 2 * E) // l11
        l21 = (d21 << E) // l11
        l22 = pivot(s, d22 - (l21 * l21 >> E))
        r2 = (1 << 2 * E) // l22
        L[j].append(l11)
        L[s] += [l21, l22]
        ga1, gb1 = a[j] * r1 >> E, b[j] * r1 >> E        # L_BB^-1 g_B
        ga2, gb2 = (a[s] - (l21 * ga1 >> E)) * r2 >> E, (b[s] - (l21 * gb1 >> E)) * r2 >> E
        for r, x1, x2 in cols:
            x1 = x1 * r1 >> E
            x2 = (x2 - (x1 * l21 >> E)) * r2 >> E
            L[r] += [x1, x2]
            a[r] -= x1 * ga1 + x2 * ga2 >> E
            b[r] -= x1 * gb1 + x2 * gb2 >> E
    return FixedMatrix(tuple(map(tuple, L)), E), quotient(top, min(pivots)) if pivots else 1.0


def _over(xr: int, xi: int, wr: int, wi: int) -> tuple:
    """(xr + i xi) / (wr + i wi), each part floored; the result's scale is
    x's less w's."""
    n2 = wr * wr + wi * wi
    return (xr * wr + xi * wi) // n2, (xi * wr - xr * wi) // n2


def _real_columns(groups, a, b, re, im, aj, bj, lb, E, less=None) -> list:
    """(row, S_rj) times 2^E for every row of the groups, j a one-row pivot at
    rate lb with generators aj, bj: (lam_r + lb) S_rj = a_r aj - b_r bj - l_r,
    a pair's two rows as one complex entry, a Jordan block by substitution;
    l_r is 0, or less[r] times 2^E: a Jordan partner's column."""
    out = []
    for kind, rows in groups:
        r = rows[0]
        x = a[r] * aj - b[r] * bj - (less[r] << E if less else 0)
        if kind == "real":
            out.append((r, x // (re[r] + lb)))
            continue
        s = rows[1]
        y = a[s] * aj - b[s] * bj - (less[s] << E if less else 0)
        if kind == "pair":
            out += zip(rows, _over(x, y, re[r] + lb, im[r]))
            continue
        x //= re[r] + lb
        out += [(r, x), (s, (y - (x << E)) // (re[r] + lb))]
    return out


def _pair_columns(groups, a, b, re, im, c0, s0, E) -> list:
    """(row, S_r,c0, S_r,s0) times 2^E for every row of the groups, (c0, s0)
    a pair pivot at z = beta + i omega, A = a_c0 + i a_s0 and B = b_c0 + i
    b_s0.  A real row's two entries are one complex x = (a_r A - b_r B) /
    (lam_r + z), a Jordan block's by substitution.  Another pair's 2 x 2
    block X acts on v = v_c + i v_s as X v = p v + q conj(v), with p (z_i +
    conj z) = (A_i conj A - B_i conj B) / 2 and q (z_i + z) = (A_i A - B_i
    B) / 2."""
    out = []
    zr, zi = re[c0], im[c0]
    Ar, Ai, Br, Bi = a[c0], a[s0], b[c0], b[s0]
    for kind, rows in groups:
        r = rows[0]
        if kind != "pair":
            x = _over(a[r] * Ar - b[r] * Br, a[r] * Ai - b[r] * Bi, re[r] + zr, zi)
            out.append((r, *x))
            if kind == "jordan":
                p = rows[1]
                out.append((p, *_over(a[p] * Ar - b[p] * Br - (x[0] << E),
                                      a[p] * Ai - b[p] * Bi - (x[1] << E), re[r] + zr, zi)))
            continue
        c, s = rows
        ar, ai, br, bi = a[c], a[s], b[c], b[s]
        wr = 2 * (re[c] + zr)
        pr, pi = _over(ar * Ar + ai * Ai - br * Br - bi * Bi,
                       ai * Ar - ar * Ai - bi * Br + br * Bi, wr, 2 * (im[c] - zi))
        qr, qi = _over(ar * Ar - ai * Ai - br * Br + bi * Bi,
                       ar * Ai + ai * Ar - br * Bi - bi * Br, wr, 2 * (im[c] + zi))
        out += [(c, pr + qr, qi - pi), (s, pi + qi, pr - qr)]
    return out


def _solve(L: FixedMatrix, targets) -> list:
    """c with L L^T c = targets (mpf), as integers times 2^L.scale, by
    forward and back substitution."""
    K, n = L.scale, L.rows
    y = []
    for row, t in zip(L.ints, targets):
        y.append((to_fixed(t, 2 * K) - sum(map(mul, row, y))) // row[-1])
    c = [0] * n
    for i in reversed(range(n)):
        c[i] = ((y[i] << K) - sum(L.ints[k][i] * c[k] for k in range(i + 1, n))) // L.ints[i][i]
    return c


@dataclass(frozen=True)
class SynthesisReport:
    """Everything the solve produced, at the precision that finally worked."""

    system: MomentSystem                 # reassembled at precision_bits_used
    control: ControlSignal
    coefficients: Tuple
    cost: float                          # L2 norm of f'' on [0, T]
    condition_estimate: float
    precision_bits_used: int
    precision_trace: Tuple[int, ...]     # every precision attempted, in order, refused rungs too
    residuals: Tuple[float, ...]         # per-row |G c - target|
    max_residual: float

    def to_json_dict(self) -> dict:
        bits = self.precision_bits_used
        doc = self.system.to_json_dict()
        rows = doc["rows"]
        for row, coeff, resid in zip(rows, self.coefficients, self.residuals):
            row["coefficient"] = decimal_str(coeff, bits)
            row["residual"] = repr(resid)
        doc.update({
            "cost": decimal_str(self.cost, bits),
            "condition_estimate": repr(self.condition_estimate),
            "precision_bits_used": bits,
            "precision_trace": list(self.precision_trace),
        })
        return doc


def _attempt(system: MomentSystem) -> SynthesisReport:
    bits = system.config.precision_bits
    G = gram_matrix(system)
    L, cond = cholesky_factor(system, G)
    with mp.workprec(bits + GUARD_BITS):
        targets = [to_mpf(t) for t in system.targets]
        # targets far below 1 are solved times 2^shift, so that c keeps its bits
        top = max((mp.mag(t) for t in targets if t), default=0)
        shift = max(0, bits + GUARD_BITS - L.scale - top)
        c, S = _solve(L, [mp.ldexp(t, shift) for t in targets]), L.scale + shift
        Gc = [sum(map(mul, row, c)) for row in G.ints]      # times 2^(F + S)
        residuals = [abs(quotient(g - to_fixed(t, G.scale + S), 1 << (G.scale + S)))
                     for g, t in zip(Gc, targets)]
        e = G.scale + 2 * S                                 # c^T G c times 2^e
        cost = quotient(isqrt(max(sum(map(mul, c, Gc)), 0) << (e & 1)), 1 << (e + 1) // 2)
        coefficients = tuple(mp.ldexp(ci, -S) for ci in c)
        control = ControlSignal(system.kernels, coefficients, to_mpf(system.config.horizon), bits)
    return SynthesisReport(system, control, coefficients, cost, cond, bits, (bits,),
                           tuple(residuals), max(residuals, default=0.0))


def _log2_pivot_bound(system: MomentSystem):
    """An upper bound on min_j log2(p_j / top_j) of the system's Cholesky, read
    from the kernel rates alone in float64; inf where the rows do not fit.

    p_j, the squared L2(0, T) distance of kernel j from the earlier ones, is at
    most that distance in L2(0, oo) from the earlier exponential rows alone,
    which has a closed form (Fattorini & Russell, ARMA 43, 1971).  With B_S(mu)
    = prod_(nu in S) (mu - nu) / (mu + conj nu) over their rates S, conjugates
    and repeats included, it is |B_S(mu)|^2 / (2|Re mu|) for an exp row and
    |B_S(mu)|^2 / (8|Re mu|^3) for a polyexp row after its exp partner (S
    without it).  An expcos/expsin pair's two pivots multiply to |B_S(lam)|^4
    (Im lam)^2 / (16 (Re lam)^2 |lam|^2); their geometric mean is checked.
    top_j >= G_00 = T, the const row being first.  A factor of float64 rates
    closer than _COLLISION of their size is dropped: each factor is at most 1.
    """
    kernels, T = system.kernels, system.config.horizon
    if not kernels or kernels[0].kind != "const":
        return math.inf
    points, worst = [], math.inf     # the rates S spanned so far
    for j, kernel in enumerate(kernels[1:], 1):
        z, kind = complex(kernel.real_form(T)[0]), kernel.kind
        if kind == "linear" or kind == "expsin" and kernels[j - 1].kind == "expcos":
            continue                    # a pair is checked at its expcos row
        if z.real >= 0:                 # a const row past the first, or a growing rate
            return math.inf
        a, S = -z.real, points
        if kind == "exp":
            rest = -math.log2(2 * a)
        elif kind == "polyexp" and kernels[j - 1] == replace(kernel, kind="exp"):
            S, rest = points[:-1], -math.log2(8 * a ** 3)
        elif kind == "expcos" and z.imag and kernels[j + 1:j + 2] == (replace(kernel, kind="expsin"),):
            rest = math.log2(abs(z.imag) / (4 * a * abs(z)))
        else:
            return math.inf
        size, log_b = _COLLISION * abs(z), 0.0
        for nu in S:
            gap = abs(z - nu)
            if gap >= size and gap >= _COLLISION * abs(nu):
                log_b += math.log2(gap / abs(z + nu.conjugate()))
        worst = min(worst, 2 * log_b + rest)
        points += [z, z.conjugate()] if kind == "expcos" else [z]
    return worst - (math.log2(T.numerator) - math.log2(T.denominator))


def solve_min_norm(system: MomentSystem) -> SynthesisReport:
    """Minimum-norm control for the moment system, with exact moment targets.

    The Gram system is factored by Cholesky at the system's precision.  On
    rank collapse the system is reassembled at doubled precision, as long as
    that stays within PRECISION_CEILING.  A rung below the ceiling that the
    spectral bound (_log2_pivot_bound) proves too coarse is tried without
    factoring: it joins the trace, and no Gram is built at it.  When the
    ladder is exhausted NumericalRankDeficiency propagates, carrying every
    precision attempted.
    """
    trace, bits, bound = [], system.config.precision_bits, _log2_pivot_bound(system)
    while bits * 2 <= PRECISION_CEILING and bound < -(bits // 2) - _REFUSAL_MARGIN_BITS:
        trace.append(bits)
        bits *= 2
    current = system.with_precision(bits)
    while True:
        bits = current.config.precision_bits
        trace.append(bits)
        try:
            return replace(_attempt(current), precision_trace=tuple(trace))
        except NumericalRankDeficiency as err:
            if bits * 2 > PRECISION_CEILING:
                raise NumericalRankDeficiency(
                    err.pivot_index, err.pivot_ratio, err.precision_bits,
                    attempted_bits=tuple(trace)) from None
        current = current.with_precision(bits * 2)
