"""Exact algebra of exponential-polynomial functions on the half line rho > 0.

Every value is a finite sum of terms keyed by an integer j and a decay
index k, None or an integer:

    c * rho**j                               (k = None: a Laurent term),
    c * rho**(a + j) * exp(-b*rho/(a + k))   (integer k: a decayed term),

with a complex coefficient c and positive reals (a, b), a shared numeric
context. Chains and kernel spinors are sums of decayed terms, potentials
and superpotentials Laurent polynomials. Terms merge by their integer keys,
never by floating-point comparison of realized powers, so the canonical
form is exact even when a and b are irrational. Canonicalization drops
only coefficients that are exactly zero, however small the rest are.

The family is closed under addition, scaling, multiplication by pure
Laurent polynomials (power shifts among them), and differentiation.
Integrating a product of two members against d(rho) on (0, inf) leaves the
family; it is evaluated in closed form through Gamma(s+1)/gamma**(s+1) and
used only as a terminal operation (the summed rate beta1 + beta2 is
realized as a float and never fed back into the algebra).

ExpoPoly is a frozen, slotted record (record.Record): it keeps no instance
dict, compares and hashes by (a, b, terms), and _wrap fills its slots
directly for results already in canonical form. Its terms are plain
(j, k, coeff) tuples, read by unpacking or by index. CPython's garbage
collector untracks an exact tuple of atoms once it has seen it, but never a
tuple subclass, so a stored NamedTuple would keep every live term on the
collector's lists and lengthen each full collection. Term names the fields
for outside input; the constructor accepts it and stores plain tuples.

The ladder chains are Laguerre functions c rho^p0 e^(-beta rho)
L_M^(alpha)(2 beta rho). For them, laguerre_norm2 takes the norm, and
laguerre_columns the unit-norm samples, from that closed form in log form,
in pure Python, after checking that the coefficients still follow it.
eval_rows samples any member by Horner's rule with numpy, which is imported
only there.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import ContextMismatch, DivergentIntegral, DomainError, PrecisionLoss
from .record import Record, set_field

if TYPE_CHECKING:
    import numpy as np


class Term(NamedTuple):
    """coeff * rho**j when k is None, otherwise
    coeff * rho**(a + j) * exp(-b*rho/(a + k)).

    Names the fields of a term handed to ExpoPoly. A stored term is a plain
    (j, k, coeff) tuple equal to its Term, since the collector untracks
    only exact tuples (see the module docstring)."""

    j: int
    k: int | None
    coeff: complex


# Sort key of a ((j, k), coeff) map item: its key, taken in C.
_first = itemgetter(0)
# The coefficient of a stored term, taken in C.
_coeff = itemgetter(2)


def _power(t: tuple, a: float) -> float:
    return t[0] if t[1] is None else a + t[0]


def _rate(t: tuple, a: float, b: float) -> float:
    k = t[1]
    return 0.0 if k is None else b / (a + k)


class ExpoPoly(Record):
    """Canonical finite sum of exponential-polynomial terms in one (a, b) context.

    The constructor takes any sequence of terms and stores their canonical tuple.
    """

    __slots__ = ("a", "b", "terms")

    def __init__(self, a: float, b: float, terms=()):
        _check_positive_context(a, b)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "terms", _canonicalize(a, b, terms))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, a: float, b: float) -> "ExpoPoly":
        return cls.ordered(a, b, ())

    @classmethod
    def term(cls, a: float, b: float, coeff: complex, j: int = 0,
             k: int | None = None) -> "ExpoPoly":
        """ordered of the one term (j, k, coeff), without its rank and list."""
        _check_positive_context(a, b)
        _check_key(a, j, k)
        coeff = 0j + complex(coeff)
        return _wrap(a, b, ((j, k, coeff),) if coeff != 0j else ())

    @classmethod
    def ordered(cls, a: float, b: float, terms) -> "ExpoPoly":
        """The poly of (j, k, coeff) terms whose keys come in canonical
        order, each once, built without the constructor's merge and sort.

        The constructor's checks hold: a positive context, and a valid key
        for every term. A key out of canonical order, or repeated, raises
        ValueError. Each coefficient is stored as 0j + complex(coeff) and
        exact zeros are dropped. That is bit for bit what ExpoPoly.sum stores
        for the matching ExpoPoly.term parts: term stores the same value, and
        the sum adds it to a 0j start, which changes no bit of a value with
        no -0.0 part. So a closed form built here keeps the bits it had when
        built term by term.
        """
        _check_positive_context(a, b)
        out = []
        last = None
        for j, k, coeff in terms:
            _check_key(a, j, k)
            rank = _order((j, k))
            if last is not None and not rank > last:
                raise ValueError(f"key {(j, k)} is out of canonical order or repeated")
            last = rank
            coeff = 0j + complex(coeff)
            if coeff != 0j:
                out.append((j, k, coeff))
        return _wrap(a, b, tuple(out))

    # -- ring-like operations -----------------------------------------------

    @classmethod
    def sum(cls, a: float, b: float, parts) -> "ExpoPoly":
        """parts[0] + parts[1] + ..., bit for bit, with one sort at the end."""
        return _sum(a, b, parts)

    def __add__(self, other: "ExpoPoly") -> "ExpoPoly":
        return _sum(self.a, self.b, (self, other))

    def __sub__(self, other: "ExpoPoly") -> "ExpoPoly":
        """self + other.scale(-1.0), bit for bit, in one map: each coefficient
        of other enters as the 0j + coeff * -1.0 that scale would store."""
        a, b = self.a, self.b
        _check_context(a, b, other)
        acc = {(j, k): 0j + coeff for j, k, coeff in self.terms}
        for j, k, coeff in other.terms:
            key = (j, k)
            acc[key] = acc.get(key, 0j) + (0j + coeff * -1.0)
        return _from_map(a, b, acc)

    def __neg__(self) -> "ExpoPoly":
        return self.scale(-1.0)

    def scale(self, c: complex) -> "ExpoPoly":
        """Every coefficient times c, stored as 0j + coeff * c (no -0.0 part),
        with exact zeros dropped, as the constructor would; the keys keep
        their canonical order."""
        if not isinstance(c, (int, float)):
            # A numpy complex scalar multiplies a Python complex bit for bit
            # like its Python value, which keeps the products Python complex.
            c = complex(c)
        return _wrap(self.a, self.b, tuple([
            (j, k, v) for j, k, coeff in self.terms
            if (v := 0j + coeff * c) != 0j]))

    def mul_laurent(self, other: "ExpoPoly") -> "ExpoPoly":
        """Multiply by a pure Laurent polynomial (k = None in every term).

        The restriction keeps the product inside the algebra; general products
        would create powers 2a + j and summed decay rates outside the key set.
        """
        _check_context(self.a, self.b, other)
        return _from_map(self.a, self.b, _laurent_map(self.terms, other.terms))

    def differentiate(self) -> "ExpoPoly":
        """d/d(rho). Term-wise product rule; the realized power becomes a coefficient."""
        return _from_map(self.a, self.b, _deriv_map(self.terms, self.a, self.b))

    def conjugate(self) -> "ExpoPoly":
        return _wrap(self.a, self.b, tuple([
            (j, k, v) for j, k, coeff in self.terms
            if (v := 0j + coeff.conjugate()) != 0j]))

    # -- evaluation and integration -----------------------------------------

    def eval(self, rho: float) -> complex:
        if not 0 < rho < math.inf:
            raise DomainError(f"rho must be finite and positive, got {rho}")
        total = 0j
        for t in self.terms:
            total += (t[2] * rho ** _power(t, self.a)
                      * math.exp(-_rate(t, self.a, self.b) * rho))
        return total

    def eval_array(self, rhos: np.ndarray) -> np.ndarray:
        """Samples at rhos (see eval_rows)."""
        return eval_rows((self,), rhos)[0, ...]

    def inner_product(self, other: "ExpoPoly") -> complex:
        """<self, other> = integral of conj(self)*other over (0, inf), in closed form.

        Each product term integrates to Gamma(s+1)/gamma**(s+1) with s the
        summed realized power and gamma the summed decay rate. Raises unless
        s > -1 and gamma > 0 for every product term.
        """
        _check_context(self.a, self.b, other)
        a, b = self.a, self.b
        right = [(_power(t, a), _rate(t, a, b), t[2]) for t in other.terms]
        total = 0j
        for t1 in self.terms:
            p1, r1, c1 = _power(t1, a), _rate(t1, a, b), t1[2].conjugate()
            for p2, r2, c2 in right:
                s = p1 + p2
                gamma = r1 + r2
                if s <= -1.0:
                    raise DivergentIntegral(
                        f"product power {s} is not integrable at 0")
                if gamma <= 0.0:
                    raise DivergentIntegral(
                        "product has no exponential decay at infinity")
                total += c1 * c2 * math.gamma(s + 1.0) / gamma ** (s + 1.0)
        return total

    # -- predicates -----------------------------------------------------------

    def is_zero(self, tol: float = 1e-12) -> bool:
        """True when every coefficient is at most tol times max(1, largest |coeff|)."""
        if not self.terms:
            return True
        scale = max(1.0, self.max_abs_coeff())
        return all(abs(coeff) <= tol * scale for _, _, coeff in self.terms)

    def max_abs_coeff(self) -> float:
        return max(map(abs, map(_coeff, self.terms)), default=0.0)


def _check_positive_context(a: float, b: float) -> None:
    if not (a > 0 and b > 0):
        raise ValueError("context requires a > 0 and b > 0")


def _check_key(a: float, j: int, k: int | None) -> None:
    if not isinstance(j, int):
        raise ValueError("exponent offset must be an integer")
    if k is not None and not isinstance(k, int):
        raise ValueError("decay index must be an integer or None")
    if k is not None and a + k <= 0:
        raise ValueError(f"decay index {k} gives a non-positive rate")


def _check_context(a: float, b: float, other: ExpoPoly) -> None:
    if (a, b) != (other.a, other.b):
        raise ContextMismatch(
            f"contexts differ: ({a}, {b}) vs ({other.a}, {other.b})")


# Largest departure of a chain coefficient from its Laguerre closed form, as a
# share of the largest coefficient. Chains through level 20 depart by at most
# 3.6e-15 (20 drawn parameter sets, scalar and all four Dirac families).
LAGUERRE_TOL = 1e-13


def _log_norm2(alpha: float, m: int, log_top: float) -> float:
    """log(|t|^2 M! Gamma(M+alpha+1) (2M+alpha+1)), with log_top = log|t|."""
    return (2.0 * log_top + math.lgamma(m + 1)
            + math.lgamma(m + alpha + 1) + math.log(2 * m + alpha + 1))


def laguerre_norm2(poly: ExpoPoly) -> float:
    """<poly, poly> of a poly of the shape _laguerre_shape checks, in O(T)
    and without cancellation, from its top coefficient t alone (the Laguerre
    orthogonality integral with one more power of x, by the three-term
    recurrence of x L_M): exp(_log_norm2) / (2 beta)^(2M+alpha+2)."""
    _, alpha, m, two_beta, top = _laguerre_shape(poly)
    return math.exp(_log_norm2(alpha, m, math.log(abs(top)))
                    - (2 * m + alpha + 2) * math.log(two_beta))


def laguerre_columns(groups: dict, rhos) -> dict[str, list[tuple[complex, list[float]]]]:
    """Samples at rhos of each group of Laguerre functions (one chain, or a
    spinor's components, under a column name) scaled to unit norm: a pair
    (c, f) per poly, c from _unit_amplitudes and f from _laguerre_function,
    one list per shape (p0, M, beta), or (0j, zeros) for a poly with no
    terms. No step leaves the float range where the column does not. Each
    nonzero poly's shape is read once, by _laguerre_shape, before the points
    are checked; a PrecisionLoss names its column."""
    columns = {}
    for name, polys in groups.items():
        try:
            shapes = [_laguerre_shape(p) if p.terms else None for p in polys]
        except PrecisionLoss as exc:
            raise PrecisionLoss(f"column {name}: {exc}") from exc
        if not any(shapes):
            raise ValueError("the zero function is not a Laguerre function")
        columns[name] = shapes, _unit_amplitudes(shapes)
    if not all(0 < x < math.inf for x in rhos):
        raise DomainError("all sample points must be finite and positive")
    top_rho = max(rhos, default=1.0)
    logs = [math.log(x / top_rho) for x in rhos]
    shared = {None: [0.0] * len(rhos)}
    for key in (s and s[:4] for shapes, _ in columns.values() for s in shapes):
        if key not in shared:
            shared[key] = _laguerre_function(*key, rhos, logs, top_rho)
    return {name: [(amp, shared[s and s[:4]]) for s, amp in zip(*column)]
            for name, column in columns.items()}


def _unit_amplitudes(shapes: list) -> list[complex]:
    """c = t M! (-1)^M (2 beta)^(-M) (rho*/e)^p0 / N for each _laguerre_shape
    (p0, alpha, M, 2 beta, t) of a group (0j for None), L_M^(alpha) having
    top coefficient (-1)^M / M!; N^2 is the group's summed laguerre_norm2.
    In log form, by log-sum-exp, with no log that cancels: |t| enters as
    |t|/|t_1|, t_1 the first poly's, and (M + p0) log(2 beta) as its
    departure from the first poly's, 0 within a chain."""
    p0, _, m, two_beta, top = next(filter(None, shapes))
    scale, k, log_ref = abs(top), m + p0, math.log(two_beta)
    logs_c, norms = [], []
    for p0, alpha, m, two_beta, top in filter(None, shapes):
        log_ratio = math.log(abs(top) / scale)
        log_2b = math.log(two_beta)
        dev = (m + p0 - k) * log_2b + k * (log_2b - log_ref)
        logs_c.append(log_ratio + math.lgamma(m + 1) + p0 * (math.log(2.0 * p0) - 1.0) - dev)
        norms.append(_log_norm2(alpha, m, log_ratio) - 2.0 * dev - log_2b)
    peak = max(norms)
    half = 0.5 * (peak + math.log(sum(math.exp(x - peak) for x in norms)))
    logs_c = iter(logs_c)
    return [s[4] / abs(s[4]) * (-1) ** s[2] * math.exp(next(logs_c) - half) if s else 0j
            for s in shapes]


def _laguerre_function(p0: float, alpha: float, m: int, two_beta: float, rhos,
                       logs, top_rho) -> list[float]:
    """(rho/rho*)^p0 e^(p0 - beta rho) L_m^(alpha)(2 beta rho) at rhos,
    rho* = p0/beta, in one exp from logs = log(rho/top_rho): small near the
    largest point, where a column of large p0 peaks, so p0 times its
    rounding is small too. L_m runs in real arithmetic through
    (n+1) L_(n+1) = (2n+alpha+1-x) L_n - (n+alpha) L_(n-1) (DLMF 18.9.13).
    Where the exp is 0 the sample is 0, also where L_m is not finite."""
    xs = [two_beta * rho for rho in rhos]
    lag = [1.0] * len(xs)
    if m:
        prev, lag = lag, [1.0 + alpha - x for x in xs]
        for n in range(1, m):
            c1, c2, d = 2 * n + 1 + alpha, n + alpha, n + 1
            prev, lag = lag, [((c1 - x) * ln - c2 * lp) / d
                              for x, ln, lp in zip(xs, lag, prev)]
    beta = 0.5 * two_beta
    log_rho_star = math.log(2.0 * p0 / two_beta / top_rho)
    exps = [math.exp(p0 * (lr - log_rho_star) + (p0 - beta * rho)) for rho, lr in zip(rhos, logs)]
    if math.isfinite(sum(lag)):
        return [e * ln for e, ln in zip(exps, lag)]
    return [e * ln if e or math.isfinite(ln) else 0.0 for e, ln in zip(exps, lag)]


def _laguerre_shape(poly: ExpoPoly) -> tuple[float, float, int, float, complex]:
    """(p0, alpha, M, 2 beta, t) of poly = c rho^p0 e^(-beta rho)
    L_M^(alpha)(2 beta rho), alpha = 2 p0 - 1, with t its top coefficient.

    poly must have M+1 decayed terms with one decay index and consecutive
    offsets j, alpha > -1 and 2 beta > 0. Its rho^(p0+i) coefficients then obey

        coef_i = -coef_(i+1) (i+1)(alpha+i+1) / ((M-i) 2 beta).

    Raises ValueError when poly does not have that shape, and PrecisionLoss
    when a coefficient departs from the recurrence, run down from t, by more
    than LAGUERRE_TOL times the largest coefficient.
    """
    terms = poly.terms
    if not terms:
        raise ValueError("the zero function is not a Laguerre function")
    j0, k, _ = terms[0]
    if k is None:
        raise ValueError("a Laguerre function needs an exponential decay")
    j = j0
    for tj, tk, _ in terms:
        if tj != j or tk != k:
            raise ValueError("a Laguerre function has one decay index "
                             "and consecutive powers")
        j += 1
    a, b = poly.a, poly.b
    p0 = a + j0
    alpha = 2.0 * p0 - 1.0
    if not alpha > -1.0:
        raise ValueError(f"lowest power p0 = {p0} gives alpha = 2 p0 - 1 = {alpha}, "
                         "not above -1")
    m = len(terms) - 1
    two_beta = 2.0 * b / (a + k)
    if not two_beta > 0.0:
        raise ValueError(f"decay rate 2 beta = 2 b/(a+k) = {two_beta} is not above 0")
    top = terms[-1][2]
    expect, worst = top, 0.0
    for i in range(m - 1, -1, -1):
        expect = -expect * ((i + 1) * (alpha + i + 1) / ((m - i) * two_beta))
        d = abs(terms[i][2] - expect)
        # d > worst skips a NaN departure exactly as max(worst, d) does
        if d > worst:
            worst = d
    scale = poly.max_abs_coeff()
    if worst > LAGUERRE_TOL * scale:
        raise PrecisionLoss(f"coefficients depart from the Laguerre form by "
                            f"{worst / scale:.3e} of the largest "
                            f"(tolerance {LAGUERRE_TOL:.0e})")
    return p0, alpha, m, two_beta, top


def eval_rows(polys, rhos) -> np.ndarray:
    """Samples of each poly at rhos, one row per poly: an array of shape
    (len(polys),) + rhos.shape.

    The terms of a poly that share k are one polynomial in rho, taken by
    Horner's rule over the steps of j and times exp(-beta*rho) and rho to
    the group's lowest power. Each row runs its groups in term order, so it
    equals sampling its poly alone, bit for bit. Numpy casts a float operand
    on every complex multiply, so the grid is cast to complex once per call,
    and each distinct power and decay array is made once per call, keyed by
    its float exponent or rate, and cast when it is made; only a Horner step
    over a gap in j, which no chain has, multiplies by a float power. Each
    group's steps pop from it, top down. The first step multiplies the top
    coefficient, a Python complex, by rho**gap, which makes the group's
    array without a constant array first: complex multiplication commutes
    bit for bit. A one-term group starts from a constant array.

    Calls are small: 1 row at 4096 points (interior_zeros), 3 at 1024 (the
    quadrature check), or the 4 rows of SpinorFn.eval_array at 512 points
    in the benchmark, whose components 0/2 and 1/3 share factors. Such calls
    pay little beyond the arithmetic: the grid is checked by its min and max,
    and each row's terms are grouped in one pass. An empty grid passes the
    check and samples as shape (len(polys), 0).
    """
    import numpy as np

    rhos = np.asarray(rhos, dtype=float)
    # NaN propagates through both reductions, so it fails the check too.
    if rhos.size and not (rhos.min() > 0 and rhos.max() < np.inf):
        raise DomainError("all sample points must be finite and positive")
    out = np.zeros((len(polys),) + rhos.shape, dtype=complex)
    powers: dict[float, np.ndarray] = {}
    decays: dict[float, np.ndarray] = {}
    steps = rhos.astype(complex)
    with np.errstate(under="ignore"):
        for total, poly in zip(out, polys):
            groups: dict[int | None, list[tuple]] = {}
            for term in poly.terms:
                k = term[1]
                group = groups.get(k)
                if group is None:
                    groups[k] = [term]
                else:
                    group.append(term)
            for k, group in groups.items():
                top, _, acc = group.pop()
                if not group:
                    acc = np.full(rhos.shape, acc)
                while group:
                    j, _, coeff = group.pop()
                    acc *= steps if top - j == 1 else rhos ** (top - j)
                    acc += coeff
                    top = j
                x = top if k is None else poly.a + top
                if x not in powers:
                    powers[x] = (rhos ** x).astype(complex)
                acc *= powers[x]
                if k is not None:
                    x = poly.b / (poly.a + k)
                    if x not in decays:
                        decays[x] = np.exp(-x * rhos).astype(complex)
                    acc *= decays[x]
                total += acc
    return out


def apply_operator(dcoef, potential, components) -> tuple[ExpoPoly, ...]:
    """Rows of (dcoef d/drho + potential) applied to the column of components.

    dcoef is a square matrix of constants and potential a matrix of pure
    Laurent polynomials, both as nested sequences. Row i equals ExpoPoly.sum
    of the parts dcoef[i][j] * f_j' and f_j.mul_laurent(potential[i][j]), in
    column order, bit for bit: each part is accumulated as its own map, as
    differentiate and mul_laurent do, and the maps are added into one dict
    per row and sorted once. A zero multiplier or potential contributes no
    part, and a unit multiplier adds f_j' unscaled, which also keeps an
    infinite coefficient from turning into NaN through x * (1+0j). The exact
    zeros a part map keeps, where the canonical part would have dropped them,
    change no bit, because every accumulated coefficient starts at 0j and so
    has no -0.0 part.

    So each key of a row is a sum over the parts, in column order,
    derivative before potential; a derivative key sums at most two products,
    -c_j beta before c_(j+1) p_(j+1), and a potential's own map sums one
    product per potential term, in that potential's term order, before the
    row adds it. The float result of a key depends on that order alone,
    not on the order in which the keys are visited. nonrel.eigenfunction
    and dirac._lowered_kernel take the same sums over coefficient lists,
    in floats on each component's one axis (real or imaginary), with each
    potential's coefficients read from the helpers it is built from
    (params.w_coeffs, dirac._delta), so they build no operator and call no
    apply_operator. They keep every finite coefficient's bits; where a
    coefficient overflows, they read inf or NaN on its axis and 0.0 off it,
    where the rows here read nan+nanj.
    """
    a, b = components[0].a, components[0].b
    derivs = [_deriv_map(f.terms, a, b) for f in components]
    rows = []
    for crow, prow in zip(dcoef, potential, strict=True):
        acc: dict[tuple, complex] = {}
        for c, pot, f, deriv in zip(crow, prow, components, derivs, strict=True):
            if c == 1:
                _add(acc, deriv)
            elif c != 0:
                for key, coeff in deriv.items():
                    acc[key] = acc.get(key, 0j) + coeff * c
            if pot.terms:
                if pot.a != a or pot.b != b:
                    _check_context(a, b, pot)
                _add(acc, _laurent_map(f.terms, pot.terms))
        rows.append(_from_map(a, b, acc))
    return tuple(rows)


def _deriv_map(terms, a: float, b: float) -> dict[tuple, complex]:
    """{(j, k): coeff} of d/d(rho) of canonical terms, accumulated in term order."""
    acc: dict[tuple, complex] = {}
    for j, k, coeff in terms:
        p = j if k is None else a + j
        if p != 0.0:
            key = (j - 1, k)
            acc[key] = acc.get(key, 0j) + coeff * p
        beta = 0.0 if k is None else b / (a + k)
        if beta != 0.0:
            key = (j, k)
            acc[key] = acc.get(key, 0j) + -coeff * beta
    return acc


def _laurent_map(terms, laurent) -> dict[tuple, complex]:
    """{(j, k): coeff} of terms times the pure Laurent terms, accumulated
    multiplier term by multiplier term."""
    acc: dict[tuple, complex] = {}
    for qj, qk, qcoeff in laurent:
        if qk is not None:
            raise ValueError("multiplier must be a pure Laurent polynomial "
                             "(no exponential decay)")
        for j, k, coeff in terms:
            key = (j + qj, k)
            acc[key] = acc.get(key, 0j) + coeff * qcoeff
    return acc


def _sum(a: float, b: float, parts) -> ExpoPoly:
    acc: dict[tuple, complex] = {}
    for part in parts:
        _check_context(a, b, part)
        for j, k, coeff in part.terms:
            key = (j, k)
            acc[key] = acc.get(key, 0j) + coeff
    return _from_map(a, b, acc)


def _add(acc: dict[tuple, complex], part: dict[tuple, complex]) -> None:
    for key, coeff in part.items():
        acc[key] = acc.get(key, 0j) + coeff


def _order(key: tuple) -> tuple:
    """Canonical sort key of a (j, k) key: by j, the Laurent term before
    decayed ones, then by k."""
    j, k = key
    return (j, k is not None, 0 if k is None else k)


# The slot descriptors of ExpoPoly's fields: setting through them skips the
# record's frozen __setattr__.
_set_a = ExpoPoly.a.__set__
_set_b = ExpoPoly.b.__set__
_set_terms = ExpoPoly.terms.__set__


def _wrap(a: float, b: float, terms: tuple[tuple, ...]) -> ExpoPoly:
    """An ExpoPoly around terms already in canonical form, past the constructor."""
    poly = object.__new__(ExpoPoly)
    _set_a(poly, a)
    _set_b(poly, b)
    _set_terms(poly, terms)
    return poly


def _sorted_terms(acc: dict[tuple, complex]) -> tuple[tuple, ...]:
    """The nonzero entries of a {(j, k): coeff} map as sorted terms.

    Items sort by their keys' natural tuple order, through a C key and no
    Python key call, and each coefficient is read once and never compared.
    That is _order's order wherever it is defined: keys are distinct, so
    two that share j differ in k, and two integer k compare as _order
    compares them. Only a None k against an integer one is undefined, when
    one j holds both kinds. Then (j, None) and (j, least k) are adjacent in
    _order, and a comparison sort must compare every adjacent pair of its
    result, so the natural sort raises TypeError and the items are sorted
    by _order instead.
    """
    try:
        items = sorted(acc.items(), key=_first)
    except TypeError:
        items = sorted(acc.items(), key=lambda item: _order(item[0]))
    return tuple([(j, k, coeff) for (j, k), coeff in items if coeff != 0j])


def _from_map(a: float, b: float, acc: dict[tuple, complex]) -> ExpoPoly:
    return _wrap(a, b, _sorted_terms(acc))


def _canonicalize(a: float, b: float, terms) -> tuple[tuple, ...]:
    """Merge outside terms by key and sort them, dropping only exact zeros.

    Every key starts at 0j, and 0.0 + -0.0 is 0.0, so no stored coefficient
    has a -0.0 part. Multiplying such a finite complex by 1 returns it bit
    for bit, which lets operator applications skip unit multipliers.
    """
    acc: dict[tuple, complex] = {}
    for j, k, coeff in terms:
        _check_key(a, j, k)
        key = (j, k)
        acc[key] = acc.get(key, 0j) + complex(coeff)
    return _sorted_terms(acc)
