"""Multivariate polynomials with exact rational coefficients.

Two jobs.  It is the differentiation oracle: formal partial derivatives,
evaluation and ``hessian_matrix`` give an independent route to the
Hessians that ``spectra.tilde_hessian`` assembles from forest counts, and
the tests compare the two.  And it supplies the Lefschetz operators: a
monomial x^a acts on a polynomial as the iterated partial d^a, which the
catalecticants and higher Hessians of ``lefschetz`` are built from.
Exponent vectors are dense tuples; variable counts stay small here (at
most a few dozen edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .linalg import ExactMatrix, Rational, _frac

ExponentVector = tuple[int, ...]


def _falling(b: int, a: int) -> int:
    """b (b-1) ... (b-a+1); the coefficient picked up by d^a on x^b."""
    out = 1
    for i in range(a):
        out *= b - i
    return out


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Immutable polynomial over an ordered variable tuple.

    ``terms`` maps exponent vectors (one entry per variable, in order) to
    nonzero rational coefficients.
    """

    variables: tuple[Hashable, ...]
    terms: dict[ExponentVector, Fraction]

    def __post_init__(self) -> None:
        nvars = len(self.variables)
        clean: dict[ExponentVector, Fraction] = {}
        for exps, coeff in self.terms.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _frac(coeff)
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[Hashable]) -> "Polynomial":
        return cls(tuple(variables), {})

    @classmethod
    def constant(cls, variables: Sequence[Hashable], value: Rational) -> "Polynomial":
        return cls(tuple(variables), {(0,) * len(variables): _frac(value)})

    @classmethod
    def monomial(
        cls, variables: Sequence[Hashable], exps: Sequence[int], coeff: Rational = 1
    ) -> "Polynomial":
        return cls(tuple(variables), {tuple(exps): _frac(coeff)})

    @classmethod
    def variable(cls, variables: Sequence[Hashable], var: Hashable) -> "Polynomial":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(var)] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    # -- structure -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        if self.is_zero():
            raise ValueError("the zero polynomial has no homogeneous degree")
        if not self.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        return self.total_degree()

    def is_square_free(self) -> bool:
        return all(e <= 1 for exps in self.terms for e in exps)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def term_count(self) -> int:
        return len(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check_vars(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise ValueError("polynomials live over different variable lists")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(self.variables, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def scale(self, c: Rational) -> "Polynomial":
        cf = _frac(c)
        return Polynomial(self.variables, {e: cf * v for e, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_vars(other)
        out: dict[ExponentVector, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return Polynomial(self.variables, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                f"x[{v}]" if e == 1 else f"x[{v}]^{e}"
                for v, e in zip(self.variables, exps)
                if e
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def partial_derivative(p: Polynomial, var: Hashable) -> Polynomial:
    """Formal partial derivative with respect to one variable."""
    if var not in p.variables:
        raise ValueError(f"unknown variable {var!r}")
    i = p.variables.index(var)
    out: dict[ExponentVector, Fraction] = {}
    for exps, c in p.terms.items():
        e = exps[i]
        if e:
            reduced = exps[:i] + (e - 1,) + exps[i + 1 :]
            out[reduced] = out.get(reduced, Fraction(0)) + c * e
    return Polynomial(p.variables, out)


def apply_monomial_operator(p: Polynomial, exps: Sequence[int]) -> Polynomial:
    """Apply the iterated partial derivative d^exps to ``p``."""
    exps = tuple(exps)
    if len(exps) != len(p.variables):
        raise ValueError("operator exponent vector has wrong length")
    out: dict[ExponentVector, Fraction] = {}
    for beta, c in p.terms.items():
        mult = 1
        for b, a in zip(beta, exps):
            if b < a:
                mult = 0
                break
            mult *= _falling(b, a)
        if mult:
            reduced = tuple(b - a for b, a in zip(beta, exps))
            out[reduced] = out.get(reduced, Fraction(0)) + c * mult
    return Polynomial(p.variables, out)


def apply_diff_operator(op: Polynomial, target: Polynomial) -> Polynomial:
    """Apply op(d/dx_1, ..., d/dx_N) to ``target``.

    Linear in the operator: each operator monomial acts as an iterated
    partial derivative scaled by its coefficient.
    """
    if op.variables != target.variables:
        raise ValueError("operator and target live over different variable lists")
    result = Polynomial.zero(target.variables)
    for exps, c in op.terms.items():
        result = result + apply_monomial_operator(target, exps).scale(c)
    return result


def _point_values(p: Polynomial, point: Mapping[Hashable, Rational]) -> list[Fraction]:
    missing = [v for v in p.variables if v not in point]
    if missing:
        raise ValueError(f"point misses {len(missing)} variable(s), e.g. {missing[0]!r}")
    return [_frac(point[v]) for v in p.variables]


def evaluate(p: Polynomial, point: Mapping[Hashable, Rational]) -> Fraction:
    """Exact value of ``p`` at a full assignment of the variables."""
    values = _point_values(p, point)
    total = Fraction(0)
    for exps, c in p.terms.items():
        v = c
        for x, e in zip(values, exps):
            if e:
                v *= x**e
        total += v
    return total


def all_ones_point(p: Polynomial) -> dict[Hashable, Fraction]:
    one = Fraction(1)
    return {v: one for v in p.variables}


def hessian_matrix(p: Polynomial, point: Mapping[Hashable, Rational]) -> ExactMatrix:
    """Matrix of second partials of ``p`` evaluated at ``point``, indexed by
    the canonical variable order.

    One pass over the terms: the term c x^a contributes
    c a_i (a_j - [i=j]) x^(a - e_i - e_j) to entry (i, j).
    """
    values = _point_values(p, point)
    ones = all(v == 1 for v in values)
    n = len(p.variables)
    h = [[Fraction(0)] * n for _ in range(n)]
    for exps, c in p.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        for i in support:
            ei = exps[i]
            for j in support:
                if j < i:
                    continue
                mult = ei * (exps[j] - (i == j))
                if not mult:
                    continue
                v = c * mult
                if not ones:
                    for t in support:
                        e = exps[t] - (t == i) - (t == j)
                        if e:
                            v *= values[t] ** e
                h[i][j] += v
    for i in range(n):
        for j in range(i + 1, n):
            h[j][i] = h[i][j]
    return ExactMatrix.from_rows(h)
