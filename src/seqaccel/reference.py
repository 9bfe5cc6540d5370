"""Independent oracles and canonical problem generators.

Nothing here goes through a sequence transformation, so these values can
sit on the other side of an equality test: the Euler-Maclaurin tail gives
zeta(z) to near machine accuracy for Re z > 1, and the closed form of the
Stieltjes integral gives the sum the divergent factorial series should be
assigned.
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from typing import Mapping

from .core import PowerSeries, Record, Scalar, SequenceSample, check_integer, make_partial_sums
from .errors import DomainError, InvalidParameterError


@cache
def _bernoulli_even() -> tuple:
    """B_2, B_4, .., B_40 as floats.

    From the defining recurrence ``B_m = -1/(m+1) * sum_{j<m} C(m+1, j) B_j``
    (B_1 = -1/2) on reduced integer pairs (numerator, positive
    denominator); the float of a pair is ``num / den``, which Python
    rounds correctly, as ``float(Fraction)`` does.
    """
    nums, dens = [1], [1]
    for m in range(1, 41):
        den = math.lcm(*dens)
        num = -sum(
            math.comb(m + 1, j) * n * (den // d) for j, (n, d) in enumerate(zip(nums, dens))
        )
        den *= m + 1
        g = math.gcd(num, den)
        nums.append(num // g)
        dens.append(den // g)
    return tuple(n / d for n, d in zip(nums[2::2], dens[2::2]))


def pochhammer(z: Scalar, m: int) -> Scalar:
    """The rising factorial (z)_m = z (z+1) ... (z+m-1); (z)_0 = 1."""
    check_integer("m", m, 0)
    acc = 1.0
    for i in range(m):
        acc = acc * (z + i)
    return acc


def _real_part(z: Scalar) -> float:
    return z.real if isinstance(z, complex) else float(z)


def euler_maclaurin_zeta(z: Scalar, n: int = 40, k: int = 12) -> Scalar:
    """zeta(z) for Re z > 1 from the Euler-Maclaurin tail of the Dirichlet series.

    Adds the partial sum through (n+1)^(-z) and the first k correction
    terms of the tail expansion at n+2.  The omitted remainder shrinks
    rapidly with n, so stability under (n, k) refinement bounds the
    truncation empirically.
    """
    if _real_part(z) <= 1:
        raise DomainError("the Dirichlet series for zeta converges only for Re z > 1")
    bernoulli = _bernoulli_even()
    check_integer("n", n, 0)
    check_integer("k", k, 1, len(bernoulli))
    partial = 0.0
    for nu in range(n + 1):
        partial = partial + (nu + 1) ** (-z)
    base = n + 2
    tail = base ** (1 - z) / (z - 1) + 0.5 * base ** (-z)
    for j in range(1, k + 1):
        coeff = bernoulli[j - 1] / math.factorial(2 * j)
        tail = tail + pochhammer(z, 2 * j - 1) * coeff * base ** (-z - 2 * j + 1)
    return partial + tail


_EULER_GAMMA = "0.57721566490153286060651209008240243104215933593992"


def euler_series_value(x: float) -> float:
    """The Stieltjes-integral sum assigned to ``sum_k k! (-x)^k``.

    ``integral_0^inf exp(-t) / (1 + x t) dt`` has the closed form
    ``y e^y E1(y)`` with ``y = 1/x``.  It is evaluated in 48-digit
    ``decimal`` arithmetic to within 1e-36 relative and rounded once to a
    float, so the result is correctly rounded (barring a value within
    1e-36 of a halfway point).  The series itself diverges for every
    x > 0; at ``x = inf`` the closed form is ``0 * inf`` and the result
    is nan.  The branches meet at y = 8, where they cost about the same.

    - y <= 8: ``E1(y) = -gamma - ln y - sum_k>=1 (-y)^k / (k k!)``
      (Abramowitz & Stegun 5.1.11), with ``e^-y = sum_k (-y)^k / k!`` from
      the same terms.  Both sums alternate, with terms falling once k > y,
      so each remainder is below the first omitted ``y^k / k!``, under
      1e-46, against E1(y) > 3.7e-5 and e^-y > 3.3e-4.  The terms reach
      ``8^8 / 8! < 420``, so cancellation costs under 7 of the 48 digits.
    - y > 8: the Stieltjes fraction ``1 / (1 + x / (1 + x / (1 + 2x /
      (1 + 2x / (1 + 3x / ...)))))`` for ``y e^y E1(y)`` (A&S 5.1.22;
      Cuyt et al., Handbook of Continued Fractions for Special Functions,
      14.1).  Its coefficients are positive, so successive convergents
      bracket the value; it stops when they differ by under 1e-40, their
      difference taken from ``A_m B_(m-1) - A_(m-1) B_m = +-a_1 ... a_m``.
    """
    if not x > 0:
        raise DomainError("the Stieltjes integral needs x > 0")
    if x == math.inf:
        return math.nan
    from decimal import Context, Decimal, localcontext  # only Euler problems pay for it

    with localcontext(Context(prec=48)) as ctx:
        xd = ctx.create_decimal_from_float(float(x))
        if x >= 0.125:
            z = -1 / xd
            k, p, s, e = 1, z, z, 1 + z  # p = z^k / k!, s = sum p / k, e = sum p
            tiny = Decimal("1e-46")
            while abs(p) >= tiny:
                k += 1
                p = p * z / k
                s += p / k
                e += p
            # ln y = l0 + ln(y e^-l0) from a float l0: libmpdec's ln is quick near 1
            l0 = Decimal(math.log(-z))
            return float(z * (Decimal(_EULER_GAMMA) + l0 + (-z * (-l0).exp()).ln() + s) / e)
        # a_1 = 1, a_2j = a_2j+1 = j x; (p, q) = A_(2j-2), A_(2j-1), (r, s) the B's
        a, p, q, r, s = 0, 0, 1, 1, 1
        root = Decimal("1e20")  # (a_1 ... a_2j+1 / 1e-40)^(1/2); r <= s
        while root >= r:
            a += xd
            p = q + a * p
            q = p + a * q
            r = s + a * r
            s = r + a * s
            root *= a
        return float(q / s)


_POWER_SERIES = {
    "exp": {
        "coefficient": lambda k: 1.0 / math.factorial(k),
        "limit": lambda z: cmath.exp(z) if isinstance(z, complex) else math.exp(z),
    },
    "log1p": {
        # log(1+z) = z - z^2/2 + z^3/3 - ...
        "coefficient": lambda k: 0.0 if k == 0 else (-1.0) ** (k + 1) / k,
        "limit": lambda z: cmath.log(1 + z) if isinstance(z, complex) else math.log1p(z),
    },
    "geometric": {
        "coefficient": lambda k: 1.0,
        "limit": lambda z: 1.0 / (1.0 - z),
    },
}

def power_series_coefficients(name: str, count: int) -> list:
    """Coefficients gamma_0 .. gamma_{count-1} of a named power series."""
    check_integer("count", count)
    try:
        series = _POWER_SERIES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown power series {name!r}; choose from {', '.join(_POWER_SERIES)}"
        ) from None
    return [series["coefficient"](k) for k in range(count)]


#: Each family's parameters and their defaults; ``None`` marks a required one.
PROBLEM_FAMILIES = {
    "zeta_dirichlet": {"z": None},
    "power_series": {"name": None, "z": None},
    "euler_factorial": {"x": None},
    "decay_model": {"alpha": None, "beta": 1.0, "c0": 1.0, "c1": 0.0, "s": 0.0},
    "geometric": {"c": None, "lam": None, "s": 0.0},
    "exponential_sum": {"c": None, "lam": None, "s": 0.0},
}


class ProblemSpec(Record):
    """A named test problem: family, parameters, and length N (indices 0..N)."""

    family: str
    length: int
    params: Mapping = {}  # __post_init__ copies it, so no instance shares it

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        if self.family not in PROBLEM_FAMILIES:
            raise InvalidParameterError(
                f"unknown problem family {self.family!r}; "
                f"choose from {', '.join(PROBLEM_FAMILIES)}"
            )
        check_integer("length N", self.length, 0)
        unknown = set(self.params) - set(PROBLEM_FAMILIES[self.family])
        if unknown:
            raise InvalidParameterError(f"{self.family} does not take parameters {sorted(unknown)}")

    def describe(self) -> str:
        inner = ":".join(
            f"{key}={value}" for key, value in sorted(self.params.items())
        )
        parts = [self.family, inner, f"N={self.length}"]
        return ":".join(p for p in parts if p)


def _param(spec: ProblemSpec, name: str):
    """The parameter ``name`` of ``spec``, else its family's default."""
    value = spec.params.get(name, PROBLEM_FAMILIES[spec.family][name])
    if value is None:
        raise InvalidParameterError(f"{spec.family} needs parameter {name!r}")
    return value


def _checked(build, spec: ProblemSpec):
    """``build(spec)``, overflows and wrong-kind parameters raised as ``InvalidParameterError``."""
    try:
        return build(spec)
    except OverflowError as exc:
        raise InvalidParameterError(
            f"{spec.describe()}: an element overflows double precision ({exc})"
        ) from exc
    except TypeError as exc:  # a list where a number belongs, or the reverse
        raise InvalidParameterError(
            f"{spec.describe()}: a parameter has the wrong kind ({exc})"
        ) from exc


def generate_problem(spec: ProblemSpec) -> SequenceSample:
    """Terms, partial sums, and the known (anti)limit for a corpus problem."""
    if spec.family in ("power_series", "euler_factorial"):
        series, limit = problem_series(spec)
        return series.sample(limit)
    return _checked(_generate, spec)


def problem_series(spec: ProblemSpec) -> tuple:
    """The ``(PowerSeries, limit)`` of a power_series or euler_factorial problem;
    the limit is ``None`` at a pole or branch point."""
    return _checked(_series, spec)


def _series(spec: ProblemSpec) -> tuple:
    if spec.family == "power_series":
        name, z = _param(spec, "name"), _param(spec, "z")
        coefficients = power_series_coefficients(name, spec.length + 1)
        try:
            limit = _POWER_SERIES[name]["limit"](z)
        except (ValueError, ZeroDivisionError):
            limit = None  # pole or branch point: no limit attached
    elif spec.family == "euler_factorial":  # sum_k k! (-x)^k
        z = _param(spec, "x")
        if not z > 0:
            raise InvalidParameterError("euler_factorial needs x > 0")
        coefficients = [math.factorial(k) * (-1.0) ** k for k in range(spec.length + 1)]
        limit = euler_series_value(z)
    else:
        raise InvalidParameterError(
            "pade needs a power_series or euler_factorial problem, or --coeffs"
        )
    return PowerSeries(tuple(coefficients), z), limit


def _generate(spec: ProblemSpec) -> SequenceSample:
    count = spec.length + 1
    family = spec.family

    if family == "zeta_dirichlet":
        z = _param(spec, "z")
        if _real_part(z) <= 1:
            raise InvalidParameterError("zeta_dirichlet needs Re z > 1")
        terms = [(nu + 1) ** (-z) for nu in range(count)]
        return make_partial_sums(terms, euler_maclaurin_zeta(z))

    s = _param(spec, "s")
    if family == "decay_model":
        alpha = _param(spec, "alpha")
        beta = _param(spec, "beta")
        c0 = _param(spec, "c0")
        c1 = _param(spec, "c1")
        if not alpha > 0 or not beta > 0:
            raise InvalidParameterError("decay_model needs alpha > 0 and beta > 0")
        values = [
            s + (n + beta) ** (-alpha) * (c0 + c1 / (n + beta)) for n in range(count)
        ]
        return SequenceSample(tuple(values), limit=s)

    if family == "geometric":
        c = _param(spec, "c")
        lam = _param(spec, "lam")
        values = [s + c * lam ** n for n in range(count)]
    else:  # exponential_sum
        cs = list(_param(spec, "c"))
        lams = list(_param(spec, "lam"))
        if len(cs) != len(lams) or not cs:
            raise InvalidParameterError(
                "exponential_sum needs equally long nonempty 'c' and 'lam' lists"
            )
        values = [
            s + sum(cj * lj ** n for cj, lj in zip(cs, lams)) for n in range(count)
        ]
    # values first: the terms are their differences
    terms = (values[0], *(b - a for a, b in zip(values, values[1:])))
    return SequenceSample(tuple(values), terms, s)
