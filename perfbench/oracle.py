"""Independent limits of the benchmark's problems, from closed forms
evaluated by mpmath at 50 digits.  Nothing here calls seqaccel."""

from __future__ import annotations

import mpmath

DPS = 50
#: Largest relative disagreement allowed between ``generate_problem(...).limit``
#: and the closed form before an op counts as failed.
LIMIT_RTOL = 1e-13


def _num(x):
    return mpmath.mpc(x) if isinstance(x, complex) else mpmath.mpf(x)


def limit(family, params):
    """The (anti)limit of a corpus problem as an mpmath number, or None."""
    with mpmath.workdps(DPS):
        if family == "zeta_dirichlet":
            return mpmath.zeta(_num(params["z"]))
        if family == "euler_factorial":
            # sum k! (-x)^k is assigned (1/x) e^(1/x) E1(1/x)
            u = 1 / _num(params["x"])
            return u * mpmath.exp(u) * mpmath.e1(u)
        if family == "power_series":
            z = _num(params["z"])
            name = params["name"]
            if name == "exp":
                return mpmath.exp(z)
            if name == "log1p":
                return mpmath.log1p(z)
            if name == "geometric":
                return 1 / (1 - z)
            raise ValueError(f"no closed form for power series {name!r}")
        if family in ("decay_model", "geometric", "exponential_sum"):
            return _num(params.get("s", 0.0))
    raise ValueError(f"no closed form for family {family!r}")


def limit_agrees(program_limit, reference) -> bool:
    """True when the program's limit matches the closed form to LIMIT_RTOL."""
    if program_limit is None:
        return False
    with mpmath.workdps(DPS):
        err = abs(_num(program_limit) - reference)
        return err <= LIMIT_RTOL * max(abs(reference), 1)
