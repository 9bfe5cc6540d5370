"""Sequence containers, triangular transform tables, paths, and numerical guards.

Every transformation in this package maps a finite sequence prefix ``s_0 ..
s_N`` to a doubly indexed triangular array ``T_k^(n)``.  The subscript ``k``
is the transformation order, the superscript ``n`` is the smallest sequence
index entering the entry, and column 0 always repeats the input (``T_0^(n) =
s_n``).  ``build_table`` makes every table, whose columns one loop builds on
demand; ``compute_column`` (a column and its ``bytes`` mask, 1 where valid)
is the one place an entry turns invalid; a table's ``lookahead`` gives every
entry's data budget.  Scalars from outside pass one edge check,
``finite_scalars``.  A rule that divides by data returns its numerators,
denominators and bases, and ``compute_column`` divides them with the table's
guard: entries that meet a near-zero denominator, or a non-finite value, are
flagged invalid, and invalidity propagates to every dependent entry.
"""

from __future__ import annotations

import math
import operator
import sys
from _thread import allocate_lock
from contextlib import nullcontext
from functools import partial
from itertools import accumulate, chain, compress, count, repeat, takewhile
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    ConsistencyError,
    EmptyInputError,
    InvalidParameterError,
    PathRangeError,
)

#: Any numeric type closed under +, -, *, / with a magnitude via abs().
#: The package is written against plain double precision; apart from an
#: ``int``, which the edge check makes a ``float``, no scalar is coerced, so
#: extended-precision scalars such as ``mpmath.mpf`` pass through untouched.
Scalar = Union[float, complex]

_CONSISTENCY_RTOL = 1e-9
_DOUBLE_MAX = sys.float_info.max


def is_finite(value: Scalar) -> bool:
    """True unless value is a NaN or an infinity, of any scalar type.

    ``x * 0`` is zero exactly when ``x`` is finite (for ``float``,
    ``complex``, ``mpmath.mpf`` and ``mpc`` alike), so no type is named.
    """
    return value * 0 == 0


def magnitude(value: Scalar):
    """``abs(value)``, or ``inf`` where a complex of finite parts overflows its modulus."""
    try:
        return abs(value)
    except OverflowError:
        return math.inf


def constant_type(operands: Iterable) -> Callable:
    """The conversion of a kernel's ``int`` and ``float`` constants where they meet
    ``operands``: to ``float`` for ``float`` and ``complex`` operands, to their own type
    where all share one that keeps its type times a float and has real moduli
    (``mpmath.mpf``, not ``Fraction`` or ``mpc``), and only where exact; any other
    constant, or column, keeps it as it is: each the conversion the mixed operation makes.
    An ``int`` operand, a kernel's constant such as the lozenge's 1, takes the others' type."""
    kinds = set(map(type, operands))
    if len(kinds) > 1:
        kinds.discard(int)
    kind = float if kinds <= {float, complex} else kinds.pop() if len(kinds) == 1 else None
    try:
        own = kind is float or type(kind(1) * 1.0) is kind is type(abs(kind(1)))
    except TypeError:  # no one type, or one not made from an int or without float arithmetic
        own = False
    return partial(_lifted, kind if own else None)


def _lifted(kind, constant):
    if kind is None or type(constant) not in (int, float):
        return constant
    lifted = kind(constant)
    return lifted if lifted == constant else constant


def finite_entries(values: list) -> list:
    """``values`` with every entry whose modulus is not finite replaced by ``None``.

    One pass over the nonzero entries (``None`` is skipped) clears the
    common case.  For ``float`` it is a sum, finite only when every entry
    is; a column that holds a ``complex`` sums the ``abs`` of each entry
    instead, as a complex of finite parts can overflow its modulus (then
    ``abs`` raises); for other types, such as ``mpmath.mpf``, whose
    additions cost more than a product with zero, it looks for an ``x * 0``
    that is not zero.  A column that fails the pass (a sum of finite
    entries can overflow) has each entry checked on its own.  A mask of the
    result tests ``v is not None``: ``None in`` calls ``mpf.__eq__`` per entry.
    Only ``core`` calls it: ``compute_column``, ``finite_scalars`` and ``make_partial_sums``.
    """
    present = filter(None, values)
    if type(next(filter(None, reversed(values)), 0.0)) in (float, complex):
        total = sum(present)
        try:
            clear = is_finite(total if type(total) is float else sum(map(abs, filter(None, values))))
        except OverflowError:  # the modulus of a complex of finite parts
            clear = False
    else:
        clear = not any(map(operator.mul, present, repeat(0)))
    if clear:
        return values
    return [v if v is None or is_finite(magnitude(v)) else None for v in values]


def finite_scalars(values: Iterable, what: str) -> tuple:
    """``values`` as a tuple, each ``int`` made a ``float``, when each is a finite number:
    a ``float``, ``int`` or ``complex`` needs its modulus in the double range."""
    values = tuple(values)
    kinds = set(map(type, values))
    if int in kinds:  # nan stands in for an int beyond the double range
        values = tuple([v if type(v) is not int else float(v) if abs(v) <= _DOUBLE_MAX
                        else math.nan for v in values])
    if _numbers(kinds, values):
        checked = finite_entries(values)  # one sum unless an entry fails
        if checked is values or None not in checked:
            return values
    raise InvalidParameterError(f"{what} is not a finite number in the double range")


def _numbers(kinds: set, values: tuple) -> bool:
    """One value of each type in ``kinds`` but ``float``, ``int`` and ``complex`` has
    ``x * 0 == 0``: for a ``str`` or a ``tuple`` the product is empty, for ``None`` it raises."""
    try:
        return all(next(v for v in values if type(v) is kind) * 0 == 0
                   for kind in kinds - {float, int, complex})
    except TypeError:
        return False


def _in_double_range(value, zero_ok: bool = False) -> bool:
    """``value`` is a real number in (0, max double], or in [0, max double] when
    ``zero_ok``; a ``complex``, a ``str`` or a ``tuple`` is not."""
    try:
        return not isinstance(value, complex) and (
            0 <= value if zero_ok else 0 < value) and value <= _DOUBLE_MAX
    except TypeError:
        return False


def check_positive(name: str, value, values: Iterable = ()):
    """Reject a parameter that is not a real number in (0, inf) within the double range;
    return it lifted into ``constant_type(values)``, the type of the sample it meets."""
    if not _in_double_range(value):
        raise InvalidParameterError(f"{name} must be positive and finite")
    return constant_type(values)(value)


def check_integer(name: str, value, low: Optional[int] = None, high: Optional[int] = None) -> None:
    """Reject a parameter that is not an ``int`` (a ``float`` or a ``str`` is not),
    or that lies outside ``[low, high]``; a bound given as ``None`` is absent."""
    if not isinstance(value, int) or (low is not None and value < low) or (
            high is not None and value > high):
        bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise InvalidParameterError(f"{name} must be an integer{bounds}, got {value!r}")


class Record:
    """Base of the package's immutable value types.

    A subclass's fields are its base's fields, then its own annotated
    names, in order; a class value, when present, is the field's default.
    Construction binds positional and keyword arguments to the fields,
    then runs ``__post_init__`` (which may normalise a field with
    ``object.__setattr__``).  Records compare equal when their types are
    the same and their fields are equal, hash by their fields when each
    field hashes (a ``TransformTable``, ``reference.ProblemSpec`` or
    ``cli.RunConfig`` holds a list or a dict, and ``hash`` raises
    ``TypeError``), and refuse attribute assignment and deletion with
    ``dataclasses.FrozenInstanceError``.  Unlike ``dataclasses``, whose
    import and per-class code generation cost a cold CLI call more than
    its arithmetic, the base is plain Python.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs) -> None:
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        bound = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in bound:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            bound[name] = value
        for name in fields:
            if name in bound:
                value = bound[name]
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, *value) -> None:
        from dataclasses import FrozenInstanceError  # only this error path pays for it

        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


class GuardPolicy(Record):
    """Near-zero denominator detection for transform recursions.

    A denominator ``d`` trips the guard when it is exactly zero or when
    ``|d| < relative_threshold * max(1, |numerator|)``.  A tripped guard
    flags the affected table entry invalid; no division is attempted.
    """

    relative_threshold: float = 1e-14

    def __post_init__(self) -> None:
        if not _in_double_range(self.relative_threshold, zero_ok=True):
            raise InvalidParameterError("guard threshold must be a finite nonnegative number")

    def divide(self, nums, dens: Sequence, bases: Optional[Iterable] = None) -> list:
        """Row-wise ``base + num / den`` (``num / den`` without ``bases``).

        Only ``compute_column`` calls it, once per column: the one place the
        guard is evaluated, where a row whose denominator trips it is ``None``.
        ``nums`` is a list, or one scalar for every row whose bound ``threshold
        * max(1, |num|)`` is formed once.  A kernel of the form ``a - num /
        den`` returns ``-num``, since ``a + (-num) / den`` is the same number
        to the last bit.  The threshold and the 1 take the operands'
        ``constant_type``: after a ``float`` or ``complex`` first denominator,
        unscanned, as written; ``max`` is spelt out, its product skipped when
        ``|num| <= 1``, because a call per row costs more than the rest of
        the row.  A row whose ``abs`` overflows trips the guard too; the
        arguments, then read again, are lists or ``itertools.repeat`` objects.
        """
        scalar = not hasattr(nums, "__iter__")
        threshold, one = self.relative_threshold, 1.0
        if type(next(iter(dens), 0.0)) not in (float, complex):  # else not all one other type
            lift = constant_type(chain.from_iterable(zip(dens, repeat(nums) if scalar else nums)))
            threshold, one = lift(threshold), lift(one)
        bases = repeat(None) if bases is None else bases
        try:
            if scalar:
                bound = threshold * m if (m := abs(nums)) > one else threshold
                return [None if not d or abs(d) < bound else nums / d if b is None else b + nums / d
                        for d, b in zip(dens, bases)]
            return [
                None if not d or abs(d) < (threshold * m if (m := abs(n)) > one else threshold)
                else n / d if b is None else b + n / d
                for n, d, b in zip(nums, dens, bases)
            ]
        except OverflowError:  # the modulus of a complex of finite parts
            rows = list(zip(repeat(nums) if scalar else nums, dens, bases))
            if len(rows) == 1:
                return [None]
            return [q for n, d, b in rows for q in self.divide((n,), (d,), (b,))]


def _check_partial_sums(values: Sequence[Scalar], terms: Sequence[Scalar]) -> None:
    """Raise at the first n where ``s_n - s_{n-1}`` (``s_0`` at n = 0) is not ``a_n``.

    The difference is divided by ``max(1, |s_n|, |a_n|)`` before its modulus
    is taken, which may overflow otherwise; the maximum is spelt out, as in
    ``GuardPolicy.divide``, because a call to ``max`` per element costs more
    than the rest of the element.
    """
    diffs = [values[0], *map(operator.sub, values[1:], values)]
    bad = [
        n for n, v, got, want in zip(range(len(values)), map(abs, values), diffs, terms)
        if abs((got - want) / (v if v > (w := abs(want)) and v > 1.0 else w if w > 1.0 else 1.0))
        > _CONSISTENCY_RTOL
    ]
    if bad:
        n = bad[0]
        raise ConsistencyError(
            f"values are not the partial sums of terms at n={n}: "
            f"difference {diffs[n]!r} vs term {terms[n]!r}"
        )


class SequenceSample(Record):
    """A finite prefix ``s_0 .. s_N`` of a real or complex sequence.

    ``terms``, when present, are series terms ``a_k`` with
    ``s_n = a_0 + ... + a_n`` (checked on construction).  ``limit`` is a
    known limit or antilimit used for error reporting only.  Values, terms
    and limit pass the edge check ``finite_scalars``.  ``start_offset``
    drops that many leading elements once the whole input is checked, the
    usual remedy when the first few elements of a sequence behave
    irregularly; the values left are the partial sums of no stored term
    prefix, so such a sample has no terms.
    """

    values: tuple
    terms: Optional[tuple] = None
    limit: Optional[Scalar] = None

    def __init__(self, values, terms=None, limit=None, start_offset: int = 0) -> None:
        super().__init__(values, terms, limit)
        vars(self).update(vars(self.with_offset(start_offset)))

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", finite_scalars(self.values, "a sequence value"))
        if self.limit is not None:
            object.__setattr__(self, "limit", finite_scalars((self.limit,), "the limit")[0])
        if not self.values:
            raise EmptyInputError("a sequence sample needs at least one element")
        if self.terms is not None:
            object.__setattr__(self, "terms", finite_scalars(self.terms, "a series term"))
            if len(self.terms) != len(self.values):
                raise ConsistencyError(
                    f"{len(self.terms)} terms cannot produce {len(self.values)} partial sums"
                )
            _check_partial_sums(self.values, self.terms)

    def __len__(self) -> int:
        return len(self.values)

    def with_offset(self, start_offset: int) -> "SequenceSample":
        """This sample without its first ``start_offset`` elements, and without
        terms once any are gone; nothing is checked again."""
        check_integer("start_offset", start_offset, 0, len(self.values) - 1)
        sample = object.__new__(type(self))
        vars(sample).update(vars(self))
        if start_offset:
            vars(sample).update(values=self.values[start_offset:], terms=None)
        return sample


def make_partial_sums(terms: Sequence[Scalar], limit: Optional[Scalar] = None) -> SequenceSample:
    """The sample ``s_n = a_0 + ... + a_n`` of a series, the one place partial sums
    are formed; the terms are checked first, so a sum not finite overflowed."""
    terms = finite_scalars(terms, "a series term")
    if not terms:
        raise EmptyInputError("cannot form partial sums of an empty series")
    values = tuple(accumulate(terms))
    checked = finite_entries(values)
    if checked is not values and None in checked:
        raise InvalidParameterError(
            f"partial sum s_{checked.index(None)} overflows: "
            "not a finite number in the double range"
        )
    return SequenceSample(values, terms, limit)


class PowerSeries(Record):
    """Coefficients gamma_0..gamma_N of a (formal) power series and a point z."""

    coefficients: tuple
    z: Scalar

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", finite_scalars(self.coefficients, "a coefficient"))
        if not self.coefficients:
            raise InvalidParameterError("a power series needs at least one coefficient")
        object.__setattr__(self, "z", finite_scalars((self.z,), "z")[0])

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def sample(self, limit: Optional[Scalar] = None) -> SequenceSample:
        """The partial sums at ``z`` of the terms ``gamma_k z**k``, with ``limit``."""
        try:
            terms = [g * self.z ** k for k, g in enumerate(self.coefficients)]
        except OverflowError:  # a float or complex power beyond the double range
            raise InvalidParameterError(
                "a series term is not a finite number in the double range"
            ) from None
        return make_partial_sums(terms, limit)


class TransformTable(Record):
    """Triangular array ``T_k^(n)`` stored column-wise.

    ``columns[k][n - n_start]`` holds ``T_k^(n)``, and an entry is valid
    exactly when it is not ``None``; ``valid`` is derived from ``columns``.
    ``order_step`` is 2 for algorithms whose odd-order entries are mere
    auxiliary quantities (epsilon, theta, rho families); approximants then
    live in the even columns only.  ``lookahead`` counts the input elements
    an entry reads past its stencil (1 for a forward-difference estimate);
    ``consumed`` forms every budget from it.  Tables are frozen, and
    ``build_table`` alone makes them, each under its own name.

    A table builds a column when a read first needs it, so an
    ``order_constant`` walk of order k builds columns 0..k; a read of the
    whole table (``columns``, ``valid``, ``entries``, ``==``, ``repr``, a
    copy) completes it first.  Columns are added under a lock: threads may
    share a table.
    """

    name: str
    columns: list
    n_start: int = 0
    order_step: int = 1
    lookahead: int = 0

    def __getattr__(self, name: str):  # only a table being built has no columns yet
        if name != "columns" or "_work" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self._extend(self.max_order)

    def __getstate__(self) -> dict:  # a copy or a pickle holds the completed table
        self._extend(self.max_order)
        return vars(self)

    @property
    def valid(self) -> list:
        """Each column's validity flags, ``entry is not None``."""
        return [[v is not None for v in col] for col in self.columns]

    @property
    def max_order(self) -> int:
        work = vars(self).get("_work")
        return len(self.columns if work is None else work[0]) - 1

    @property
    def max_index(self) -> int:
        return self.n_start + self._length(0) - 1

    def has_entry(self, k: int, n: int) -> bool:
        check_integer("k", k)
        check_integer("n", n)
        return 0 <= k <= self.max_order and 0 <= n - self.n_start < self._length(k)

    def entry(self, k: int, n: int) -> Optional[Scalar]:
        if not self.has_entry(k, n):
            raise PathRangeError(f"table {self.name} has no entry ({k}, {n})")
        i = n - self.n_start
        return self._read((k,), slice(i, i + 1))[0][2]

    def is_valid(self, k: int, n: int) -> bool:
        return self.has_entry(k, n) and self.entry(k, n) is not None

    def approximant_orders(self) -> list:
        return list(range(0, self.max_order + 1, self.order_step))

    def column(self, k: int) -> list:
        """Entries of column ``k`` as ``(n, value, valid)`` triples."""
        check_integer("k", k)
        return [entry[1:] for entry in self._read((k,), slice(None))]

    def entries(self) -> Iterator[tuple]:
        yield from self._read(range(self.max_order + 1), slice(None))

    def _read(self, orders: Sequence[int], rows: slice) -> list:
        """``(k, n, value, valid)`` of the rows ``rows`` (counted from ``n_start``)
        of each column in ``orders``, which ascend; the one reader of the table's
        entries, which builds the columns through the last order it reads."""
        start, low, high = self.n_start, orders[0], orders[-1]
        if low < 0 or high > self.max_order:  # only a single order can lie outside
            raise PathRangeError(f"order {low} outside table orders [0, {self.max_order}]")
        columns = self._extend(high)
        return [(k, n, v, v is not None) for k in orders for n, v in zip(
            range(start, start + len(columns[k]))[rows], columns[k][rows])]

    def consumed(self, k: int, n: int) -> int:
        """Number of input elements consumed to compute ``T_k^(n)``."""
        if not self.has_entry(k, n):
            raise PathRangeError(f"table {self.name} has no entry ({k}, {n})")
        return n + self._length(0) + 1 + self.lookahead - self._length(k)

    def _length(self, k: int) -> int:  # known before the column is built
        work = vars(self).get("_work")
        return len(self.columns[k]) if work is None else work[0][k]

    def _extend(self, top: int) -> list:
        """The columns, built through order ``top`` one per pass under the lock, at
        mpmath's precision of the build and with its guard; once all are, the work
        goes.  The rules slot turns ``None`` once a column has no computable row, or a
        rule's exception, which every later read of a column not yet built raises."""
        state = vars(self)
        work = state.get("_work")  # [lengths, columns, masks, rules, lock, precision, guard]
        if work is None:
            return state["columns"]
        lengths, columns, masks, _, lock, precision, guard = work
        if len(columns) <= top:
            with lock, precision:
                while len(columns) <= top:  # unless another thread built it meanwhile
                    rules, length = work[3], lengths[len(columns)]
                    if isinstance(rules, Exception):
                        raise rules
                    try:
                        rule = rules and next(rules, None)
                        col = rule and compute_column(length, *rule, guard)
                    except Exception as exc:  # no rule runs again: every later read raises it
                        work[3] = exc
                        raise
                    entries, mask = col or ([None] * length, bytes(length))
                    columns.append(entries)
                    masks.append(mask)
                    work[3] = col and rules  # None once a column has no computable row
        if len(columns) == len(lengths):
            state["columns"] = columns
            state.pop("_work", None)
        return columns


def compute_column(length: int, antecedents: Iterable, column: Callable,
                   guard: Optional[GuardPolicy]) -> Optional[tuple]:
    """Column ``(entries, mask)`` of ``length`` rows; the one place an entry turns invalid.

    Every table column and ``estimate_decay``'s list come from here; a zero
    remainder estimate alone fails elsewhere: a whole Levin or Weniger build.
    A mask is a ``bytes`` of one byte per row, 1 where the entry is valid.
    Each antecedent is a ``(mask, shifts)`` pair, one per antecedent column:
    row ``i`` depends on ``mask[i + shift]`` for every shift.  A rule declares
    each read that no other declared read implies.  ``column(rows)`` gives the
    rows ``rows``, in order: their entries, or a rule's ``(nums, dens[, bases])``
    for the one ``guard.divide``.  It runs only on rows whose antecedents are all
    valid; a column without such a row never calls it and is ``None``.  An entry
    is invalid for one of three causes:

    - an invalid antecedent: the row is not computed;
    - a guard trip: a ``None`` entry (``GuardPolicy.divide``);
    - a non-finite value, checked once for the whole column.

    A fully valid antecedent mask (no 0 byte) is skipped without slicing
    it, each shifted slice of the others is ANDed as one integer.  A column
    computed at every row whose plain ``sum`` is a finite ``float`` is
    returned as it is: an infinity or a NaN would spread to the sum, a
    guard ``None`` makes it raise, a ``complex`` or ``mpf`` entry gives it
    another type.  Nothing is mutated: ``build_table`` appends the pair, or
    ends the arithmetic.
    """
    usable = None
    for mask, shifts in antecedents:
        if 0 not in mask:
            continue
        for shift in shifts:
            part = int.from_bytes(mask[shift:shift + length], "big")
            usable = part if usable is None else usable & part
            if not usable:
                return None
    rows = range(length) if usable is None else list(compress(count(), usable.to_bytes(length, "big")))
    entries = guard.divide(*out) if type(out := column(rows)) is tuple else out
    if len(rows) == length:
        try:  # an mpf or complex sum would cost more than the check it spares
            total = sum(entries) if type(entries[-1]) is float else None
        except TypeError:  # a guard None
            total = None
        if type(total) is float and is_finite(total):
            return entries, b"\x01" * length
        col = finite_entries(entries)
        return col, bytes([v is not None for v in col])
    col = [None] * length  # the rows not computed stay None
    mask = bytearray(usable.to_bytes(length, "big"))
    for i, value in zip(rows, finite_entries(entries)):
        if value is None:
            mask[i] = 0
        else:
            col[i] = value
    return col, bytes(mask)


def build_table(
    name: str,
    values: Sequence[Scalar],
    steps: Iterable[int],
    rules: Callable[[list, list], Iterator[tuple]],
    guard: GuardPolicy,
    n_start: int = 0,
    order_step: int = 1,
    lookahead: int = 0,
) -> TransformTable:
    """The table ``name`` with column 0 ``values`` (at ``n_start``).

    Column ``k`` is ``next(steps)`` rows shorter than column ``k-1``, and
    the table ends where a column would have no row.  ``rules(columns,
    valid)`` is a generator over the columns and their masks (as
    ``compute_column`` returns them), working state the table does not
    keep; it yields, column by column, the ``(antecedents, column)``
    arguments of ``compute_column``, whose ``guard`` the table holds till built.
    Only ``TransformTable._extend``'s loop appends, as reads need its columns.
    A rule's rows read the column before it, or working columns that die
    with it (Weniger's N and D), so once a column has no computable row, or
    ``rules`` stops, no later one has: the rest are appended invalid, with
    no arithmetic and without resuming ``rules``.
    """
    lengths = list(takewhile(partial(operator.lt, 0),  # each column's, while it has a row
                             accumulate(steps, operator.sub, initial=len(values))))
    columns = [list(values)]
    table = TransformTable(name, columns, n_start, order_step, lookahead)
    if len(lengths) > 1:
        mp = getattr(sys.modules.get("mpmath"), "mp", None)  # whose precision mpf arithmetic reads
        masks = [b"\x01" * lengths[0]]
        del vars(table)["columns"]
        vars(table)["_work"] = [lengths, columns, masks, rules(columns, masks), allocate_lock(),
                                mp.workprec(mp.prec) if mp else nullcontext(), guard]
    return table


def stencil_table(
    name: str,
    values: Sequence[Scalar],
    width: int,
    kernel: Callable[[list, int, Sequence[int]], Union[list, tuple]],
    guard: GuardPolicy,
) -> TransformTable:
    """Tables whose column ``k`` applies a ``width``-element step to column ``k-1``.

    ``kernel(cur, k, rows)`` is column ``k``'s ``column(rows)``: row ``n``
    comes from ``cur[n] .. cur[n + width - 1]`` of column ``k-1``, so column
    ``k`` consumes ``(width-1)*k + 1`` elements.
    """
    return build_table(name, values, repeat(width - 1), lambda columns, valid: (
        ([(valid[-1], range(width))], partial(kernel, columns[-1], len(columns))) for _ in count()),
        guard)


def lozenge_rule(
    columns: list,
    valid: list,
    numerator: Callable[[int, Sequence[int]], Iterable[Scalar]],
) -> tuple:
    """The ``compute_column`` arguments of column ``k = len(columns)`` of the lozenge rule
    ``T_k^(n) = T_{k-2}^(n+1) + num_k^(n) / (T_{k-1}^(n+1) - T_{k-1}^(n))``, whose
    ``column`` gives ``(nums, dens, bases)``.

    ``numerator(k, rows)`` gives ``num_k^(n)`` for the rows ``rows``: one
    constant (epsilon's plain 1, Osada's ``k - 1 + alpha`` in the lifted alpha's
    type), or a list (rho on explicit points).  Column -1 is an implicit column of zeros.
    It declares one antecedent: column ``k-1`` at rows n and n+1.
    """
    k = len(columns)
    cur, base = columns[k - 1], columns[k - 2]  # base is unread at k = 1

    def column(rows):
        bases = repeat(0) if k == 1 else [base[n + 1] for n in rows]
        return numerator(k, rows), [cur[n + 1] - cur[n] for n in rows], bases

    # T_{k-2}^(n+1) is implied: a valid T_{k-1}^(n) was computed from it
    return [(valid[k - 1], (0, 1))], column


def cross_rule_table(
    name: str,
    values: Sequence[Scalar],
    numerator: Callable[[int, Sequence[int]], Iterable[Scalar]],
    guard: GuardPolicy,
) -> TransformTable:
    """Tables of the lozenge form ``T_{k}^(n) = T_{k-2}^(n+1) + num / diff``.

    The epsilon, rho, and Osada algorithms all share this recursion shape;
    they differ only in the numerator ``numerator(k, rows)`` placed over
    ``T_{k-1}^(n+1) - T_{k-1}^(n)``.  Only even-order columns are
    approximants.
    """
    return build_table(name, values, repeat(1), lambda columns, valid: (
        lozenge_rule(columns, valid, numerator) for _ in count()), guard, order_step=2)


class PathSpec(Record):
    """A traversal of a transform table.

    ``order_constant`` walks one column with increasing ``n``;
    ``index_constant`` fixes ``n`` and climbs the approximant orders;
    ``staircase`` visits ``(k, n_start)`` and ``(k, n_start + 1)`` for each
    approximant order in turn, so that every new sequence element is used
    at the highest order the data admit.
    """

    kind: str
    order: Optional[int] = None
    index: Optional[int] = None

    _KINDS = ("order_constant", "index_constant", "staircase")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise InvalidParameterError(f"unknown path kind {self.kind!r}")
        if self.kind == "order_constant" and self.order is None:
            raise InvalidParameterError("order_constant path needs an order k")
        for name in ("order", "index"):  # their range is the table's, checked on a walk
            if getattr(self, name) is not None:
                check_integer(name, getattr(self, name))

    @classmethod
    def order_constant(cls, k: int) -> "PathSpec":
        return cls("order_constant", order=k)

    @classmethod
    def index_constant(cls, n0: Optional[int] = None) -> "PathSpec":
        return cls("index_constant", index=n0)

    @classmethod
    def staircase(cls) -> "PathSpec":
        return cls("staircase")

    def describe(self) -> str:
        if self.kind == "order_constant":
            return f"order_constant(k={self.order})"
        if self.kind == "index_constant":
            return f"index_constant(n0={'auto' if self.index is None else self.index})"
        return "staircase"


def walk_path(table: TransformTable, path: PathSpec) -> list:
    """All table positions along ``path`` as ``(k, n, value, valid)`` tuples.

    Invalid positions are kept (value ``None``) so that reports can mark
    them; ``extract_path`` is the valid-only view.
    """
    if path.kind == "order_constant":
        return table._read((path.order,), slice(None))
    if path.kind == "staircase":
        return table._read(table.approximant_orders(), slice(2))
    n0 = table.n_start if path.index is None else path.index
    if not table.n_start <= n0 <= table.max_index:
        raise PathRangeError(f"index {n0} outside table indices [{table.n_start}, {table.max_index}]")
    i = n0 - table.n_start
    return table._read(table.approximant_orders(), slice(i, i + 1))


def extract_path(table: TransformTable, path: PathSpec) -> list:
    """Valid table entries along ``path``, as ``(k, n, value)`` triples."""
    return [(k, n, v) for k, n, v, ok in walk_path(table, path) if ok]
