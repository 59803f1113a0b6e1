"""Gaussian rationals: complex numbers with exact rational parts, and the
exact value kernel that every value type of the package is built on: a value
is the tuple of its stored rationals, never equal to a plain tuple, unordered."""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter, neg, sub
from types import MethodType

Rational = Fraction | int
_tuple_eq = tuple.__eq__  # looked up once, not on every ==


def rat(x: object) -> Rational:
    """x as an exact rational: an int when it is integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class _Exact(tuple):
    """Immutable vector of exact components: the tuple of its stored rationals.

    A subclass names its fields and the function that coerces each one as
    class keywords: ``fields="q0 q1 q2 q3", coerce=rat``. A field is one
    component here, and two, (re, im), in `_GaussEntries`. The constructor
    coerces every field once; arithmetic builds its results with ``_make``,
    tuple.__new__ bound to the class, which does not. The kernel shares +, -,
    negation, rational scaling, ==, hash and pickle; each type defines its own
    ``*``, coercing a scalar factor by its own rule before it scales. ``==``
    holds between values of one type with equal components, after ``_lift``
    has converted the other operand. A value iterates over its stored rationals
    and has their len, but never equals a tuple, is unordered and does not concatenate.
    """

    __slots__ = ()

    def __init_subclass__(cls, *, fields: str, coerce=None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A bound method, not a classmethod: reading it builds no method object.
        cls._fields, cls._make = tuple(fields.split()), MethodType(tuple.__new__, cls)
        if coerce:  # otherwise the base's coercion is kept
            cls._coerce = staticmethod(coerce)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, cls._field(i))

    @staticmethod
    def _field(i: int) -> property:
        return property(itemgetter(i))

    def __new__(cls, *components: object):
        if len(components) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} "
                            f"components, got {len(components)}")
        return tuple.__new__(cls, map(cls._coerce, components))

    def _lift(self, other: object):
        """`other` as a value of this type, or None if it is not one."""
        return other if type(other) is type(self) else None

    def __add__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._make(map(add, self, other))

    def __radd__(self, other):
        if isinstance(other, tuple) and self._lift(other) is None:  # else tuple's + concatenates
            raise TypeError(f"cannot add {type(self).__name__} to {type(other).__name__}")
        return self.__add__(other)

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._make(map(sub, self, other))

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._make(map(sub, other, self))

    def __neg__(self):
        return self._make(map(neg, self))

    def _scaled(self, k: Rational):
        """Every stored rational times the rational k, each product that is not an
        int coerced by rat."""
        return self._make([z if type(z := k * c) is int else rat(z) for c in self])

    def __eq__(self, other: object) -> bool:
        lifted = other if type(other) is type(self) else self._lift(other)
        if lifted is None:  # declined, tuple's == would compare the items
            return False if isinstance(other, tuple) else NotImplemented
        return _tuple_eq(self, lifted)

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's !=

    def _unordered(self, other: object):
        raise TypeError(f"{type(self).__name__} values are unordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __hash__(self) -> int:
        # A value whose later components are all zero hashes like its first
        # one, so a purely real GaussScalar hashes like the rational it equals.
        first, *rest = self
        return hash(first) if all(c == 0 for c in rest) else tuple.__hash__(self)

    def __reduce__(self):
        return type(self), tuple(self)

    def __repr__(self) -> str:
        parts = (str(c) if isinstance(c, Fraction) else repr(c) for c in self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(parts)})"


def _coerce(value: object) -> GaussScalar | None:
    if isinstance(value, GaussScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussScalar._make((rat(value), 0))
    return None


class GaussScalar(_Exact, fields="re im"):
    """Complex scalar whose real and imaginary parts are exact rationals.

    Supports +, - and *; equality is exact and also accepts plain
    ints/Fractions (treated as purely real).
    """

    __slots__ = ()

    def __new__(cls, re: Rational, im: Rational = 0) -> GaussScalar:
        return tuple.__new__(cls, (rat(re), rat(im)))

    # +, - and == take plain ints and Fractions as purely real values.
    _lift = staticmethod(_coerce)

    def __mul__(self, other: GaussScalar | Rational):
        # A spinor or matrix operand is declined at once: its scaling runs.
        other = None if isinstance(other, _GaussEntries) else _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self
        c, d = other
        return GaussScalar._make((a * c - b * d, a * d + b * c))

    __rmul__ = __mul__

    def conjugate(self) -> GaussScalar:
        re, im = self
        return GaussScalar._make((re, -im))

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def as_gauss(value: GaussScalar | Rational) -> GaussScalar:
    """Coerce an int or Fraction to a purely real GaussScalar."""
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return coerced


I = GaussScalar(0, 1)


class _GaussEntries(_Exact, fields="", coerce=as_gauss):
    """An _Exact whose fields are Gaussian rationals, stored flat as the (re, im)
    of each in turn, so arithmetic runs on rationals and builds one object per
    result. Fields, constructor, repr and pickle show GaussScalar entries."""

    __slots__ = ()

    @staticmethod
    def _field(i: int) -> property:
        return property(lambda self: GaussScalar._make(self[2 * i:2 * i + 2]))

    def __new__(cls, *entries: GaussScalar | Rational):
        return tuple.__new__(cls, [x for z in super().__new__(cls, *entries) for x in z])

    def __mul__(self, k):
        """Scaling: every entry times k, a Gaussian or a plain rational (not a
        float); each rational of the result that is not an int is coerced by rat."""
        if type(k) is not int:
            if type(k) is GaussScalar:
                x, y = k
                pairs = zip(*[iter(self)] * 2)
                return self._make([z if type(z) is int else rat(z)
                                   for a, b in pairs for z in (a * x - b * y, a * y + b * x)])
            k = rat(k) if isinstance(k, (int, Fraction)) else as_gauss(k)  # raises TypeError
        return self._scaled(k)

    __rmul__ = __mul__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
