"""Gaussian rationals: complex numbers with exact rational parts, and the
exact value kernel that every value type of the package is built on."""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg, sub

Rational = Fraction | int


def rat(x: object) -> Rational:
    """x as an exact rational: an int when it is integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class _Exact:
    """Immutable vector of exact components, stored in one tuple ``_c``.

    A subclass names its fields and the function that coerces each one as
    class keywords: ``fields="q0 q1 q2 q3", coerce=rat``. A field is one
    component here, and two, (re, im), in `_GaussEntries`. The constructor
    coerces every field once; arithmetic builds its results with ``_make``,
    which does not. The kernel shares +, -, negation, ==, hash and pickle;
    each type defines its own ``*``. ``==`` holds between values of one type
    with equal components, after ``_lift`` has converted the other operand.
    """

    __slots__ = ("_c",)

    def __init_subclass__(cls, *, fields: str, coerce=None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(fields.split())
        if coerce:  # otherwise the base's coercion is kept
            cls._coerce = staticmethod(coerce)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, cls._field(i))

    @staticmethod
    def _field(i: int) -> property:
        return property(lambda self: self._c[i])

    def __init__(self, *components: object) -> None:
        if len(components) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"components, got {len(components)}")
        _set_components(self, tuple(map(self._coerce, components)))

    @classmethod
    def _make(cls, components, _new=object.__new__):
        """Internal constructor: the components are already coerced. It calls the
        bound object.__new__ and _c slot setter, past __init__ and __setattr__."""
        self = _new(cls)
        _set_components(self, tuple(components))
        return self

    def _lift(self, other: object):
        """`other` as a value of this type, or None if it is not one."""
        return other if type(other) is type(self) else None

    def __add__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._make(map(add, self._c, other._c))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._make(map(sub, self._c, other._c))

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._make(map(sub, other._c, self._c))

    def __neg__(self):
        return self._make(map(neg, self._c))

    def __eq__(self, other: object) -> bool:
        other = self._lift(other)
        return NotImplemented if other is None else self._c == other._c

    def __hash__(self) -> int:
        # A value whose later components are all zero hashes like its first
        # one, so a purely real GaussScalar hashes like the rational it equals.
        first, *rest = self._c
        return hash(first) if all(c == 0 for c in rest) else hash(self._c)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._c

    def __repr__(self) -> str:
        parts = (str(c) if isinstance(c, Fraction) else repr(c) for c in self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(parts)})"


_set_components = _Exact._c.__set__


def _coerce(value: object) -> GaussScalar | None:
    if isinstance(value, GaussScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussScalar._make((rat(value), 0))
    return None


class GaussScalar(_Exact, fields="re im", coerce=rat):
    """Complex scalar whose real and imaginary parts are exact rationals.

    Supports +, -, *, / and conjugation; equality is exact and also accepts
    plain ints/Fractions (treated as purely real).
    """

    __slots__ = ()

    def __init__(self, re: Rational, im: Rational = 0) -> None:
        super().__init__(re, im)

    # +, - and == take plain ints and Fractions as purely real values.
    _lift = staticmethod(_coerce)

    def __mul__(self, other: GaussScalar | Rational):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._c
        c, d = other._c
        return GaussScalar._make((a * c - b * d, a * d + b * c))

    __rmul__ = __mul__

    def __truediv__(self, other: GaussScalar | Rational):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        c, d = other._c
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero")
        # Fraction(x, n), not x / n: two ints would divide to a float.
        return GaussScalar._make([rat(Fraction(x, n)) for x in (self * other.conjugate())._c])

    def conjugate(self) -> GaussScalar:
        return GaussScalar._make((self.re, -self.im))

    @property
    def is_real(self) -> bool:
        return self.im == 0

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
        return property(lambda self: GaussScalar._make(self._c[2 * i:2 * i + 2]))

    def __init__(self, *entries: GaussScalar | Rational) -> None:
        super().__init__(*entries)
        _set_components(self, tuple(x for z in self._c for x in z._c))

    def __mul__(self, k):
        """Scaling: every entry times k, a Gaussian or a plain rational; each
        rational of the result is coerced by rat."""
        k = rat(k) if isinstance(k, (int, Fraction)) else as_gauss(k)
        if type(k) is not GaussScalar:
            return self._make([rat(k * c) for c in self._c])
        x, y = k._c
        pairs = zip(*[iter(self._c)] * 2)
        return self._make([rat(z) for a, b in pairs for z in (a * x - b * y, a * y + b * x)])

    __rmul__ = __mul__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
