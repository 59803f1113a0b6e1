"""Machine verification of the identities tying the recurrence, its
quaternions and their spinor images together.

Every check compares a closed form against an independent brute-force
evaluation (direct recurrence iteration, direct sums, Hamilton products) and
returns a structured report. Checks over exact values demand exact equality;
a failing check carries a counterexample witness that can be replayed through
the public operations.

Each identity is one declaration in _IDENTITIES: its parts, each two sides
evaluated apart at the part's points, a sequence check's order, its depth and
its reach. One runner, _run, reads the slice once, compares the sides to the
first mismatch and builds the span and the note by one rule; binet's declared
float lhs and summation's seed-window candidate keep a small hook each.
Sides look primitives up in this module's namespace when called.
"""

from __future__ import annotations

import itertools
import math
import random
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .analytic import (DegenerateRoots, binet_setup, binet_spinor, genfunc_coefficient,
                       genfunc_setup)
from .gauss import GaussScalar, I, Rational, rat
from .quaternions import (
    DegenerateDelta,
    Quaternion,
    k_window,
    qmul,
    qnorm,
    quat_u_decomposition,
    quat_window,
    qv_matrix,
    qv_right_multiply,
    sum_window,
    summation_correction,
    u_setup,
)
from .sequences import TRIBONACCI, SeqParams, companion_power, seq_slice
from .spinors import (
    C,
    Spinor,
    breve,
    cartan_conjugate,
    complex_conjugate,
    mate,
    sigma,
    spinor_dot,
    spinor_norm,
    spinor_window,
)


class UnsupportedParams(ValueError):
    """The identity is only defined for a particular parameter set."""


class IdentityId(Enum):
    """Every identity the verification suite knows how to check."""

    SPINOR_RECURRENCE = "recurrence"
    CONJUGATE_RELATIONS = "conjugates"
    NORM_EQUALITY = "norm"
    BINET_AGREEMENT = "binet"
    GENFUNC_AGREEMENT = "genfunc"
    TRIPLE_PRODUCT_MAP = "triple_product"
    SPINOR_MATRIX_BEHAVIOR = "spinor_matrix"
    DETERMINANT_COMBINATION = "determinant"
    SUMMATION_CLOSED_FORM = "summation"
    U_DECOMPOSITION = "u_decomposition"
    MATRIX_POWER_SHIFT = "matrix_power"


class Status(Enum):
    EXACT_PASS = "exact_pass"
    TOLERED_PASS = "tolered_pass"
    FAIL = "fail"
    SKIPPED = "skipped"


class Witness(NamedTuple):
    """First counterexample of a failed check, rendered for replay."""

    n: int
    lhs: str
    rhs: str


class VerificationReport(NamedTuple):
    identity: IdentityId
    params: SeqParams | None
    span: tuple[int, int]
    status: Status
    witness: Witness | None = None
    note: str = ""


def random_params(rng: random.Random) -> SeqParams:
    """Integer parameter set drawn uniformly from [-5, 5]^6, the sweep distribution."""
    return SeqParams(*(rng.randint(-5, 5) for _ in range(6)))


# binet's float closed form passes while its largest relative error is at most TOL.
TOL = 1e-9

# Seeded random triples triple_product draws after its basis triples.
TRIALS = 16


class _Run(NamedTuple):
    """What the sides of one check read: its arguments, nmax being the depth, the
    slice of terms from V(0), and a memo of what is computed once per run (_once)."""

    p: SeqParams | None
    nmax: int
    v: list[Rational]
    seed: int
    memo: dict


def _once(c: _Run, key: object, f: Callable, *args):
    """f(*args), computed once per run."""
    if key not in c.memo:
        c.memo[key] = f(*args)
    return c.memo[key]


class _Part(NamedTuple):
    """Two sides evaluated apart at the points, which come with what a passing
    note says of them. A side may return a tuple of equations' sides, which
    labels name by (lhs prefix, rhs prefix). what, a failing point's note,
    formats its position ({0}) and the point ({1}). floats declares an lhs in floats,
    (c1, c2), against an exact spinor: it passes while the largest error so far of a
    component, relative to max(1, |exact|), is at most TOL, and a pass is tolered."""

    lhs: Callable
    rhs: Callable
    points: Callable[[_Run], tuple[list, str]] | None = None
    labels: tuple[tuple[str, str], ...] = ()
    what: str = ""
    floats: bool = False


class _Identity(NamedTuple):
    """Its parts, in order; its reach, the terms read past the depth, None if it is
    parameter-free; a sequence check's order, whose one part compares the indices _depth
    picks to depth - least unless it has points; refuse, a function of p alone that returns
    the refusal to raise before any term is read, or None; its claim, the head and tail of
    a passing (True) or failing note; and the least nmax and the cap (last) that depth applies."""

    parts: tuple[_Part, ...]
    reach: int | None
    order: int | None = None
    refuse: Callable[[SeqParams], Exception | None] | None = None
    claim: Callable[[_Run, bool], tuple[str, str]] | None = None
    last: float = math.inf
    least: int = 0

    def depth(self, nmax: int) -> int:
        return min(max(nmax, self.least), self.last)


def _run(identity: IdentityId, p: SeqParams | None, nmax: int = 0,
         seed: int = 0) -> VerificationReport:
    """The runner. It raises a refusal of p at once, or checks to the depth min(nmax, last),
    the run's nmax, reading V(0) to V(depth + reach - 1) by read_terms' rule. A sequence check
    numbers its comparisons by their index and spans [0..depth]; any other numbers them
    from 0 across its parts and spans them all. A passing note is the claim's head, what the
    points were and the claim's tail; a failing one has the failing point's note between.
    Both may name a float lhs's largest error (worst, at worst_n)."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    d = _IDENTITIES[identity]
    if nmax < d.least:
        raise ValueError(f"nmax must be at least {d.least}")
    if d.refuse and (refusal := d.refuse(p)):
        raise refusal
    depth = d.depth(nmax)
    terms, params = _terms(d, depth), None if d.reach is None else p
    c = _Run(p, depth, seq_slice(p, 0, terms) if terms else [], seed, {})
    points = [part.points(c) if part.points else _depth(d.order, depth - d.least)
              for part in d.parts]
    span = (0, depth if d.order else sum(len(items) for items, _ in points) - 1)
    worst, worst_n, offset = 0.0, 0, 0
    for part, (items, _) in zip(d.parts, points):
        for i, point in enumerate(items):
            n = point if d.order else offset + i
            lhs, rhs = part.lhs(c, point), part.rhs(c, point)
            if part.floats:
                w, x, y, z = rhs  # the exact spinor's four components, read once
                for got, want in zip(lhs, (complex(w, x), complex(y, z))):
                    err = abs(got - want) / max(1.0, abs(want))
                    if err > worst:
                        worst, worst_n = err, n
                if worst <= TOL:
                    continue
                lhs = "[{:.12g}; {:.12g}]".format(*lhs)
            elif lhs == rhs:
                continue
            label, rhs_label = "", ""
            if part.labels:
                (label, rhs_label), lhs, rhs = next(
                    e for e in zip(part.labels, lhs, rhs) if e[1] != e[2])
            head, tail = d.claim(c, False) if d.claim else ("", "")
            what = part.what.format(i, point, worst=worst)
            note = "; ".join(filter(None, (head, what, tail)))
            witness = Witness(n, f"{label}{lhs}", f"{rhs_label}{rhs}")
            return VerificationReport(identity, params, span, Status.FAIL, witness, note)
        offset += len(items)
    *init, said = [said for _, said in points]
    said = (f"{', '.join(init)} and {said}" if init else said).format(
        worst=worst, worst_n=worst_n)
    head, tail = d.claim(c, True) if d.claim else ("", "")
    note = "; ".join(filter(None, (head, said, tail)))
    status = (Status.TOLERED_PASS if any(part.floats for part in d.parts)
              else Status.EXACT_PASS)
    return VerificationReport(identity, params, span, status, note=note)


def _basis(items: list, noun: str) -> Callable[[_Run], tuple[list, str]]:
    """The points of a fixed basis on int, counted in the note."""
    return lambda c: (items, f"{len(items)} {noun}")


# A check proved on a basis then compares the set's windows at n <= min(nmax, 3).
_LAST_WINDOW = 3


def _windows(read: Callable[[list, int], object] = lambda v, n: n):
    """The points of the set's windows to the depth, each read off the slice."""
    return lambda c: ([read(c.v, n) for n in range(c.nmax + 1)], f"the windows on [0..{c.nmax}]")


# The two sides of a sequence check are polynomials in window terms, so for a
# fixed p their difference obeys a linear recurrence of an order d known in
# advance: 3 if linear, one more for a partial sum or a constant, 10 for degree
# 3 (Kauers & Paule, The Concrete Tetrahedron, ch. 4). If it vanishes at
# n < d, it vanishes at every n. A guard at the last n reads the deepest window.
_LINEAR_ORDER = 3
_SUM_ORDER = 4  # summation: a partial sum, and a constant
_DET_ORDER = 11  # the determinant: degree 3, and a constant


def _depth(order: int, last: int) -> tuple[list[int], str]:
    """The indices a sequence check of this order compares up to last, n < order
    and the guard at last, or only 0..last if last < order; and its note."""
    proof = f"n=0..{order - 1} prove every n"
    if last < order:
        return [*range(last + 1)], f"order {order}: only [0..{last}] compared; {proof}"
    return [*range(order), last], f"order {order}: {proof}; guard at n={last}"


def verify_spinor_recurrence(p: SeqParams, nmax: int) -> VerificationReport:
    """A(n+3) = r*A(n+2) + s*A(n+1) + t*A(n), exact, up to the last window
    A(nmax): the guard is at n = nmax-3, so nmax is at least 3."""
    return _run(IdentityId.SPINOR_RECURRENCE, p, nmax)


# The basis spinors [1; 0], [i; 0], [0; 1] and [0; i], on int.
_BASIS_SPINORS = [Spinor(1, 0), Spinor(I, 0), Spinor(0, 1), Spinor(0, I)]

# The unit term windows of four terms and of five, and the polarization points
# of Q^4 as quaternions on int: the units e_i, then the sums e_i + e_j for i < j.
_UNIT_WINDOWS = [tuple(int(i == j) for j in range(4)) for i in range(4)]
_UNIT_K_WINDOWS = [tuple(int(i == j) for j in range(5)) for i in range(5)]
_POLARIZATION_POINTS = ([Quaternion(*e) for e in _UNIT_WINDOWS]
                        + [Quaternion(*a) + Quaternion(*b)
                           for a, b in itertools.combinations(_UNIT_WINDOWS, 2)])


def verify_conjugate_relations(p: SeqParams, nmax: int) -> VerificationReport:
    """The three conjugation operators interlock: C @ mate = conjugate,
    i * cartan = mate, i * (C @ cartan) = conjugate. Every operator is
    Q-linear in a spinor's four rational components as written, so agreement
    on the four basis spinors proves the relations for every spinor. The
    set's windows at n <= min(nmax, 3) guard against a fault that is not linear."""
    return _run(IdentityId.CONJUGATE_RELATIONS, p, nmax)


_MINUS_I = -I


def norm_forms(a: Spinor) -> tuple[GaussScalar, GaussScalar, GaussScalar]:
    """The three spinor-side expressions for the quaternion norm of spinor a:
    the conjugate pairing, and the mate and cartan pairings through C, each the
    bilinear form of its row and C @ a. C.transpose() equals -C, so pairing
    through C with a leading minus is the sign that makes the mate/cartan forms
    match the conjugate pairing."""
    ca = C @ a
    return (spinor_norm(a), -spinor_dot(mate(a), ca),
            _MINUS_I * spinor_dot(cartan_conjugate(a), ca))


def verify_norm_equality(p: SeqParams, nmax: int) -> VerificationReport:
    """All three spinor norm forms equal the quaternion norm
    V(n)^2 + V(n+1)^2 + V(n+2)^2 + V(n+3)^2, exactly. Each side is a quadratic
    form on Q^4 as written, fixed by its values at the ten polarization points
    e_i and e_i + e_j. spinor_window(u) = sigma(quat_window(u)) on the four unit
    windows makes every spinor window sigma of its quaternion window, both
    readers being linear in four terms. The set's windows at n <= min(nmax, 3)
    guard against a fault that is not quadratic."""
    return _run(IdentityId.NORM_EQUALITY, p, nmax)


def verify_binet(p: SeqParams, nmax: int) -> VerificationReport:
    """Root-based closed form reproduces the exact spinors within the relative
    tolerance TOL, to n = min(nmax, 30); binet_spinor raises DegenerateRoots for
    (nearly) repeated roots."""
    return _run(IdentityId.BINET_AGREEMENT, p, nmax)


def verify_genfunc_agreement(p: SeqParams, nmax: int) -> VerificationReport:
    """Power-series coefficients of the rational generating function equal
    the directly iterated spinors, exactly. Each coefficient compared is read
    off the generating function by itself, in O(log k) products on int
    (genfunc_coefficient), from the int operands genfunc_setup builds once per
    run; the windows come from the slice's forward steps."""
    return _run(IdentityId.GENFUNC_AGREEMENT, p, nmax)


# The 64 triples of the basis quaternions 1, i, j, k, the last one varying fastest.
_BASIS_TRIPLES = list(itertools.product((Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
                                         Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)),
                                        repeat=3))


def _random_triples(c: _Run) -> tuple[list, str]:
    """TRIALS triples of quaternions with components k/d, k in [-9, 9] and d in {1, 2}."""
    rng = random.Random(c.seed)
    triples = [tuple(Quaternion(*(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2)))
                                  for _ in range(4))) for _ in range(3))
               for _ in range(TRIALS)]
    return triples, f"{TRIALS} random triples, seed {c.seed}"


def verify_triple_product_map(seed: int) -> VerificationReport:
    """sigma(a*b*c) = -(breve(a) @ breve(b)) @ sigma(c), an identity of the
    representation, parameter-free. Both sides are trilinear over Q as
    written, so agreement on the 64 triples of basis quaternions proves it
    for every triple of rational quaternions. The TRIALS seeded random
    triples that follow guard against a fault that is not trilinear."""
    return _run(IdentityId.TRIPLE_PRODUCT_MAP, None, seed=seed)


def verify_spinor_matrix_behavior(p: SeqParams, nmax: int) -> VerificationReport:
    """The 2x2-matrix image of the window matrix keeps its middle column's
    linearity: breve(K(n)) = s*breve(Q(n+1)) + t*breve(Q(n)). For a fixed p
    both sides are Q-linear in the terms V(n)..V(n+4) as written, so
    agreement on the five unit term windows proves it at every n. The set's
    windows at n <= min(nmax, 3) guard against a fault that is not linear.
    Products of window entries are not checked per n: that a triple product
    maps to the negated matrix product is triple_product's proof."""
    return _run(IdentityId.SPINOR_MATRIX_BEHAVIOR, p, nmax)


# Index offsets (da, db, dc) of the six-term determinant-style combination;
# entries are breve(Q(n+da)) @ breve(K(n+db)) @ sigma(Q(n+dc)), the first
# three added and the last three subtracted.
_DET_TERMS = ((1, 1, 4), (2, 2, 2), (3, 0, 3), (1, 2, 3), (2, 0, 4), (3, 1, 2))

# The paper's Cassini-like constant: the combination's spinor side on tribonacci.
_DET_REFERENCE = Spinor(GaussScalar(-4, 4), GaussScalar(4, -4))


def _det_combine(terms: list):
    """The six terms combined: the first three added, the last three subtracted."""
    return terms[0] + terms[1] + terms[2] - terms[3] - terms[4] - terms[5]


def _det_spinor(p: SeqParams, v: list[Rational], n: int) -> Spinor:
    """The spinor side of the combination at shift n, read off a list v of
    terms from V(0); each product is taken right to left."""
    q = [quat_window(v, n + m) for m in range(5)]
    breve_q = [breve(x) for x in q]
    breve_k = [breve(k_window(p, v, n + m)) for m in range(3)]
    return _det_combine([breve_q[da] @ (breve_k[db] @ sigma(q[dc])) for da, db, dc in _DET_TERMS])


def determinant_combination_values(p: SeqParams, n: int) -> tuple[Spinor, Quaternion]:
    """Evaluate the six-term combination at shift n on both sides: (spinor
    value, quaternion value), the quaternion value from Hamilton products of
    the windows. The two sides satisfy spinor = -sigma(quaternion)."""
    v = seq_slice(p, 0, n + _IDENTITIES[IdentityId.DETERMINANT_COMBINATION].reach)
    quat = _det_combine([qmul(qmul(quat_window(v, n + da), k_window(p, v, n + db)),
                              quat_window(v, n + dc)) for da, db, dc in _DET_TERMS])
    return _det_spinor(p, v, n), quat


def verify_determinant_combination(p: SeqParams, nmax: int) -> VerificationReport:
    """The paper's Cassini-like formula for tribonacci: the six-term
    determinant-style combination of window matrices, its fifth term's final
    index read as n+4, has the spinor side 4*[-1+i; 1-i] for every n."""
    return _run(IdentityId.DETERMINANT_COMBINATION, p, nmax)


def _summation_lhs(c: _Run, n: int) -> Spinor:
    # prefix[m] = V(0) + ... + V(m-1)
    prefix = _once(c, "prefix", lambda: list(itertools.accumulate(c.v[:c.nmax + 4], initial=0)))
    first = _once(c, "first", spinor_window, prefix)
    return (c.p.r + c.p.s + c.p.t - 1) * (spinor_window(prefix, n + 1) - first)


def _summation_rhs(c: _Run, n: int) -> Spinor:
    return sigma(sum_window(c.p, c.v, n)) + _once(
        c, "derived", lambda: sigma(summation_correction(c.p).omega))


def _summation_claim(c: _Run, passed: bool) -> tuple[str, str]:
    # The seed-window candidate is data: after a pass, from n = 0, it holds iff stated == derived.
    p, v, derived = c.p, c.v, c.memo["derived"]
    stated = spinor_window([rat((p.r + p.s) * v[j] + (p.r - 1) * v[j + 1] - v[j + 2])
                            for j in range(4)])
    miss = (None if stated == derived else 0) if passed else next(
        (n for n in _depth(_SUM_ORDER, c.nmax)[0]
         if _summation_lhs(c, n) != _summation_rhs(c, n) - derived + stated), None)
    return (f"sigma(omega) constant {derived}" + (": exact" if passed else " fails"),
            f"seed-window constant {stated}: also exact" if miss is None
            else f"seed-window constant {stated}: first mismatch at n={miss}")


def verify_summation(p: SeqParams, nmax: int) -> VerificationReport:
    """delta * (A(0) + ... + A(n)) = A(n+2) + (1-r)*A(n+1) + t*A(n) + c, for
    two candidate constants c: sigma of the quaternion correction omega, which
    sets the status, and the seed-window vector, which the note reports. The
    right side is sigma of sum_window, the closed form quat_partial_sum
    evaluates. The left side sums terms, not spinors: component j of the sum
    reads V(j) + ... + V(j+n), a difference of two prefix sums of the slice."""
    return _run(IdentityId.SUMMATION_CLOSED_FORM, p, nmax)


def verify_u_decomposition(p: SeqParams, nmax: int) -> VerificationReport:
    """The companion-sequence combination reproduces the window quaternion
    two steps ahead: quat_u_decomposition(p, n) = Q(n+2), exactly. The lhs is
    the exported closed form on its set-up (u_setup), built once per run. At each
    compared n it reads U(n)..U(n+2), past n = 0 by one jump of the power kernel
    that shares no step with the slice."""
    return _run(IdentityId.U_DECOMPOSITION, p, nmax)


def _power_lhs(c: _Run, n: int) -> tuple[Quaternion, ...]:
    """W(0) = qv_matrix(p), built once per run, times C^n; its entries row by row."""
    first = _once(c, "first", qv_matrix, c.p)
    return tuple(itertools.chain(*qv_right_multiply(first, companion_power(c.p, n))))


def _power_rhs(c: _Run, n: int) -> tuple[Quaternion, ...]:
    """The window matrix at shift n, its entries row by row."""
    return tuple(x for m in (n + 2, n + 1, n)
                 for x in (quat_window(c.v, m + 2), k_window(c.p, c.v, m),
                           c.p.t * quat_window(c.v, m + 1)))


def verify_matrix_power_shift(p: SeqParams, nmax: int) -> VerificationReport:
    """Right-multiplying the window matrix at shift 0 by the companion matrix
    n times lands exactly on the window matrix at shift n, whose rows are
    R(n+2), R(n+1) and R(n), each R(m) = (Q(m+2), K(m), t*Q(m+1)). The lhs
    takes the matrix at shift 0 from the exported qv_matrix(p), once per run,
    and reads no term of the slice the rhs reads. At every n compared, below
    the order and at the guard alike, C^n is companion_power(p, n): the
    identity and the companion matrix at n = 0 and 1, read off the companion
    sequence U from n = 2, at the guard by one jump of the power kernel, which
    shares no step with the slice. The two are compared whole, and entry by
    entry only where they differ."""
    return _run(IdentityId.MATRIX_POWER_SHIFT, p, nmax)


_CONJUGATES = _Part(lambda c, a: (C @ mate(a), I * (k := cartan_conjugate(a)), I * (C @ k)),
                    lambda c, a: ((conj := complex_conjugate(a)), mate(a), conj),
                    labels=(("C@mate: ", ""), ("i*cartan: ", ""), ("i*C@cartan: ", "")))
_NORM_LABELS = (("conjugate pairing: ", ""), ("mate pairing: ", ""), ("cartan pairing: ", ""))
# Each side on its own; the spinor side right to left.
_TRIPLE_PRODUCT = _Part(lambda c, t: sigma(qmul(qmul(t[0], t[1]), t[2])),
                        lambda c, t: -(breve(t[0]) @ (breve(t[1]) @ sigma(t[2]))),
                        what="a={1[0]}, b={1[1]}, c={1[2]}")
# A point is a list of terms and the index of its window there.
_SPINOR_MATRIX = _Part(lambda c, w: breve(k_window(c.p, w[0], w[1])),
                       lambda c, w: (c.p.s * breve(quat_window(w[0], w[1] + 1))
                                     + c.p.t * breve(quat_window(w[0], w[1]))))

_IDENTITIES: dict[IdentityId, _Identity] = {
    IdentityId.SPINOR_RECURRENCE: _Identity(
        (_Part(lambda c, n: spinor_window(c.v, n + 3),
               lambda c, n: (c.p.r * spinor_window(c.v, n + 2) + c.p.s * spinor_window(c.v, n + 1)
                             + c.p.t * spinor_window(c.v, n))),),
        4, order=_LINEAR_ORDER, least=3),  # A(n+3) is compared: n <= nmax-3
    IdentityId.CONJUGATE_RELATIONS: _Identity(
        (_CONJUGATES._replace(points=_basis(_BASIS_SPINORS, "basis spinors"),
                              what="basis spinor {1}"),
         _CONJUGATES._replace(points=_windows(lambda v, n: spinor_window(v, n)),
                              what="window n={0}")),
        4, last=_LAST_WINDOW),
    IdentityId.NORM_EQUALITY: _Identity(
        (_Part(lambda c, q: norm_forms(sigma(q)), lambda c, q: (GaussScalar(qnorm(q)),) * 3,
               _basis(_POLARIZATION_POINTS, "polarization points"), _NORM_LABELS,
               "polarization point {1}"),
         _Part(lambda c, u: spinor_window(u), lambda c, u: sigma(quat_window(u)),
               _basis(_UNIT_WINDOWS, "unit windows"), what="unit window {1}"),
         _Part(lambda c, n: norm_forms(spinor_window(c.v, n)),
               lambda c, n: (GaussScalar(qnorm(quat_window(c.v, n))),) * 3,
               _windows(), _NORM_LABELS, "window n={0}")),
        4, last=_LAST_WINDOW),
    # Float error grows with the dominant root's power: the runner caps the range.
    IdentityId.BINET_AGREEMENT: _Identity(
        (_Part(lambda c, n: binet_spinor(c.p, n, _once(c, "binet", binet_setup, c.p)),
               lambda c, n: spinor_window(c.v, n),
               lambda c: ([*range(c.nmax + 1)],
                          f"max relative error {{worst:.3e}} at n={{worst_n}} (tol {TOL:.1e})"),
               what=f"relative error {{worst:.3e}} exceeds tol {TOL:.1e}", floats=True),),
        4, last=30),
    IdentityId.GENFUNC_AGREEMENT: _Identity(
        (_Part(lambda c, k: genfunc_coefficient(_once(c, "genfunc", genfunc_setup, c.p), k),
               lambda c, k: spinor_window(c.v, k)),),
        4, order=_LINEAR_ORDER),
    IdentityId.TRIPLE_PRODUCT_MAP: _Identity(
        (_TRIPLE_PRODUCT._replace(points=_basis(_BASIS_TRIPLES, "basis triples")),
         _TRIPLE_PRODUCT._replace(points=_random_triples)), None),
    IdentityId.SPINOR_MATRIX_BEHAVIOR: _Identity(
        (_SPINOR_MATRIX._replace(points=_basis([(u, 0) for u in _UNIT_K_WINDOWS],
                                               "unit windows"), what="unit window {1[0]}"),
         _SPINOR_MATRIX._replace(points=_windows(lambda v, n: (v, n)), what="window n={0}")),
        5, last=_LAST_WINDOW),
    IdentityId.DETERMINANT_COMBINATION: _Identity(
        (_Part(lambda c, n: _det_spinor(c.p, c.v, n), lambda c, n: _DET_REFERENCE),),
        8, order=_DET_ORDER,
        refuse=lambda p: None if p == TRIBONACCI else UnsupportedParams(
            "determinant combination is only defined for the tribonacci preset"),
        claim=lambda c, passed: ("final index n+4: spinor side " + (
            f"equals reference {_DET_REFERENCE}" if passed else "differs from reference"), "")),
    IdentityId.SUMMATION_CLOSED_FORM: _Identity(
        (_Part(_summation_lhs, _summation_rhs),), 6, order=_SUM_ORDER,
        refuse=lambda p: None if p.r + p.s + p.t != 1 else DegenerateDelta(),
        claim=_summation_claim),
    IdentityId.U_DECOMPOSITION: _Identity(
        (_Part(lambda c, n: quat_u_decomposition(c.p, n, _once(c, "u", u_setup, c.p)),
               lambda c, n: quat_window(c.v, n + 2)),),
        6, order=_LINEAR_ORDER),
    IdentityId.MATRIX_POWER_SHIFT: _Identity(
        (_Part(_power_lhs, _power_rhs, labels=tuple(
            (f"entry({i},{j})=",) * 2 for i, j in itertools.product(range(3), repeat=2))),),
        8, order=_LINEAR_ORDER),
}


def _terms(d: _Identity, depth: int) -> int:
    """How many terms from V(0) a check reads to its depth: depth plus reach, or
    0 if it is parameter-free."""
    return 0 if d.reach is None else depth + d.reach


def read_terms(identity: IdentityId, nmax: int, p: SeqParams) -> int:
    """How many terms from V(0) run_identity reads at nmax on p: the depth (at most 3 for a basis
    proof's windows, 30 for binet's floats) plus reach; 0 for a parameter-free or refused check."""
    d = _IDENTITIES[identity]
    return 0 if d.refuse and d.refuse(p) else _terms(d, d.depth(nmax))


def run_identity(identity: IdentityId, p: SeqParams, *, nmax: int = 50,
                 seed: int = 0) -> VerificationReport:
    """Run one identity check to its depth at nmax, converting parameter-dependent refusals
    (degenerate delta or roots, unsupported preset) and float overflow into skip reports."""
    nmax = _IDENTITIES[identity].depth(nmax) if nmax >= 0 else nmax
    try:
        return _run(identity, p, nmax, seed)
    except (DegenerateDelta, DegenerateRoots, UnsupportedParams, OverflowError) as exc:
        return VerificationReport(identity, p, (0, nmax), Status.SKIPPED,
                                  note=f"skipped ({type(exc).__name__}): {exc}")


def run_suite(p: SeqParams, nmax: int = 50, seed: int = 0) -> list[VerificationReport]:
    """Run every identity in declaration order; deterministic for fixed seed."""
    return [run_identity(i, p, nmax=nmax, seed=seed) for i in IdentityId]
