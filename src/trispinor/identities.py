"""Machine verification of the identities tying the recurrence, its
quaternions and their spinor images together.

Every check compares a closed form against an independent brute-force
evaluation (direct recurrence iteration, direct sums, Hamilton products) and
returns a structured report. Checks over exact values demand exact equality;
a failing check carries a counterexample witness that can be replayed through
the public operations.

Adding an identity takes one generator and its registration: add a member to
IdentityId and decorate the generator with ``@_register(member)``. The
generator raises its preconditions before its first yield, yields a
Comparison per checked equation and may return a note for the passing report.
The decorator turns it into the public ``verify_*`` function, whose runner
validates arguments and reports the first mismatch; ``run_identity`` looks
the check up in the registry.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .analytic import (DegenerateRoots, binet_spinor, cubic_roots, genfunc_coefficient,
                       genfunc_numerator)
from .gauss import GaussScalar, I, Rational, rat
from .quaternions import (
    DegenerateDelta,
    Quaternion,
    k_window,
    qmul,
    qnorm,
    quat_window,
    qv_right_multiply,
    qv_window,
    sum_window,
    summation_correction,
    u_companion,
    u_window,
)
from .sequences import TRIBONACCI, SeqParams, companion_matrix, companion_power, seq_slice
from .spinors import (
    C,
    Spinor,
    bilinear_form,
    breve,
    cartan_conjugate,
    complex_conjugate,
    mate,
    sigma,
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


class Comparison(NamedTuple):
    """One checked equation lhs == rhs at index n.

    A witness prefixes lhs with label and rhs with rhs_label; note becomes the
    report's note when this comparison fails, and is called first if it is a
    function, so that costly text is only built for a failure. ok, when
    given, is the verdict of a comparison that is not exact equality.
    """

    n: int
    lhs: object
    rhs: object
    label: str = ""
    rhs_label: str = ""
    note: str | Callable[[], str] = ""
    ok: bool | None = None


def random_params(rng: random.Random) -> SeqParams:
    """Integer parameter set drawn uniformly from [-5, 5]^6, the sweep distribution."""
    return SeqParams(*(rng.randint(-5, 5) for _ in range(6)))


def check_tolerance(tol: float) -> None:
    """Reject a tolerance that is not a finite number above zero."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")


def _validate(args: dict, least: int = 0) -> None:
    if args.get("nmax", least) < least:
        raise ValueError(f"nmax must be at least {least}" if least
                         else "nmax must be nonnegative")
    if "tol" in args:
        check_tolerance(args["tol"])
    if args.get("trials", 1) < 1:
        raise ValueError("trials must be at least 1")


def _run(identity: IdentityId, checks: Iterator[Comparison], p: SeqParams | None,
         span: tuple[int, int], passed: Status) -> VerificationReport:
    """The runner: drive a check to its first mismatch, or to its end and its note."""
    while True:
        try:
            c = next(checks)
        except StopIteration as done:
            return VerificationReport(identity, p, span, passed, note=done.value or "")
        if (c.lhs != c.rhs) if c.ok is None else not c.ok:
            witness = Witness(c.n, f"{c.label}{c.lhs}", f"{c.rhs_label}{c.rhs}")
            note = c.note if isinstance(c.note, str) else c.note()
            return VerificationReport(identity, p, span, Status.FAIL, witness, note)


# A registered check: its verify function, its parameter names, the smallest
# nmax it accepts, the largest nmax run_identity passes to it, the last window
# it compares and, for a sequence check, its order.
_Entry = NamedTuple("_Entry", [("verify", Callable), ("names", tuple), ("least", int),
                               ("cap", float), ("last", float), ("order", "int | None")])
_REGISTRY: dict[IdentityId, _Entry] = {}


def _register(identity: IdentityId, *, least: int = 0, cap: float = math.inf,
              passed: Status = Status.EXACT_PASS, basis: int = 0, last: float = math.inf,
              order: int | None = None):
    """Register a comparison generator as the check of `identity` and return
    it bound to the runner, as the public verify function.

    The generator numbers its comparisons from 0: first `basis` of them on a
    fixed basis, then its seeded draws, or else the windows at n up to
    min(nmax, last); a sequence check of the given order compares only the
    indices _depth picks among them. The report's span covers them all."""
    def register(gen: Callable[..., Iterator[Comparison]]):
        @functools.wraps(gen)
        def verify(*args, **kwargs) -> VerificationReport:
            # Calling gen binds the arguments, or raises TypeError; the unstarted
            # generator's frame holds just the bound arguments, defaults included.
            checks = gen(*args, **kwargs)
            a = checks.gi_frame.f_locals
            _validate(a, least)
            span = (0, basis + (a["trials"] - 1 if "trials" in a else min(a["nmax"], last)))
            return _run(identity, checks, a.get("p"), span, passed)

        names = gen.__code__.co_varnames[:gen.__code__.co_argcount]
        _REGISTRY[identity] = _Entry(verify, names, least, cap, last, order)
        return verify
    return register


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


@_register(IdentityId.SPINOR_RECURRENCE, least=3, order=_LINEAR_ORDER)
def verify_spinor_recurrence(p: SeqParams, nmax: int) -> Iterator[Comparison]:
    """A(n+3) = r*A(n+2) + s*A(n+1) + t*A(n), exact, up to the last window
    A(nmax): the guard is at n = nmax-3."""
    v = seq_slice(p, 0, nmax + 4)
    indices, note = _depth(_LINEAR_ORDER, nmax - 3)
    for n in indices:
        yield Comparison(n, spinor_window(v, n + 3),
                         p.r * spinor_window(v, n + 2)
                         + p.s * spinor_window(v, n + 1)
                         + p.t * spinor_window(v, n))
    return note


# The basis spinors [1; 0], [i; 0], [0; 1] and [0; i], on int.
_BASIS_SPINORS = [Spinor(1, 0), Spinor(I, 0), Spinor(0, 1), Spinor(0, I)]

# The unit term windows of four terms and of five, and the polarization points
# of Q^4 as quaternions on int: the units e_i, then the sums e_i + e_j for i < j.
_UNIT_WINDOWS = [tuple(int(i == j) for j in range(4)) for i in range(4)]
_UNIT_K_WINDOWS = [tuple(int(i == j) for j in range(5)) for i in range(5)]
_POLARIZATION_POINTS = ([Quaternion(*e) for e in _UNIT_WINDOWS]
                        + [Quaternion(*a) + Quaternion(*b)
                           for a, b in itertools.combinations(_UNIT_WINDOWS, 2)])

# A check proved on a basis then compares the set's windows at n <= min(nmax, 3).
_LAST_WINDOW = 3


@_register(IdentityId.CONJUGATE_RELATIONS, basis=len(_BASIS_SPINORS), last=_LAST_WINDOW)
def verify_conjugate_relations(p: SeqParams, nmax: int) -> Iterator[Comparison]:
    """The three conjugation operators interlock: C @ mate = conjugate,
    i * cartan = mate, i * (C @ cartan) = conjugate.

    Comparisons 0-3 are the basis spinors [1; 0], [i; 0], [0; 1] and [0; i].
    Every operator is Q-linear in a spinor's four rational components as
    written, so agreement there proves the relations for every spinor. The
    set's windows at n <= min(nmax, 3) follow, from comparison 4 on: they
    guard against a fault that is not linear.
    """
    last = min(nmax, _LAST_WINDOW)
    v = seq_slice(p, 0, last + 4)
    basis = len(_BASIS_SPINORS)
    spinors = itertools.chain(_BASIS_SPINORS, (spinor_window(v, m) for m in range(last + 1)))
    for n, a in enumerate(spinors):
        # The note's text is built only on a failure, as in triple_product.
        what = lambda: f"basis spinor {a}" if n < basis else f"window n={n - basis}"
        conj, mated, cartan = complex_conjugate(a), mate(a), cartan_conjugate(a)
        yield Comparison(n, C @ mated, conj, "C@mate: ", note=what)
        yield Comparison(n, I * cartan, mated, "i*cartan: ", note=what)
        yield Comparison(n, I * (C @ cartan), conj, "i*C@cartan: ", note=what)
    return f"{len(_BASIS_SPINORS)} basis spinors and the windows on [0..{last}]"


def norm_forms(a: Spinor) -> tuple[GaussScalar, GaussScalar, GaussScalar]:
    """The three spinor-side expressions for the quaternion norm of spinor a.

    C.transpose() equals -C, so pairing through C with a leading minus is the
    sign that makes the mate/cartan forms match the conjugate pairing.
    """
    return (
        spinor_norm(a),
        -bilinear_form(mate(a), C, a),
        (-I) * bilinear_form(cartan_conjugate(a), C, a),
    )


_NORM_LABELS = ("conjugate pairing: ", "mate pairing: ", "cartan pairing: ")
_NORM_BASIS = len(_POLARIZATION_POINTS) + len(_UNIT_WINDOWS)


@_register(IdentityId.NORM_EQUALITY, basis=_NORM_BASIS, last=_LAST_WINDOW)
def verify_norm_equality(p: SeqParams, nmax: int) -> Iterator[Comparison]:
    """All three spinor norm forms equal the quaternion norm
    V(n)^2 + V(n+1)^2 + V(n+2)^2 + V(n+3)^2, exactly.

    Comparisons 0-9 set the three norm forms of sigma(q) against qnorm(q) at
    the polarization points e_i and e_i + e_j of Q^4. Each side is a
    quadratic form on Q^4 as written, and two quadratic forms that agree
    there agree everywhere. Comparisons 10-13 check spinor_window(u) =
    sigma(quat_window(u)) on the four unit windows; both readers are linear
    in four terms, so every spinor window is sigma of its quaternion window,
    and the norm equality holds at every n. The set's windows at
    n <= min(nmax, 3) follow, from comparison 14 on: they guard against a
    fault that is not quadratic.
    """
    # Each note's text is built only on a failure, as in triple_product.
    for n, q in enumerate(_POLARIZATION_POINTS):
        target = GaussScalar(qnorm(q))
        what = lambda: f"polarization point {q}"
        for label, value in zip(_NORM_LABELS, norm_forms(sigma(q))):
            yield Comparison(n, value, target, label, note=what)
    for n, u in enumerate(_UNIT_WINDOWS, len(_POLARIZATION_POINTS)):
        yield Comparison(n, spinor_window(u), sigma(quat_window(u)),
                         note=lambda: f"unit window {u}")
    last = min(nmax, _LAST_WINDOW)
    v = seq_slice(p, 0, last + 4)
    for n in range(last + 1):
        forms = norm_forms(spinor_window(v, n))
        target = GaussScalar(qnorm(quat_window(v, n)))
        for label, value in zip(_NORM_LABELS, forms):
            yield Comparison(_NORM_BASIS + n, value, target, label,
                             note=lambda: f"window n={n}")
    return (f"{len(_POLARIZATION_POINTS)} polarization points, {len(_UNIT_WINDOWS)} unit "
            f"windows and the windows on [0..{last}]")


# Float error grows with the dominant root's power: run_identity caps the range.
@_register(IdentityId.BINET_AGREEMENT, cap=30, passed=Status.TOLERED_PASS)
def verify_binet(p: SeqParams, nmax: int, tol: float = 1e-9) -> Iterator[Comparison]:
    """Root-based closed form reproduces the exact spinors within a relative
    tolerance; binet_spinor raises DegenerateRoots for (nearly) repeated roots."""
    roots = cubic_roots(p.r, p.s, p.t)
    v = seq_slice(p, 0, nmax + 4)
    worst = 0.0
    worst_n = 0
    for n in range(nmax + 1):
        approx = binet_spinor(p, n, roots)
        exact = spinor_window(v, n)
        for got, want in zip(approx, (exact.c1, exact.c2)):
            want_c = want.to_complex()
            err = abs(got - want_c) / max(1.0, abs(want_c))
            if err > worst:
                worst, worst_n = err, n
        if worst <= tol:
            yield Comparison(n, approx, exact, ok=True)
        else:
            yield Comparison(n, f"[{approx[0]:.12g}; {approx[1]:.12g}]", exact,
                             note=f"relative error {worst:.3e} exceeds tol {tol:.1e}", ok=False)
    return f"max relative error {worst:.3e} at n={worst_n} (tol {tol:.1e})"


@_register(IdentityId.GENFUNC_AGREEMENT, order=_LINEAR_ORDER)
def verify_genfunc_agreement(p: SeqParams, nmax: int) -> Iterator[Comparison]:
    """Power-series coefficients of the rational generating function equal
    the directly iterated spinors, exactly. Each coefficient compared is read
    off the generating function by itself, in O(log k) products on int
    (genfunc_coefficient); the windows come from the slice's forward steps."""
    numerator = genfunc_numerator(p)
    v = seq_slice(p, 0, nmax + 4)
    indices, note = _depth(_LINEAR_ORDER, nmax)
    for k in indices:
        yield Comparison(k, genfunc_coefficient(numerator, p, k), spinor_window(v, k))
    return note


# The 64 triples of the basis quaternions 1, i, j, k, the last one varying fastest.
_BASIS_TRIPLES = list(itertools.product((Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
                                         Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)),
                                        repeat=3))

# Seeded random triples triple_product draws after its basis triples, by default.
TRIALS = 16


def _random_triples(seed: int, trials: int) -> Iterator[tuple[Quaternion, ...]]:
    """trials triples of quaternions with components k/d, k in [-9, 9] and d in {1, 2}."""
    rng = random.Random(seed)
    for _ in range(trials):
        yield tuple(Quaternion(*(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2)))
                                 for _ in range(4))) for _ in range(3))


@_register(IdentityId.TRIPLE_PRODUCT_MAP, basis=len(_BASIS_TRIPLES))
def verify_triple_product_map(seed: int, trials: int = TRIALS) -> Iterator[Comparison]:
    """sigma(a*b*c) = -(breve(a) @ breve(b)) @ sigma(c), an identity of the
    representation, parameter-free.

    Comparisons 0-63 are the 64 triples of basis quaternions. Both sides are
    trilinear over Q as written, so agreement there proves the identity for
    every triple of rational quaternions. The trials seeded random triples
    that follow guard against a fault that is not trilinear.
    """
    triples = itertools.chain(_BASIS_TRIPLES, _random_triples(seed, trials))
    for n, (a, b, c) in enumerate(triples):
        # Each side on its own; the spinor side right to left.
        yield Comparison(n, sigma(qmul(qmul(a, b), c)), -(breve(a) @ (breve(b) @ sigma(c))),
                         note=lambda: f"a={a}, b={b}, c={c}")
    return f"{len(_BASIS_TRIPLES)} basis triples and {trials} random triples, seed {seed}"


@_register(IdentityId.SPINOR_MATRIX_BEHAVIOR, basis=len(_UNIT_K_WINDOWS), last=_LAST_WINDOW)
def verify_spinor_matrix_behavior(p: SeqParams, nmax: int) -> Iterator[Comparison]:
    """The 2x2-matrix image of the window matrix keeps its middle column's
    linearity: breve(K(n)) = s*breve(Q(n+1)) + t*breve(Q(n)), the lhs from
    the summed quaternion K(n), the rhs from the two window images.

    Comparisons 0-4 are the five unit term windows. For a fixed p both sides
    are Q-linear in the terms V(n)..V(n+4) as written, so agreement there
    proves the relation at every n. The set's windows at n <= min(nmax, 3)
    follow, from comparison 5 on: they guard against a fault that is not linear.

    Products of window entries are not checked per n: that a triple product
    maps to the negated matrix product is an instance of the correspondence
    triple_product proves for every triple of rational quaternions."""
    for n, u in enumerate(_UNIT_K_WINDOWS):
        yield Comparison(n, breve(k_window(p, u)),
                         p.s * breve(quat_window(u, 1)) + p.t * breve(quat_window(u)),
                         note=f"unit window {u}")
    last = min(nmax, _LAST_WINDOW)
    v = seq_slice(p, 0, last + 6)
    breve_q = [breve(quat_window(v, m)) for m in range(last + 2)]
    for n in range(last + 1):
        yield Comparison(len(_UNIT_K_WINDOWS) + n, breve(k_window(p, v, n)),
                         p.s * breve_q[n + 1] + p.t * breve_q[n], note=f"window n={n}")
    return f"{len(_UNIT_K_WINDOWS)} unit windows and the windows on [0..{last}]"


# Index offsets (da, db, dc) of the six-term determinant-style combination;
# entries are breve(Q(n+da)) @ breve(K(n+db)) @ sigma(Q(n+dc)), the first
# three added and the last three subtracted.
_DET_TERMS = (
    (1, 1, 4),
    (2, 2, 2),
    (3, 0, 3),
    (1, 2, 3),
    (2, 0, 4),
    (3, 1, 2),
)

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
    """Evaluate the six-term combination at shift n on both sides.

    Returns (spinor value, quaternion value), the quaternion value from
    Hamilton products of the windows. The two sides satisfy
    spinor = -sigma(quaternion).
    """
    v = seq_slice(p, 0, n + 10)
    quat = _det_combine([qmul(qmul(quat_window(v, n + da), k_window(p, v, n + db)),
                              quat_window(v, n + dc)) for da, db, dc in _DET_TERMS])
    return _det_spinor(p, v, n), quat


@_register(IdentityId.DETERMINANT_COMBINATION, order=_DET_ORDER)
def verify_determinant_combination(p: SeqParams, nmax: int) -> Iterator[Comparison]:
    """The paper's Cassini-like formula for tribonacci: the six-term
    determinant-style combination of window matrices, its fifth term's final
    index read as n+4, has the spinor side 4*[-1+i; 1-i] for every n."""
    if p != TRIBONACCI:
        raise UnsupportedParams(
            "determinant combination is only defined for the tribonacci preset"
        )
    v = seq_slice(p, 0, nmax + 10)
    indices, note = _depth(_DET_ORDER, nmax)
    for n in indices:
        yield Comparison(n, _det_spinor(p, v, n), _DET_REFERENCE,
                         note="final index n+4: spinor side differs from reference")
    return f"final index n+4: spinor side equals reference {_DET_REFERENCE}; {note}"


@_register(IdentityId.SUMMATION_CLOSED_FORM, order=_SUM_ORDER)
def verify_summation(p: SeqParams, nmax: int) -> Iterator[Comparison]:
    """delta * (A(0) + ... + A(n)) = A(n+2) + (1-r)*A(n+1) + t*A(n) + c,
    checked against the direct sum for both candidate constants: the sigma
    image of the quaternion correction omega, and the alternative seed-window
    vector. The right side is sigma of sum_window, the closed form
    quat_partial_sum evaluates. The left side sums terms, not spinors:
    component j of A(0) + ... + A(n) reads V(j) + ... + V(j+n), a difference
    of two prefix sums of the slice's terms, so the sum is the spinor window
    of the prefix sums at n+1 less the one at 0. Each candidate is of order
    4, so its first mismatch, if any, lies at n <= 3. Status reflects the
    sigma(omega) candidate; the outcome for both is recorded in the note."""
    corr = summation_correction(p)
    if corr.delta == 0:
        raise DegenerateDelta()
    v = seq_slice(p, 0, nmax + 6)
    derived = sigma(corr.omega)
    stated = spinor_window([rat((p.r + p.s) * v[j] + (p.r - 1) * v[j + 1] - v[j + 2])
                            for j in range(4)])
    # prefix[m] = V(0) + ... + V(m-1)
    prefix = list(itertools.accumulate(v[:nmax + 4], initial=0))
    first = spinor_window(prefix)
    indices, depth_note = _depth(_SUM_ORDER, nmax)
    # (n, scaled direct sum, closed form without its constant) at each compared n
    sides = [(n, corr.delta * (spinor_window(prefix, n + 1) - first), sigma(sum_window(p, v, n)))
             for n in indices]
    # The seed-window candidate is data: its first mismatch goes in the note.
    miss = next((n for n, lhs, base in sides if lhs != base + stated), None)
    stated_text = (
        f"seed-window constant {stated}: also exact" if miss is None
        else f"seed-window constant {stated}: first mismatch at n={miss}"
    )
    note = f"sigma(omega) constant {derived} fails; {stated_text}"
    for n, lhs, base in sides:
        yield Comparison(n, lhs, base + derived, note=note)
    return f"sigma(omega) constant {derived}: exact; {depth_note}; {stated_text}"


@_register(IdentityId.U_DECOMPOSITION, order=_LINEAR_ORDER)
def verify_u_decomposition(p: SeqParams, nmax: int) -> Iterator[Comparison]:
    """The companion-sequence combination reproduces the window quaternion
    two steps ahead: quat_u_decomposition(p, n) = Q(n+2), exactly."""
    v = seq_slice(p, 0, nmax + 6)
    u = seq_slice(u_companion(p), 0, nmax + 3)
    indices, note = _depth(_LINEAR_ORDER, nmax)
    for n in indices:
        yield Comparison(n, u_window(p, v, u, n), quat_window(v, n + 2))
    return note


@_register(IdentityId.MATRIX_POWER_SHIFT, order=_LINEAR_ORDER)
def verify_matrix_power_shift(p: SeqParams, nmax: int) -> Iterator[Comparison]:
    """Right-multiplying the window matrix at shift 0 by the companion matrix
    n times lands exactly on the window matrix at shift n, whose rows are
    R(n+2), R(n+1) and R(n), each R(m) = (Q(m+2), K(m), t*Q(m+1)). Below the
    order the product is carried one step at a time; the guard's takes the
    companion power by the power kernel, sharing no step with the slice.
    The two are compared whole, and entry by entry only where they differ."""
    v = seq_slice(p, 0, nmax + 8)
    cells = [(i, j, f"entry({i},{j})=") for i, j in itertools.product(range(3), repeat=2)]
    product = start = qv_window(p, v)
    indices, note = _depth(_LINEAR_ORDER, nmax)
    for n in indices:
        if n >= _LINEAR_ORDER:
            product = qv_right_multiply(start, companion_power(p, n))
        elif n:
            product = qv_right_multiply(product, companion_matrix(p))
        window = tuple((quat_window(v, m + 2), k_window(p, v, m), p.t * quat_window(v, m + 1))
                       for m in (n + 2, n + 1, n))
        if product != window:
            for i, j, label in cells:
                yield Comparison(n, product[i][j], window[i][j], label, label)
    return note


def run_identity(
    identity: IdentityId,
    p: SeqParams,
    *,
    nmax: int = 50,
    seed: int = 0,
    tol: float = 1e-9,
) -> VerificationReport:
    """Run one identity check, converting parameter-dependent refusals
    (degenerate delta or roots, unsupported preset) and float overflow into
    skip reports."""
    _validate({"nmax": nmax, "tol": tol})
    entry = _REGISTRY[identity]
    given = {"p": p, "nmax": max(min(nmax, entry.cap), entry.least), "seed": seed,
             "tol": tol, "trials": TRIALS}
    try:
        return entry.verify(**{name: given[name] for name in entry.names})
    except (DegenerateDelta, DegenerateRoots, UnsupportedParams, OverflowError) as exc:
        return VerificationReport(
            identity, p, (0, given["nmax"]), Status.SKIPPED,
            note=f"skipped ({type(exc).__name__}): {exc}",
        )


def run_suite(
    p: SeqParams, nmax: int = 50, seed: int = 0, tol: float = 1e-9
) -> list[VerificationReport]:
    """Run every identity in declaration order; deterministic for fixed seed."""
    return [run_identity(i, p, nmax=nmax, seed=seed, tol=tol) for i in IdentityId]
