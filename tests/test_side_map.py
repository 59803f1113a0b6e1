"""Which primitives each side of each identity calls.

The two sides of an identity are computed independently: that is what makes
a pass mean something. Every function the identities module imports from
the rest of the package is wrapped here to record the side that called it,
each identity runs through run_identity, and the record must equal the map
below, part by part (a basis proof's basis, unit windows and set windows are
parts). Two sides of a part may share nothing but p and the slice, except
where the relation itself applies one map on both sides (SHARED). A change
that routes both sides of a part through one primitive fails this test.
"""

import inspect

import pytest

from trispinor import TRIBONACCI, IdentityId, Status, identities

# identity -> per part, (primitives its lhs calls, primitives its rhs calls)
SIDE_MAP = {
    "recurrence": [({"spinor_window"}, {"spinor_window"})],
    "conjugates": [({"cartan_conjugate", "mate"}, {"complex_conjugate", "mate"})] * 2,
    "norm": [({"cartan_conjugate", "mate", "sigma", "spinor_dot", "spinor_norm"}, {"qnorm"}),
             ({"spinor_window"}, {"quat_window", "sigma"}),
             ({"cartan_conjugate", "mate", "spinor_dot", "spinor_norm", "spinor_window"},
              {"qnorm", "quat_window"})],
    "binet": [({"binet_setup", "binet_spinor"}, {"spinor_window"})],
    "genfunc": [({"genfunc_coefficient", "genfunc_setup"}, {"spinor_window"})],
    "triple_product": [({"qmul", "sigma"}, {"breve", "sigma"})] * 2,
    "spinor_matrix": [({"breve", "k_window"}, {"breve", "quat_window"})] * 2,
    "determinant": [({"breve", "k_window", "quat_window", "sigma"}, set())],
    "summation": [({"spinor_window"}, {"sigma", "sum_window", "summation_correction"})],
    "u_decomposition": [({"quat_u_decomposition", "u_setup"}, {"quat_window"})],
    "matrix_power": [({"companion_power", "qv_right_multiply", "qv_window"},
                      {"k_window", "quat_window"})],
}

# Primitives two sides of a part share because the relation states it so.
SHARED = {
    # A(n+3) = r*A(n+2) + s*A(n+1) + t*A(n): every window is a spinor window.
    "recurrence": {"spinor_window"},
    # C@mate = conjugate and i*cartan = mate: mate is on the left of one
    # relation and is the right side of the next.
    "conjugates": {"mate"},
    # sigma(a*b*c) = -breve(a) @ breve(b) @ sigma(c).
    "triple_product": {"sigma"},
    # breve(K(n)) = s*breve(Q(n+1)) + t*breve(Q(n)): a relation of breve images.
    "spinor_matrix": {"breve"},
}

PRIMITIVES = sorted(name for name, f in vars(identities).items()
                    if inspect.isfunction(f) and f.__module__.startswith("trispinor.")
                    and f.__module__ != identities.__name__)


def test_the_map_covers_every_primitive_the_sides_may_call():
    assert "spinor_window" in PRIMITIVES and "qmul" in PRIMITIVES
    called = set().union(*(side for parts in SIDE_MAP.values() for part in parts for side in part))
    assert called <= set(PRIMITIVES)
    assert set(SIDE_MAP) == {i.value for i in IdentityId}


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_each_side_calls_the_primitives_of_the_map(monkeypatch, identity):
    current, calls = [], {}

    def recording(name, f):
        def call(*args, **kwargs):
            if current:
                calls[current[-1]].add(name)
            return f(*args, **kwargs)
        return call

    def side(key, f):
        calls[key] = set()

        def call(c, *point):
            current.append(key)
            try:
                return f(c, *point)
            finally:
                current.pop()
        return call

    for name in PRIMITIVES:
        monkeypatch.setattr(identities, name, recording(name, getattr(identities, name)))
    d = identities._IDENTITIES[identity]
    parts = tuple(part._replace(lhs=side((i, 0), part.lhs), rhs=side((i, 1), part.rhs))
                  for i, part in enumerate(d.parts))
    monkeypatch.setitem(identities._IDENTITIES, identity, d._replace(parts=parts))
    report = identities.run_identity(identity, TRIBONACCI, nmax=10)
    assert report.status in (Status.EXACT_PASS, Status.TOLERED_PASS)
    got = [(calls[i, 0], calls[i, 1]) for i in range(len(parts))]
    assert got == SIDE_MAP[identity.value]
    for lhs, rhs in got:
        assert lhs & rhs == SHARED.get(identity.value, set())
