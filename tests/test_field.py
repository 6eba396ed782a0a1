import builtins

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cyclelab import field as fd
from cyclelab import lab, registry
from cyclelab import poly2 as p2
from cyclelab.poly2 import Poly2, parse_poly

S = parse_poly("1 - x^2 - y^2")
BOX = (-1.5, 1.5, -1.5, 1.5)


def test_divergence_examples():
    assert oracles.same_coeffs(fd.divergence(fd.PolyVectorField(parse_poly("x"), parse_poly("y"))),
                               parse_poly("2"))
    assert oracles.is_zero(fd.divergence(fd.PolyVectorField(parse_poly("-y"), parse_poly("x"))))


def test_divergence_ck3_closed_form(ck):
    s = parse_poly("1 - x^2 - y^2")
    want = p2.add(
        p2.scale(p2.mul(s, p2.mul(s, s)), 2.0),
        p2.scale(p2.mul(p2.mul(s, s), parse_poly("x^2 + y^2")), -6.0),
    )
    assert oracles.same_coeffs(fd.divergence(ck[3]), want, 1e-12)
    # vanishes identically on the unit circle
    th = np.linspace(0, 2 * np.pi, 17)
    div = fd.divergence(ck[3])
    assert np.max(np.abs(div(np.cos(th), np.sin(th)))) < 1e-14


def test_perp(ck):
    one_zero = fd.PolyVectorField(parse_poly("1"), Poly2.zero())
    assert oracles.is_zero(oracles.perp(one_zero).P)
    assert oracles.same_coeffs(oracles.perp(one_zero).Q, parse_poly("1"))
    # quarter turn squared is -identity, coefficient-wise
    pp = oracles.perp(oracles.perp(ck[2]))
    assert oracles.same_coeffs(pp.P, p2.scale(ck[2].P, -1.0), 0.0)
    assert oracles.same_coeffs(pp.Q, p2.scale(ck[2].Q, -1.0), 0.0)
    # CK(1): (-Q, P)(1, 0) = (-1, 0)
    px, py = oracles.perp(ck[1])(1.0, 0.0)
    assert (px, py) == (pytest.approx(-1.0), pytest.approx(0.0))


def test_rotate_family_identity_and_linearity(ck):
    X = ck[2]
    same = fd.rotate_family(X, 0.0, 0.37)
    assert oracles.same_coeffs(same.P, X.P, 0.0) and oracles.same_coeffs(same.Q, X.Q, 0.0)
    lam, eps = 0.03, 0.21
    rot = fd.rotate_family(X, lam, eps)
    manual_p = p2.add(X.P, p2.scale(oracles.perp(X).P, lam * eps))
    manual_q = p2.add(X.Q, p2.scale(oracles.perp(X).Q, lam * eps))
    assert oracles.same_coeffs(rot.P, manual_p, 0.0) and oracles.same_coeffs(rot.Q, manual_q, 0.0)


def test_rotate_family_polar_law(ck):
    # radial law r(s^2 - mu) for rotated CK(2): compare radial components
    mu = 0.01
    rot = fd.rotate_family(ck[2], mu / 0.1, 0.1)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.6, 1.4, 40)
    th = rng.uniform(0, 2 * np.pi, 40)
    x, y = r * np.cos(th), r * np.sin(th)
    p, q = rot(x, y)
    radial = (x * p + y * q) / r
    s = 1 - r * r
    assert np.max(np.abs(radial - r * (s**2 - mu))) < 1e-12


def test_gradient_collapse_family(ck):
    s = parse_poly("1 - x^2 - y^2")
    assert oracles.same_coeffs(fd.gradient_collapse_family(ck[3], s, 0.0).P, ck[3].P, 0.0)
    const = Poly2.constant(4.2)
    same = fd.gradient_collapse_family(ck[3], const, 0.7)
    assert oracles.same_coeffs(same.P, ck[3].P, 0.0) and oracles.same_coeffs(same.Q, ck[3].Q, 0.0)
    # polar law r s (s^2 - 2 lam)
    lam = 0.02
    pert = fd.gradient_collapse_family(ck[3], s, lam)
    rng = np.random.default_rng(6)
    r = rng.uniform(0.7, 1.3, 40)
    th = rng.uniform(0, 2 * np.pi, 40)
    x, y = r * np.cos(th), r * np.sin(th)
    p, q = pert(x, y)
    radial = (x * p + y * q) / r
    ss = 1 - r * r
    assert np.max(np.abs(radial - r * ss * (ss**2 - 2 * lam))) < 1e-12


def test_divergence_decomposition_identity(ck):
    # div(family) = div X + lam (|grad R|^2 + R Lap R) at coefficient level
    R = parse_poly("1 - x^2 - y^2")
    lam = 0.013
    fam = fd.gradient_collapse_family(ck[3], R, lam)
    Rx, Ry = R.derivative("x"), R.derivative("y")
    lap = p2.add(Rx.derivative("x"), Ry.derivative("y"))
    extra = p2.add(p2.add(p2.mul(Rx, Rx), p2.mul(Ry, Ry)), p2.mul(R, lap))
    want = p2.add(fd.divergence(ck[3]), p2.scale(extra, lam))
    assert oracles.same_coeffs(fd.divergence(fam), want, 1e-12)


def _close(got, want, rel=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


def test_collapse_field_matches_the_expanded_family(ck):
    """A Bernstein R gives a CollapseField whose values (on arrays and on
    scalars), float rhs() and divergence agree with the monomial family of
    the same polynomial, multiplied out, within 1e-12 relative."""
    lam = 0.02
    R = oracles.to_bernstein(S, BOX)
    Y = fd.gradient_collapse_family(ck[3], R, lam)
    ref = fd.gradient_collapse_family(ck[3], S, lam)
    assert isinstance(Y, fd.CollapseField) and isinstance(ref, fd.PolyVectorField)
    rng = np.random.default_rng(24)
    x, y = rng.uniform(-1.1, 1.1, 500), rng.uniform(-1.1, 1.1, 500)
    for got, want in zip(Y(x, y), ref(x, y)):
        assert _close(got, want)
    rhs, ref_rhs = Y.rhs(), ref.rhs()
    assert Y.rhs() is rhs  # built once per field
    div, ref_div = fd.divergence(Y), fd.divergence(ref)
    assert _close(div(x, y), ref_div(x, y))
    for xk, yk in zip(x[:100].tolist(), y[:100].tolist()):
        assert _close(Y(xk, yk), ref(xk, yk))
        assert _close(rhs(xk, yk), ref_rhs(xk, yk))
        assert all(type(v) is float for v in rhs(xk, yk))
        assert _close(div(xk, yk), ref_div(xk, yk))


def test_collapse_field_is_its_own_lane_group(ck):
    """lane_evaluators puts a CollapseField in the group whose select is None."""
    Y = fd.gradient_collapse_family(ck[3], oracles.to_bernstein(S, BOX), 0.02)
    groups = fd.lane_evaluators([ck[1], Y, ck[3]])
    assert sorted((members, select is None) for members, select in groups) == [
        ([0], False), ([1], True), ([2], False)]


def test_poly_vector_field_is_monomial():
    b = oracles.to_bernstein(S, BOX)
    for P, Q in ((b, S), (S, b), (b, b)):
        with pytest.raises(TypeError, match="Poly2"):
            fd.PolyVectorField(P, Q)


def test_rotation_preserves_singularities(ck):
    rot = fd.rotate_family(ck[2], 0.05, 0.1)
    assert rot.P(0.0, 0.0) == 0.0 and rot.Q(0.0, 0.0) == 0.0
    # any common zero stays a zero; dyadic parameters keep the coefficient
    # arithmetic exact so the zero is preserved to the last bit
    X = fd.PolyVectorField(parse_poly("x - 1"), parse_poly("y - 2"))
    rx, ry = fd.rotate_family(X, 0.25, 0.5)(1.0, 2.0)
    assert rx == 0.0 and ry == 0.0


def test_cr_distance_examples(ck):
    box = (-1.5, 1.5, -1.5, 1.5)
    assert fd.cr_distance(ck[1], ck[1], box, r=1) == 0.0
    shifted = fd.PolyVectorField(p2.add(ck[1].P, Poly2.constant(1e-3)), ck[1].Q)
    assert fd.cr_distance(ck[1], shifted, box, r=2) == pytest.approx(1e-3, rel=1e-12)
    # distance to the rotated family is lam*eps times the perp functional
    lam, eps = 0.01, 0.1
    rot = fd.rotate_family(ck[2], lam, eps)
    d = fd.cr_distance(ck[2], rot, box, r=1)
    perp_functional = fd.cr_distance(
        fd.PolyVectorField(Poly2.zero(), Poly2.zero()), oracles.perp(ck[2]), box, r=1
    )
    assert d == pytest.approx(lam * eps * perp_functional, rel=1e-12)


def test_cr_distance_pseudometric(rng):
    box = (-1.0, 1.0, -1.0, 1.0)
    fields = []
    for _ in range(3):
        coeffs_p = {(i, j): rng.standard_normal() for i in range(3) for j in range(2)}
        coeffs_q = {(i, j): rng.standard_normal() for i in range(2) for j in range(3)}
        fields.append(fd.PolyVectorField(Poly2.monomial(coeffs_p), Poly2.monomial(coeffs_q)))
    a, b, c = fields
    dab = fd.cr_distance(a, b, box, 1)
    dba = fd.cr_distance(b, a, box, 1)
    assert dab == dba
    dac = fd.cr_distance(a, c, box, 1)
    dcb = fd.cr_distance(c, b, box, 1)
    assert dab <= dac + dcb + 1e-12


def test_registry_and_literals(ck):
    assert oracles.same_coeffs(fd.parse_field("CK(3)").P, ck[3].P, 0.0)
    vdp = fd.parse_field("vanderpol(1.0)")
    assert oracles.same_coeffs(vdp.P, parse_poly("y"), 0.0)
    assert oracles.same_coeffs(vdp.Q, parse_poly("-x + y - x^2*y"), 0.0)
    lit = fd.parse_field({"p": "-y", "q": "x"})
    assert lit.degree == 1
    with pytest.raises(ValueError):
        fd.parse_field("CK(x)")
    with pytest.raises(ValueError):
        fd.parse_field(42)


def test_ck_polar_reduction_against_oracle(ck):
    # the library field's radial component matches the polar oracle's law
    for k in (1, 2, 3):
        r = np.linspace(0.5, 1.4, 19)
        x, y = r, np.zeros_like(r)
        p, q = ck[k](x, y)
        radial = (x * p + y * q) / r
        law = oracles.ck_radial(k)
        assert np.max(np.abs(radial - np.array([law(v) for v in r]))) < 1e-13


# monomial exponent maps of total degree <= 12: sparse (a few terms) or dense
# (every exponent of a degree-d triangle), coefficients of mixed magnitude
_coeff = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_sparse = st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12))
                          .filter(lambda ij: ij[0] + ij[1] <= 12), _coeff, max_size=6)
_dense = st.integers(0, 12).flatmap(lambda d: st.fixed_dictionaries(
    {(i, j): _coeff for i in range(d + 1) for j in range(d + 1 - i)}))
_monomial = st.one_of(_sparse, _dense).map(Poly2.monomial)
_collapse = st.floats(-0.5, 0.5, allow_nan=False).map(
    lambda lam: fd.gradient_collapse_family(fd.ck_system(3), parse_poly("1 - x^2 - y^2"), lam))
_fields = st.one_of(st.builds(fd.PolyVectorField, _monomial, _monomial),
                    st.just(fd.PolyVectorField(Poly2.zero(), Poly2.zero())), _collapse)
_point = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


# every exponent of total degree <= 30, with coefficients of both signs
_DENSE_30 = fd.PolyVectorField(
    Poly2.monomial({(i, j): (-1.0) ** (i * j) * (i + 2 * j + 1) / (j + 1) ** 2
                    for i in range(31) for j in range(31 - i)}),
    Poly2.monomial({(i, j): (0.37 * (i + 1) - j) / (i + j + 1)
                    for i in range(31) for j in range(31 - i)}))


@settings(max_examples=300, deadline=None)
@given(_fields, st.lists(st.tuples(_point, _point), min_size=1, max_size=5))
@example(_DENSE_30, [(0.7, -0.4), (-1.2, 0.9), (1e-3, -1.5), (0.0, 0.0)])
# degree 241: its Horner expression nests deeper than the 200 parentheses
# Python's parser accepts, so it only compiles as several statements
@example(fd.ck_system(120), [(0.6, 0.3), (-0.9, 0.5), (1.05, -0.2), (0.0, 1.0)])
def test_compiled_rhs_is_eval_poly_bit_for_bit(X, points):
    """rhs() on floats and, for fields with two nonzero monomial components,
    the evaluator of lane_evaluators on lane arrays."""
    rhs = X.rhs()
    assert X.rhs() is rhs  # compiled once per field
    ((members, select),) = fd.lane_evaluators([X])
    assert members == [0]
    if select is not None:
        xs, ys = (np.array(v) for v in zip(*points))
        lanes = select(np.zeros(len(points), dtype=int))(xs, ys)
    for k, (x, y) in enumerate(points):
        # float.hex tells -0.0 from 0.0
        ref = [oracles.eval_poly(X.P, x, y).hex(), oracles.eval_poly(X.Q, x, y).hex()]
        assert [v.hex() for v in rhs(x, y)] == ref
        if select is not None:
            assert [float(v[k]).hex() for v in lanes] == ref


def test_one_body_per_monomial_set():
    """CK(3) and its gradient-collapse family share their nonzero monomials,
    so their rhs() bind one compiled body; so do a Poly2 and its multiple."""
    X = fd.ck_system(3)
    family = fd.gradient_collapse_family(X, registry.exact_vanishing_poly("CK(3)"), 0.02)
    assert X._key == family._key
    assert X.rhs().__code__ is family.rhs().__code__
    assert X.rhs() is not family.rhs()
    # the same monomials in another order
    turned = fd.PolyVectorField(Poly2.monomial(dict(reversed(X.P.coeffs.items()))), X.Q)
    assert turned.rhs().__code__ is X.rhs().__code__
    assert [v.hex() for v in turned.rhs()(0.3, -0.7)] == [v.hex() for v in X.rhs()(0.3, -0.7)]
    assert S._horner.__code__ is p2.scale(S, -3.0)._horner.__code__


def test_warm_split_compiles_nothing(monkeypatch):
    """A second run of the split pipeline in one process finds every body it
    evaluates compiled (poly2._compiled): no exec call."""
    config = lab.ExperimentConfig.from_dict({"pipeline": "split-theorem1", "system": "CK(3)"})
    lab.run_pipeline(config)
    calls = []
    real = builtins.exec
    monkeypatch.setattr(builtins, "exec", lambda *args: calls.append(1) or real(*args))
    lab.run_pipeline(config)
    assert calls == []


# finite points, the zeros of both signs among them, as floats or arrays
_value_point = st.one_of(_point, st.sampled_from([0.0, -0.0, 1.0, -1.0]))
_value_polys = st.one_of(_monomial, st.just(Poly2.zero()),
                         st.floats(-1e3, 1e3, allow_nan=False).map(Poly2.constant))


@settings(max_examples=300, deadline=None)
@given(_value_polys, st.lists(st.tuples(_value_point, _value_point), min_size=1, max_size=6),
       st.sampled_from(["floats", "arrays", "mixed", "grid"]))
@example(_DENSE_30.P, [(0.7, -0.4), (-0.0, -0.0), (1e-3, -1.5)], "arrays")
@example(Poly2.constant(-2.5), [(0.5, -0.0)], "mixed")
@example(Poly2.zero(), [(-1.0, -0.0), (0.0, 2.0)], "grid")
@example(parse_poly("x^2 - y"), [(-0.0, 0.0), (0.0, -0.0)], "floats")
def test_poly_values_are_polyval2d_bit_for_bit(p, points, shape):
    """Poly2 values against NumPy's polyval2d (oracles.eval_poly): the same
    bits, type and shape on floats (np.float64), on arrays, on a float with
    an array, and on a broadcast grid, for constant and zero p too."""
    xs, ys = (np.array(v) for v in zip(*points))
    if shape == "floats":
        args = [(float(x), float(y)) for x, y in points]
    elif shape == "arrays":
        args = [(xs, ys), (xs.reshape(-1, 1), ys.reshape(-1, 1)), (np.asarray(xs[0]), ys[0])]
    elif shape == "mixed":
        args = [(float(xs[0]), ys), (xs, float(ys[0]))]
    else:
        args = [(xs[:, None], ys[None, :])]
    for x, y in args:
        got, want = p(x, y), oracles.eval_poly(p, x, y)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert [float(v).hex() for v in np.ravel(got)] == [float(v).hex() for v in np.ravel(want)]


# a group of lane_evaluators: fields with the same nonzero monomials, each
# with coefficients of its own; sparse supports leave interior zeros
_support = st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))
                   .filter(lambda ij: ij[0] + ij[1] <= 9), min_size=1, max_size=10)
_nonzero = st.floats(-1e3, 1e3, allow_nan=False).filter(bool)


@st.composite
def _lane_group(draw):
    support = draw(st.tuples(_support, _support))
    return [fd.PolyVectorField(*(Poly2.monomial({e: draw(_nonzero) for e in sorted(s)})
                                 for s in support))
            for _ in range(draw(st.integers(1, 3)))]


_SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)
_lane_point = st.one_of(_point, st.sampled_from(_SPECIAL + (1e200,)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_lane_group(), min_size=1, max_size=3).map(lambda gs: sum(gs, [])),
       st.lists(st.tuples(st.integers(0, 99), _lane_point, _lane_point), min_size=1, max_size=9))
@example([_DENSE_30], [(0, 0.7, -0.4), (0, -1.2, 0.9), (0, np.inf, 0.3), (0, -0.0, np.nan)])
@example([fd.ck_system(120)], [(0, 0.6, 0.3), (0, -0.9, 0.5), (0, 1.05, -np.inf), (0, 0.0, 1.0)])
# one column's top below the others' and a Q without the highest power of y
@example([fd.PolyVectorField(parse_poly("x^3 + 2*x*y - y^4"), parse_poly("x^2 - 3*y")),
          fd.PolyVectorField(parse_poly("-x^3 + 5*x*y + y^4"), parse_poly("7*x^2 - y")),
          fd.ck_system(3)],
         [(1, np.inf, 2.0), (0, -0.0, -0.0), (2, 0.5, -np.inf), (1, 0.0, 3.0), (0, 1.5, 0.0)])
# the split's wave: CK(3) and CK(3) + 0.02 R grad R in one group, whose plan
# reorders its slots for the y-phase, at every pair of signed zeros,
# infinities and NaN
@example([fd.ck_system(3), fd.gradient_collapse_family(fd.ck_system(3), S, 0.02)],
         [(k, x, y) for k, (x, y) in enumerate(
             (x, y) for x in _SPECIAL for y in _SPECIAL)])
def test_lane_rhs_is_rhs_bit_for_bit(fields, picks):
    """The lane right-hand side of every group, on lanes in any order and
    repeated, gives each lane's field's rhs() bits at every point, -0.0,
    infinities and NaN included, as a pair of arrays and written into a
    (2, lanes) slot; a second call, at other points, leaves both as they
    were."""
    lanes = [(k % len(fields), x, y) for k, x, y in picks]
    for members, select in fd.lane_evaluators(fields):
        if select is None:
            continue
        position = {m: k for k, m in enumerate(members)}
        mine = [(position[i], x, y) for i, x, y in lanes if i in position]
        if not mine:
            continue
        at, xs, ys = (np.array(v) for v in zip(*mine))
        rhs = select(at)
        slot = np.empty((2, xs.size))
        with np.errstate(all="ignore"):
            got = rhs(xs, ys)
            assert rhs(xs, ys, slot) is slot
            rhs(ys + 1.5, xs, np.empty((2, xs.size)))
            rhs(ys + 1.5, xs)
        for k, (pos, x, y) in enumerate(mine):
            # float.hex tells -0.0 from 0.0
            ref = [v.hex() for v in fields[members[pos]].rhs()(x, y)]
            assert [float(v[k]).hex() for v in got] == ref
            assert [float(v).hex() for v in slot[:, k]] == ref


def test_paired_y_phase_of_the_ck3_plan():
    """CK(3)'s plan reorders its slots once after the x-phase, so its
    y-phase takes 7 slice steps: Q's y^7 step alone, then P and Q together
    for each lower power of y, where the x-phase's order would take 13. A
    full degree-7 field's x-phase order pairs P and Q already, so its plan
    reorders nothing and steps them together from the start."""
    plan = fd._lane_plan(fd.ck_system(3)._key)
    assert plan.reorder is not None
    assert sorted(plan.reorder.tolist()) == list(range(plan.slots))
    assert [len(row) for row in plan.y_rows] == [1] * 7
    assert [[acc.stop - acc.start for acc, _ in row] for row in plan.y_rows] == [[1]] + [[2]] * 6
    full = Poly2.monomial({(i, j): 1.0 for i in range(8) for j in range(8 - i)})
    plan = fd._lane_plan(fd.PolyVectorField(full, full)._key)
    assert plan.reorder is None
    assert [[acc.stop - acc.start for acc, _ in row] for row in plan.y_rows] == [[2]] * 7


@settings(max_examples=150, deadline=None)
@given(st.lists(_lane_group(), min_size=1, max_size=3).map(lambda gs: sum(gs, [])))
@example([fd.ck_system(3), fd.PolyVectorField(parse_poly("x^3 + 2*x*y - y^4"),
                                              parse_poly("x^2 - 3*y"))])
def test_lane_coefficient_matrix_is_filled_cell_by_cell(fields):
    """A group's coefficient matrix holds, per cell of its plan and member,
    that member's coefficient or 0.0, by bytes."""
    for members, select in fd.lane_evaluators(fields):
        if select is None:
            continue
        coeffs, plan = select.__defaults__[:2]
        components = [(fields[m].P.coeffs, fields[m].Q.coeffs) for m in members]
        ref = np.array([[pq[c].get((i, j), 0.0) for pq in components] for c, i, j in plan.cells])
        assert coeffs.shape == ref.shape and coeffs.tobytes() == ref.tobytes()
