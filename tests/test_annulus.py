import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cyclelab import annulus as an
from cyclelab import cycles as cy
from cyclelab.field import PolyVectorField, gradient_collapse_family, rotate_family
from cyclelab.poly2 import parse_poly

S = parse_poly("1 - x^2 - y^2")


@pytest.fixture(scope="module")
def ck3_annulus(ck, ck_cycles):
    return an.build_trapping_annulus(ck[3], ck_cycles[3], 0.1, -0.35, 0.35)


def test_build_geometry(ck3_annulus):
    ann = ck3_annulus
    assert ann.xi1 < ann.xi_z1 < 0.0 < ann.xi_z2 < ann.xi2
    r1 = np.hypot(ann.s1[:, 0], ann.s1[:, 1])
    r2 = np.hypot(ann.s2[:, 0], ann.s2[:, 1])
    assert r1.max() < 1.0 < r2.min()
    # opposite rotation signs on the two sides (counterclockwise cycle)
    assert ann.lambda0_s1 > 0 > ann.lambda0_s2


def test_polylines_close_exactly(ck3_annulus):
    assert np.array_equal(ck3_annulus.s1[0], ck3_annulus.s1[-1])
    assert np.array_equal(ck3_annulus.s2[0], ck3_annulus.s2[-1])


def test_two_corners_per_curve(ck3_annulus):
    ann = ck3_annulus
    for poly, corners in ((ann.s1, ann.corners_s1), (ann.s2, ann.corners_s2)):
        assert len(corners) == 2
        # junction turning angles are genuine corners; the rest of the arc
        # bends by at most a few degrees per vertex
        def turn(i):
            a = poly[i] - poly[i - 1 if i > 0 else -2]
            b = poly[(i + 1) % (len(poly) - 1)] - poly[i]
            ca = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
            return np.degrees(np.arccos(np.clip(ca, -1, 1)))
        smooth = [turn(i) for i in range(1, len(poly) - 1) if i not in corners]
        assert max(smooth) < 5.0
        assert all(turn(c) > 10.0 for c in corners if c > 0)


def test_build_hyperbolic_ck1(ck, ck_cycles):
    ann = an.build_trapping_annulus(ck[1], ck_cycles[1], 0.1, -0.35, 0.35)
    assert ann.xi1 < ann.xi_z1 < 0.0 < ann.xi_z2 < ann.xi2


def test_lambda0_sign_is_ignored(ck, ck_cycles, ck3_annulus):
    # each side's rotation sign comes from the cycle's orientation alone
    flipped = an.build_trapping_annulus(ck[3], ck_cycles[3], -0.1, -0.35, 0.35)
    for name in ("s1", "s2"):
        assert np.array_equal(getattr(flipped, name), getattr(ck3_annulus, name))
    for name in ("xi_z1", "xi_z2", "lambda0_s1", "lambda0_s2"):
        assert getattr(flipped, name) == getattr(ck3_annulus, name)


def test_lambda0_zero_fallback(ck, ck_cycles):
    ann = an.build_trapping_annulus(ck[1], ck_cycles[1], 0.0, -0.35, 0.35)
    assert ann.lambda0_s1 == 0.0 and ann.lambda0_s2 == 0.0
    # no -0.0 on the outer side, where the sign would be negative
    assert not np.signbit(ann.lambda0_s2)
    # xi_Z equals the plain return-map image
    assert ann.xi_z1 == pytest.approx(cy.return_map(ck[1], ck_cycles[1].section, -0.35),
                                      abs=1e-9)


def test_return_failed_on_repelling_side(ck, ck_cycles):
    # semi-stable CK(2): the exterior side recedes, no inward-pointing
    # rotated orbit can return between the anchor and the cycle
    cyc2 = cy.build_cycle(ck[2], ck_cycles[2].section, 0.0)
    with pytest.raises(an.ReturnFailed):
        an.build_trapping_annulus(ck[2], cyc2, 0.05, -0.2, 0.2)


def test_not_stable_rejected(ck, section):
    from cyclelab.field import PolyVectorField
    from cyclelab.poly2 import scale
    rev = PolyVectorField(scale(ck[1].P, -1.0), scale(ck[1].Q, -1.0))
    sec = cy.section_for_field(rev, (1.0, 0.0))
    cyc = cy.build_cycle(rev, sec, 0.0)
    cyc.multiplicity = cy.multiplicity(rev, cyc)
    with pytest.raises(an.NotStable):
        an.build_trapping_annulus(rev, cyc, 0.1, -0.2, 0.2)


def test_verify_all_clauses(ck, ck3_annulus):
    rep = an.verify_annulus(ck[3], ck3_annulus, n_samples=256,
                            invariance_orbits=8, horizon_periods=5.0)
    assert oracles.verified(rep)
    assert rep.min_flux_margin > 0
    assert rep.min_field_magnitude > 0.1
    assert rep.orbits_contained == rep.orbits_total == 8


def test_verify_perturbed_field(ck, ck3_annulus):
    Y = gradient_collapse_family(ck[3], S, 0.02)
    rep = an.verify_annulus(Y, ck3_annulus, n_samples=256,
                            invariance_orbits=8, horizon_periods=5.0)
    assert oracles.verified(rep) and rep.min_flux_margin > 0


def test_strong_rotation_reported_not_crashed(ck, ck3_annulus):
    Y = rotate_family(ck[3], 1.0, 1.0)
    rep = an.verify_annulus(Y, ck3_annulus, n_samples=128, invariance_orbits=0)
    assert isinstance(rep.inward_ok, bool)
    assert rep.min_flux_margin < 0.2  # a 45-degree turn eats the margin
    assert rep.orbits_total == 0 and rep.invariance_ok


def test_sampling_monotone_safety(ck, ck3_annulus):
    r1 = an.verify_annulus(ck[3], ck3_annulus, n_samples=128, invariance_orbits=0)
    r2 = an.verify_annulus(ck[3], ck3_annulus, n_samples=256, invariance_orbits=0)
    assert r1.inward_ok and r2.inward_ok
    assert r1.singularity_free and r2.singularity_free
    assert r1.orbits_total == r2.orbits_total == 0
    assert r1.invariance_ok and r2.invariance_ok


# (y + x*s, -x + y*s), s = 1 - x^2 - y^2: r' = r*s, theta' = -1, so the unit
# circle is a stable cycle run clockwise
CLOCKWISE = PolyVectorField(parse_poly("y + x - x^3 - x*y^2"), parse_poly("-x + y - x^2*y - y^3"))


@pytest.fixture(scope="module")
def clockwise_annulus():
    sec = cy.section_for_field(CLOCKWISE, (1.0, 0.0))
    return an.build_trapping_annulus(CLOCKWISE, cy.build_cycle(CLOCKWISE, sec, 0.0),
                                     0.1, -0.35, 0.35)


def test_clockwise_annulus(clockwise_annulus):
    ann = clockwise_annulus
    assert an._orientation(ann.s1) == an._orientation(ann.s2) == -1
    # the rotation signs are the counterclockwise ones, swapped
    assert ann.lambda0_s1 < 0 < ann.lambda0_s2
    rep = an.verify_annulus(CLOCKWISE, ann, n_samples=256, invariance_orbits=8,
                            horizon_periods=5.0)
    assert oracles.verified(rep) and rep.min_flux_margin > 0


def _probe_min_flux_margin(Y, annulus, n_samples):
    """verify_annulus's min_flux_margin with each normal's side found by a
    point-in-polygon probe, 1e-5 off each sample and 1e-6 off the midpoint
    of each corner's segments, instead of from the curve's orientation."""
    min_margin = np.inf
    for poly, corners, outer in ((annulus.s1, annulus.corners_s1, False),
                                 (annulus.s2, annulus.corners_s2, True)):
        pts = an._resample_closed(poly, n_samples)
        tang = np.roll(pts, -1, axis=0) - np.roll(pts, +1, axis=0)
        tang /= np.maximum(np.linalg.norm(tang, axis=1, keepdims=True), 1e-300)
        normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        normals[oracles.points_in_polygon(pts + 1e-5 * normals, poly) != outer] *= -1.0
        p, q = Y(pts[:, 0], pts[:, 1])
        vel = np.stack([p, q], axis=1)
        margin = (np.einsum("ij,ij->i", vel, normals)
                  / np.maximum(np.linalg.norm(vel, axis=1), 1e-300))
        min_margin = min(min_margin, float(margin.min()))
        for corner in corners:
            cpt = poly[corner]
            for nb in (poly[corner - 1] if corner > 0 else poly[-2], poly[corner + 1]):
                t = nb - cpt
                if np.linalg.norm(t) == 0:
                    continue
                t = t / np.linalg.norm(t)
                cand = np.array([t[1], -t[0]])
                probe = 0.5 * (cpt + nb) + 1e-6 * cand
                if bool(oracles.points_in_polygon(probe[None, :], poly)[0]) != outer:
                    cand = -cand
                pv, qv = Y(cpt[0], cpt[1])
                sp = float(np.hypot(pv, qv))
                min_margin = min(min_margin,
                                 float((pv * cand[0] + qv * cand[1]) / max(sp, 1e-300)))
    return min_margin


@pytest.mark.parametrize("name", ["ck3_annulus", "clockwise_annulus"])
def test_flux_normals_from_orientation_match_the_probe_rule(request, ck, name):
    """The inward side from each curve's orientation gives the probe rule's
    flux margin bit for bit."""
    ann = request.getfixturevalue(name)
    for Y in (ck[3], gradient_collapse_family(ck[3], S, 0.02), rotate_family(ck[3], 1.0, 1.0),
              CLOCKWISE):
        for n_samples in (128, 256):
            got = an.verify_annulus(Y, ann, n_samples=n_samples, invariance_orbits=0)
            assert (got.min_flux_margin.hex()
                    == _probe_min_flux_margin(Y, ann, n_samples).hex())


@pytest.mark.parametrize("name", ["ck3_annulus", "clockwise_annulus"])
def test_flux_margin_is_verify_annulus_clause_one(request, ck, name):
    ann = request.getfixturevalue(name)
    for Y in (ck[3], gradient_collapse_family(ck[3], S, 0.02), CLOCKWISE):
        got = an.flux_margin(Y, ann, 256)
        assert type(got) is float
        assert got.hex() == an.verify_annulus(Y, ann, 256, invariance_orbits=0).min_flux_margin.hex()


def test_region_membership(ck3_annulus):
    pts = np.array([[0.9, 0.0], [0.0, 1.05], [-1.0, 0.0],   # inside the region
                    [0.0, 0.0], [0.3, 0.0],                  # inside S1
                    [1.6, 0.0], [0.0, -1.6]])                # outside S2
    member = an.in_region(pts, ck3_annulus)
    assert member.tolist() == [True, True, True, False, False, False, False]
    # the grid of verify_annulus's singularity probe, against the dense test
    g = np.linspace(-1.6, 1.6, 81)
    grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    want = (_dense_points_in_polygon(grid, ck3_annulus.s2)
            & ~_dense_points_in_polygon(grid, ck3_annulus.s1))
    assert np.array_equal(an.in_region(grid, ck3_annulus), want)


def _dense_points_in_polygon(pts, poly):
    """Reference even-odd test: every point against every edge."""
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = poly[:-1, 0], poly[:-1, 1]
    x1, y1 = poly[1:, 0], poly[1:, 1]
    cond = (y0[None, :] <= y[:, None]) != (y1[None, :] <= y[:, None])
    # a subnormal edge height can overflow the quotient; its inf compares right
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_int = x0 + (y[:, None] - y0) * (x1 - x0) / np.where(y1 == y0, 1.0, y1 - y0)
    hits = cond & (x[:, None] < x_int)
    return (hits.sum(axis=1) % 2).astype(bool)


# one-decimal coordinates make horizontal edges and point/vertex height ties common
_coord = st.one_of(st.integers(-20, 20).map(lambda k: k / 10.0),
                   st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def _polygons(draw):
    if draw(st.booleans()):
        # star-shaped about the origin: vertices in angle order
        radii = np.array(draw(st.lists(st.integers(1, 20), min_size=3, max_size=24))) / 10.0
        t = np.linspace(0.0, 2.0 * np.pi, len(radii), endpoint=False)
        verts = np.round(np.stack([radii * np.cos(t), radii * np.sin(t)], axis=1), 1)
    else:
        # vertices in arbitrary order: usually self-intersecting
        verts = np.array(draw(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=24)))
    return np.vstack([verts, verts[:1]])


@settings(max_examples=200, deadline=None)
@given(_polygons(), st.lists(st.tuples(_coord, _coord), max_size=60))
@example(np.array([[0.0, 0.0], [0.0, 0.3], [1.4, 2.22507386e-309], [0.0, 0.0]]), [])
def test_points_in_polygon_matches_dense_test(poly, pts):
    pts = np.array(pts, dtype=float).reshape(-1, 2)
    for query in (pts, np.vstack([pts, poly, [[np.nan, 0.0], [0.0, np.nan]]])):
        assert np.array_equal(oracles.points_in_polygon(query, poly),
                              _dense_points_in_polygon(query, poly))
    assert oracles.points_in_polygon(np.empty((0, 2)), poly).shape == (0,)


def test_bad_xi_arguments(ck, ck_cycles):
    with pytest.raises(ValueError):
        an.build_trapping_annulus(ck[3], ck_cycles[3], 0.1, 0.1, 0.3)


def test_annulus_csv(tmp_path, ck3_annulus):
    path = tmp_path / "annulus.csv"
    ck3_annulus.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "curve,index,x,y"
    assert sum(1 for ln in lines if ln.startswith("S1,")) == len(ck3_annulus.s1)
    assert sum(1 for ln in lines if ln.startswith("S2,")) == len(ck3_annulus.s2)
