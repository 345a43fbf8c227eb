"""Region kinds: construction, membership, boundaries, containment tests."""

import math

import numpy as np
import pytest

from cardstar import domains, radii
from cardstar.domains import (
    CardioidDomain,
    Disk,
    GeneratorImageRegion,
    disk_in_domain,
    domain_in_domain,
    make_domain,
)

ALL_KINDS = [
    ("cardioid", ()),
    ("disk", (1.0, 0.0, 0.4)),
    ("bounded_re", (2.5,)),
    ("min_re", (0.25,)),
    ("sector", (0.75,)),
    ("conic", (5.0 / 3.0,)),
    ("exponential", (0.2,)),
    ("lemniscate", (0.3,)),
    ("cassinian", (0.75,)),
    ("sigmoid", ()),
    ("cosh", ()),
    ("rational", ()),
    ("rational_lemniscate", ()),
    ("cardioid_wide", ()),
    ("limacon", ()),
    ("lune", ()),
    ("sine", ()),
    ("nephroid", ()),
    ("booth", (0.4,)),
]


def test_make_domain_all_kinds():
    for kind, params in ALL_KINDS:
        d = make_domain(kind, *params)
        assert d.contains(1.0 + 0j) or d.margin(1.0 + 0j) > 0


def test_make_domain_rejects_bad_parameters():
    cases = [
        ("disk", (0.0, 0.0, -1.0)),
        ("bounded_re", (0.9,)),
        ("min_re", (1.2,)),
        ("sector", (0.0,)),
        ("conic", (-0.1,)),
        ("exponential", (1.0,)),
        ("lemniscate", (-0.2,)),
        ("cassinian", (1.5,)),
        ("booth", (1.0,)),
        ("janowski_disk", (0.5, 1.0, 0.5)),      # needs B < A
        ("janowski_disk", (1.0, -1.0, 1.0)),     # degenerate at r = 1, |B| = 1
        ("nephroid", (1.0,)),                    # takes no parameters
        ("cardioid", (1e-9,)),
        ("sigmoid", (1.0,)),
        ("nonexistent", ()),
    ]
    for kind, params in cases:
        with pytest.raises(ValueError):
            make_domain(kind, *params)


def test_conic_ellipse_parameters():
    d = domains.ConicRegion(5.0 / 3.0)
    lam, a, b = d.ellipse_parameters
    assert lam == pytest.approx(25.0 / 16.0)
    assert a == pytest.approx(15.0 / 16.0)
    assert b == pytest.approx(0.75)


def test_sector_is_half_plane_at_order_one():
    d = domains.Sector(1.0)
    assert d.contains(0.2 - 5.0j)
    assert not d.contains(-0.1 + 0.5j)


def test_membership_examples():
    assert domains.ExponentialRegion(0.0).contains(1.0 + 0j)
    beta0 = radii.beta_zero()
    edge = 0.25 * (1.0 + 1j * math.tan(beta0 * math.pi / 2.0))
    assert not domains.Sector(beta0).contains(edge)
    assert not domains.HalfPlaneReBelow(2.5).contains(2.5 + 0j)


def test_boundary_membership_consistency():
    # boundary points are never interior by more than the generator's own
    # rounding, and points nudged toward the common interior point 1 are
    # members
    t = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    for kind, params in ALL_KINDS:
        d = make_domain(kind, *params)
        pts = np.asarray(d.boundary(t))
        slack = 1e-8 if isinstance(d, GeneratorImageRegion) else 0.0
        margins = np.asarray(d.margin(pts))
        assert margins.max() < slack + 1e-9, kind
        direction = 1.0 - pts
        direction = direction / np.abs(direction)
        nudged = pts + 1e-6 * direction
        nudged_margin = np.asarray(d.margin(nudged))
        assert nudged_margin.min() > -slack - 1e-12, kind


def test_boundary_point_examples():
    assert complex(CardioidDomain().boundary(math.pi)) == pytest.approx(0.5)
    assert complex(make_domain("cardioid_wide").boundary(0.0)) == pytest.approx(3.0)
    assert complex(Disk(1.0, 0.5).boundary(0.0)) == pytest.approx(1.5)


def test_disk_in_domain_sharp_at_inscribed_radius():
    card = CardioidDomain()
    assert disk_in_domain(Disk(1.0, 0.49), card)
    assert not disk_in_domain(Disk(1.0, 0.51), card)
    with pytest.raises(ValueError):
        disk_in_domain(Disk(1.0, 0.1), card, n=32)


def test_domain_in_domain_thresholds():
    card = CardioidDomain()
    assert domain_in_domain(domains.ConicRegion(5.0 / 3.0), card)
    assert not domain_in_domain(domains.ConicRegion(1.6), card)
    a0 = radii.alpha_zero()
    assert domain_in_domain(domains.ExponentialRegion(a0 + 1e-6), card)
    assert not domain_in_domain(domains.ExponentialRegion(0.19), card)
    assert domain_in_domain(domains.LemniscateRegion(0.5), card)
    assert not domain_in_domain(domains.LemniscateRegion(0.49), card)
    assert domain_in_domain(domains.CassinianRegion(0.75), card)
    assert not domain_in_domain(domains.CassinianRegion(0.76), card)
    m0 = radii.m_fixed_point()
    assert domain_in_domain(card, Disk(m0, m0))
    assert not domain_in_domain(card, Disk(m0 - 0.01, m0 - 0.01))
    for kind in ("sigmoid", "cosh", "rational"):
        assert domain_in_domain(make_domain(kind), card)
    with pytest.raises(ValueError):
        domain_in_domain(card, card, n=128)


def test_monotone_families_shrink():
    card = CardioidDomain()
    for lo, hi in ((0.25, 0.21), (0.4, 0.3), (0.6, 0.45), (0.8, 0.7), (0.95, 0.9)):
        assert domain_in_domain(domains.ExponentialRegion(lo),
                                domains.ExponentialRegion(hi), tol=1e-9)
        assert domain_in_domain(domains.LemniscateRegion(lo),
                                domains.LemniscateRegion(hi), tol=1e-9)
    for hi_k, lo_k in ((2.0, 5.0 / 3.0), (3.0, 2.0), (5.0, 3.0), (8.0, 5.0), (12.0, 8.0)):
        assert domain_in_domain(domains.ConicRegion(hi_k), domains.ConicRegion(lo_k),
                                tol=1e-9)
    del card


def test_corollary_disk_thresholds_at_limit_radius():
    card = CardioidDomain()
    assert disk_in_domain(domains.janowski_disk(0.5, 0.0, 1.0), card)       # radius 1/2
    assert not disk_in_domain(domains.janowski_disk(0.52, 0.0, 1.0), card)
    a = 1.0 / 3.0
    assert disk_in_domain(domains.janowski_disk(a, -a, 1.0), card)
    a = 1.0 / 3.0 + 0.01
    assert not disk_in_domain(domains.janowski_disk(a, -a, 1.0), card)


class _DenseBoundary:
    """Test-only reference: the closed polygon through psi(e^{it}) at n equally
    spaced t, which include every corner and cusp parameter."""

    def __init__(self, d, n=2**20):
        self.n = n
        self.p = np.asarray(d.boundary(np.arange(n) * (2.0 * math.pi / n)))
        self.order = np.argsort(self.p.real)
        self.xs = self.p.real[self.order]
        self.reach = np.abs(np.roll(self.p, -1) - self.p).max()
        # split the edges into runs of monotone y, so that the one edge of a
        # run crossing a horizontal line is found by binary search
        y = np.append(self.p.imag, self.p.imag[0])
        x = np.append(self.p.real, self.p.real[0])
        up = np.diff(y) >= 0.0
        cuts = np.flatnonzero(up[1:] != up[:-1]) + 1
        self.runs = []
        for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(up)]):
            ys, xr = y[s:e + 1], x[s:e + 1]
            self.runs.append((ys, xr) if up[s] else (ys[::-1], xr[::-1]))

    def inside(self, ws):
        """Even-odd count of the edges crossed by a ray to +infinity."""
        count = np.zeros(len(ws), dtype=int)
        for ys, xr in self.runs:
            k = np.searchsorted(ys, ws.imag, side="right")
            j = np.clip(k, 1, len(ys) - 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_cross = (xr[j - 1]
                           + (xr[j] - xr[j - 1]) * (ws.imag - ys[j - 1]) / (ys[j] - ys[j - 1]))
            count += (k > 0) & (k < len(ys)) & (ws.real < x_cross)
        return count % 2 == 1

    def distance(self, ws, cap=2e-3):
        """Distance to the polygon where it is below cap, inf elsewhere."""
        out = np.full(len(ws), np.inf)
        window = cap + self.reach
        for i, w in enumerate(ws):
            lo, hi = np.searchsorted(self.xs, [w.real - window, w.real + window])
            near = self.order[lo:hi]
            near = near[np.abs(self.p.imag[near] - w.imag) <= window]
            edges = np.concatenate([near, (near - 1) % self.n])
            a, b = self.p[edges], self.p[(edges + 1) % self.n]
            along = np.clip(np.real((w - a) * np.conj(b - a)) / np.abs(b - a) ** 2, 0.0, 1.0)
            dist = np.abs(a + along * (b - a) - w).min() if len(edges) else np.inf
            out[i] = dist if dist < cap else np.inf
        return out


def test_generator_region_margin_matches_dense_boundary():
    # sign against an even-odd count and magnitude against the polygon
    # distance, with extra points around the corners of the lune and the
    # shifted lemniscate and the cusps of the nephroid, wide cardioid and
    # rational regions
    rng = np.random.default_rng(11)
    special = {"lune": (1j, -1j), "rational_lemniscate": (math.sqrt(2.0),),
               "nephroid": (5.0 / 3.0, 1.0 / 3.0), "cardioid_wide": (1.0 / 3.0,),
               "rational": (2.0 * math.sqrt(2.0) - 2.0,)}
    cases = [(kind, ()) for kind in ("nephroid", "limacon", "lune", "sine", "rational",
                                     "rational_lemniscate", "cardioid_wide")]
    cases += [("booth", (alpha,)) for alpha in (0.0, 0.4, 0.7)]
    for kind, params in cases:
        d = make_domain(kind, *params)
        ref = _DenseBoundary(d)
        ring = np.exp(2j * math.pi * rng.uniform(size=(2, 150)))
        pts = [np.asarray(d.boundary(rng.uniform(0.0, 2.0 * math.pi, 150)))
               + 10.0 ** rng.uniform(-6.0, -3.0, 150) * ring[0],
               rng.uniform(-1.0, 3.0, 150) + 1j * rng.uniform(-2.0, 2.0, 150)]
        for c in special.get(kind, ()):
            pts += [c + 1e-4 * ring[1, :50], c + 1e-3 * ring[1, 50:100]]
        pts = np.concatenate(pts)
        margin = np.asarray(d.margin(pts))
        dist = ref.distance(pts)
        clear = ~(dist <= 1e-5)
        assert np.array_equal((margin > 0)[clear], ref.inside(pts[clear])), (kind, params)
        near = dist < 1e-3
        assert near.sum() >= 150, (kind, params)
        assert np.abs(np.abs(margin[near]) - dist[near]).max() < 2e-5, (kind, params)


def test_winding_region_margin_sign():
    d = make_domain("sine")
    assert d.margin(1.0 + 0j) > 0
    assert d.margin(3.0 + 0j) < 0
    assert d.contains(1.0 + 0j)
    assert not d.contains(3.0 + 0j)
    # roots on the wrong branch of the inverse lie in the unit disk here:
    # the lune's -1/w branch and the shifted lemniscate's s = -1
    assert make_domain("lune").margin(-1.0 / (1.2 + 0.1j)) < 0
    assert make_domain("rational_lemniscate").margin(2.0 * math.sqrt(2.0) - 1.0) < 0
    # at alpha = 0 the Booth region is the disk |w - 1| < 1
    assert make_domain("booth", 0.0).margin(1.5 + 0j) == pytest.approx(0.5)
    # the nearest boundary point is the wide cardioid's cusp 1/3, where
    # steps in the boundary angle cannot settle
    w = 0.4 + 0.05j
    assert make_domain("cardioid_wide").margin(w) == pytest.approx(abs(w - 1.0 / 3.0), abs=1e-12)


def test_generator_region_boundary_gap_refinement():
    d = make_domain("nephroid")
    # 5/3 and 1/3 are the cusps of the boundary curve
    assert d.boundary_gap(5.0 / 3.0 + 0j) < 1e-9
    assert d.boundary_gap(1.0 / 3.0 + 0j) < 1e-9
    assert d.boundary_gap(1.0 + 0j) > 0.5


def test_cassinian_and_lemniscate_right_lobe_selector():
    c = domains.CassinianRegion(1.0)
    assert c.contains(1.0 + 0j)
    assert not c.contains(-1.0 + 0j)     # left loop excluded
    g = domains.LemniscateRegion(0.0)
    assert g.contains(1.0 + 0j)
    assert not g.contains(-1.0 + 0j)


def test_degenerate_disk_allowed_as_value():
    # monomial image disks may degenerate to a point at zero coefficient
    d = Disk(1.0, 0.0)
    assert not d.contains(1.0 + 0j)
    with pytest.raises(ValueError):
        Disk(1.0, -0.1)


def test_boundary_shape():
    t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    pts = np.asarray(CardioidDomain().boundary(t))
    assert len(t) == len(pts) == 64
