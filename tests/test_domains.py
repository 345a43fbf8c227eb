"""Region kinds: construction, membership, boundaries, containment tests."""

import bisect
import cmath
import dataclasses
import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardstar import cardioid, domains, functions, radii, verify
from cardstar.domains import (
    Disk,
    GeneratorImageRegion,
    make_domain,
)
from cardstar.verify import INCLUSION_FAMILIES

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
        assert d.contains_all(1.0 + 0j) or d.margin(1.0 + 0j) > 0


def test_make_domain_rejects_bad_parameters():
    # each message is pinned as recorded before the inequality regions became
    # one table-driven class
    cases = [
        ("disk", (0.0, 0.0, -1.0), "disk region radius must be positive"),
        ("bounded_re", (0.9,), "bounded-real-part parameter must exceed 1"),
        ("min_re", (1.2,), "order parameter must lie in [0, 1)"),
        ("sector", (0.0,), "sector order must lie in (0, 1]"),
        ("conic", (-0.1,), "conic parameter must be nonnegative"),
        ("exponential", (1.0,), "exponential-region parameter must lie in [0, 1)"),
        ("lemniscate", (-0.2,), "lemniscate-region parameter must lie in [0, 1)"),
        ("cassinian", (1.5,), "Cassinian parameter must lie in (0, 1]"),
        ("booth", (1.0,), "Booth-curve parameter must lie in [0, 1)"),
        ("janowski_disk", (0.5, 1.0, 0.5), "need -1 <= B < A <= 1"),        # needs B < A
        ("janowski_disk", (1.0, -1.0, 1.0), "degenerate disk: B^2 r^2 = 1"),  # r = 1, |B| = 1
        ("nephroid", (1.0,), "kind 'nephroid' takes no parameters"),
        ("cardioid", (1e-9,), "kind 'cardioid' takes no parameters"),
        ("sigmoid", (1.0,), "kind 'sigmoid' takes no parameters"),
        ("nonexistent", (), "unknown domain kind 'nonexistent'; known: disk, cardioid, "
         "bounded_re, min_re, sector, conic, exponential, lemniscate, cassinian, sigmoid, cosh, "
         "janowski_disk, rational, rational_lemniscate, cardioid_wide, limacon, lune, sine, "
         "nephroid, booth"),
    ]
    for kind, params, message in cases:
        with pytest.raises(ValueError) as exc:
            make_domain(kind, *params)
        assert str(exc.value) == message


def test_region_rejects_non_finite_parameters():
    # inf passes some range checks (conic, bounded_re) and NaN fails each one
    # with the range's message, so finiteness is checked first and named
    kinds = {kind: row.params for kind, row in domains._REGIONS.items() if row.params}
    assert len(kinds) == 8
    for kind, (name,) in kinds.items():
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError) as exc:
                make_domain(kind, bad)
            assert str(exc.value) == f"parameter {name} of region kind {kind!r} must be finite"


def test_parameter_declaration_gives_membership_and_message():
    # the interval is parsed into the least and greatest valid floats, and
    # the message quotes it, or names the one finite end of an unbounded range
    cases = [
        ("[0, 1)", 0.0, math.nextafter(1.0, 0.0), "must lie in [0, 1)"),
        ("(0, 1]", math.ulp(0.0), 1.0, "must lie in (0, 1]"),
        ("(1/2, inf)", math.nextafter(0.5, 1.0), sys.float_info.max, "must exceed 1/2"),
        ("[0, inf)", 0.0, sys.float_info.max, "must be nonnegative"),
        ("[1/4, inf)", 0.25, sys.float_info.max, "must be at least 1/4"),
    ]
    for values, first, last, must in cases:
        param = domains.Parameter("x", "the x", values)
        assert (param.first, param.last, param.error) == (first, last, f"the x {must}")
        for p in (first, last):
            param.check(p)
        for p in (math.nextafter(first, -math.inf), math.nextafter(last, math.inf), math.nan):
            with pytest.raises(ValueError):
                param.check(p)
    with pytest.raises(ValueError, match="^the x must be finite$"):
        param.check(math.inf)
    with pytest.raises(ValueError, match="^parameter x of tag 't' must be finite$"):
        param.check(math.nan, "tag 't'")


def test_make_domain_counts_parameters():
    # a missing or surplus parameter is a ValueError naming the parameters,
    # not a TypeError from the constructor
    cases = [
        ("disk", (), "cx, cy, r"),
        ("min_re", (), "alpha"),
        ("booth", (), "alpha"),
        ("sector", (0.5, 0.5), "beta"),
        ("janowski_disk", (0.5,), "A, B, r"),
    ]
    for kind, params, names in cases:
        with pytest.raises(ValueError) as exc:
            make_domain(kind, *params)
        assert str(exc.value) == f"kind {kind!r} takes parameters ({names})"


def test_conic_ellipse_parameters():
    lam, a, b = domains.conic_ellipse(5.0 / 3.0)
    assert lam == pytest.approx(25.0 / 16.0)
    assert a == pytest.approx(15.0 / 16.0)
    assert b == pytest.approx(0.75)


def test_sector_is_half_plane_at_order_one():
    d = make_domain("sector", 1.0)
    assert d.contains_all(0.2 - 5.0j)
    assert not d.contains_all(-0.1 + 0.5j)


def test_membership_examples():
    assert make_domain("exponential", 0.0).contains_all(1.0 + 0j)
    beta0 = radii.beta_zero()
    edge = 0.25 * (1.0 + 1j * math.tan(beta0 * math.pi / 2.0))
    assert not make_domain("sector", beta0).contains_all(edge)
    assert not make_domain("bounded_re", 2.5).contains_all(2.5 + 0j)


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


# describe() and the sha256 of margin(w) on a 41 x 41 grid of the rectangle
# [-1, 3] x [-2, 2] and of boundary(t) at 256 equally spaced t, as float64
# and complex128 bytes, recorded before the inequality regions became one
# table-driven class and every boundary came from its generator.  A
# different libm (log, angle, sqrt, exp) could move a last bit.
_REGION_PINS = {
    ("cardioid", ()): (
        "cardioid",
        "9b099263a68f3be96b8495730ae6dbbfd6e7233e746672f8cef270953094c3bd",
        "6c6c0f1b5cd8c54341adb4cdb6c4c05f69b5100d80b0c3a5973059d978f9889d"),
    ("disk", (1.0, 0.0, 0.4)): (
        "disk(center=1+0j, radius=0.4)",
        "cedfcc95895176969412c800538a58a592a55c758849d02dc27a42c78021a0e8",
        "4014f660c685d99d67f2936ae1b901ea2ce5dec7a4e999c5236fe07a07eaffbb"),
    ("bounded_re", (2.5,)): (
        "half-plane Re w < 2.5",
        "58cbf153e50b5132968a2eb2e535d90c2923c87c61bf4bc2bb5475c8508541b1",
        "b6e2c12b352663fa35ebd32a5dd5afc7c77d327ab5700ce54844694a89b8531b"),
    ("min_re", (0.25,)): (
        "half-plane Re w > 0.25",
        "78ab03ae4f792a287b41eae1dd9e8f8c77c2c710e8bc8b777bbeab388bfcbd83",
        "113f9158d45471f617653328eaec9bfda66c2ab3f2f98ba7f371206ce1ed4623"),
    ("sector", (0.75,)): (
        "sector |arg w| < 0.75 pi/2",
        "391a521f21201342bb6c74464425889cc51b68790d195cf742b4d78f2301b556",
        "28104d05e2b4a40a39a141585c1308b4c1242db504ab22bfa96e5213fb4e73aa"),
    ("conic", (5.0 / 3.0,)): (
        "conic region Re w > 1.66667 |w-1|",
        "d5c08f109f6882a90b31fd526f2bd23754f02c5d720756be86bdf6f73631403d",
        "aa4252064b1557553641ba10d9f4e0a46d07684cb992a1ad3bb29904d6c2c3e2"),
    ("exponential", (0.2,)): (
        "exponential region (alpha=0.2)",
        "bb93ffb92c4d3a224b49e01e037237c44526be7318803125b272cd1ad4db1051",
        "6c72ab298cdb5523859106a8e38dd0a596bab40136e4354e8b33cd124374ed6e"),
    ("lemniscate", (0.3,)): (
        "lemniscate region (alpha=0.3)",
        "2f0613426ef646d623262adec8e45a512995987ba6fe5b66a94c80ffde2248c7",
        "8eff724ffe46695b676854bd5e19cc50993cc83ef88b2fc4f3fbaee361b7e433"),
    ("cassinian", (0.75,)): (
        "Cassinian right loop (c=0.75)",
        "acbead573702468e132ad0e76fc06c11ab333b2576049b99e5c78bae69902816",
        "7bff7c226545d21c3fefc2ab81025ae1d61b1eca82eb2b486cc1243b216c2445"),
    ("sigmoid", ()): (
        "sigmoid",
        "5342ece75f53b7092e99b7578bc064ecb1d1b28d157db936c6122402968f613c",
        "2ed47a16975a2e590db4e2f4b53abe2e7222a59951013760d4b44ffc76b4f3f1"),
    ("cosh", ()): (
        "cosh",
        "7b46caa956cdf6ac4a77cf6b67b8a53bfcc7186b55c5a056a8bd360a94ea2ce9",
        "4979a81b37c626974b0e3beea24d9baf7d2281c6acdee8029c5e1d9aec24d133"),
    ("rational", ()): (
        "image of generator rational",
        "37e500f6f1812278d0a3f5038862defc43706450a774d6d25b8eb558513f9a01",
        "cc565eec854e0d4d657de5e794c5982e3d6432dee445143468aa5f74e1a64984"),
    ("rational_lemniscate", ()): (
        "image of generator rational_lemniscate",
        "96c4e19a593e22f04931fe7be3b6f544c12c4295b7eda2c13856cac5a277dd26",
        "d8d245ae64f2b791467536ee95dfd6b35a5530e0002578fc49365cf22e2fee1a"),
    ("cardioid_wide", ()): (
        "image of generator cardioid_wide",
        "5e777b3976ad46ca772259479e2cc188ec6c4ccc0ac659d87705d4ae08e5b70b",
        "05863ee5cce14cd08ed5f92a1127ad010192fdc4ef0ca7d827546534debb911c"),
    ("limacon", ()): (
        "image of generator limacon",
        "7c907bd22fb3c74c4f9ff4885ca5270796ca14101b4eb4d74070e40e9728c43c",
        "f6ec0a1b077650994252e160ae6c4755a763bc8151af85d892c6c87113463ae0"),
    ("lune", ()): (
        "image of generator lune",
        "f62b066ddc7cc4b66b18b872cdaed1c3c31e6bb5818795f97793db38f9265e5d",
        "c86c400a88ea34377d143452d09056e467be8e283fcaaea0fb81332cd1ef3e24"),
    ("sine", ()): (
        "image of generator sine",
        "fde79842358074bdff329de2c9de5d72d18552458f1d699aab349abce874ff96",
        "762fb4fdc11388aba64801a7c679c519ef8e6c9ed7c05211f96316e3df55a765"),
    ("nephroid", ()): (
        "image of generator nephroid",
        "fe452ddff9709b7edfb7c2289d5de661e46bdb380e4a96962d82bc61b5a9ce7b",
        "e28a95a22e13d2790691f342437aee9b6662ee3e21f83fde1329624c2c791d1c"),
    ("booth", (0.4,)): (
        "image of generator booth(alpha=0.4)",
        "bacdd68d6a1d00150a692575cbede59be9832f5eef30b933c0af9a1fa8ff03b5",
        "43e281d2e7ee9052228efdd24a83e0f2bb6ef79ac1d5a0f6bbb7565de08c017a"),
    ("sector", (1.0,)): (
        "sector |arg w| < 1 pi/2",
        "7f3568d37bcaa85e91257fc3d50dc17467f84c168008a6bd51cb52db5b0728dc",
        "25059c256c2abc30eced2f0f824fdbe62a5b3ab77158d102cca168ba09a73cf5"),
    ("conic", (1.2,)): (
        "conic region Re w > 1.2 |w-1|",
        "292cc28c0103b067072df0f523b02bb71af7b5bff5c82aa0e10173b241b4f01c",
        "16a25f32195e6c5192a235d4d9dc7131619593bff1d74cff91430cf223c01b2b"),
}


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_region_layer_pinned():
    assert list(_REGION_PINS)[:len(ALL_KINDS)] == ALL_KINDS
    x, y = np.meshgrid(np.linspace(-1.0, 3.0, 41), np.linspace(-2.0, 2.0, 41))
    grid = (x + 1j * y).ravel()
    t = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    for (kind, params), (text, margin_digest, boundary_digest) in _REGION_PINS.items():
        d = make_domain(kind, *params)
        assert d.describe() == text, kind
        assert _digest(np.asarray(d.margin(grid), dtype=float)) == margin_digest, kind
        assert _digest(np.asarray(d.boundary(t), dtype=complex)) == boundary_digest, kind


# where the parameter ranges of the inequality kinds are clipped.  A boundary
# point rounded to double precision is off by about eps |w|, which the margin
# multiplies by its slope: k for the conic, 1/(1 - alpha) for the exponential
# and lemniscate regions.  The unbounded ranges stop at 1e6 and alpha at
# 1 - 1e-6, short of where that product passes 1e-9 whatever the margin formula.
_CLIPPED_AT = {"bounded_re": 1e6, "conic": 1e6, "exponential": 1.0 - 1e-6,
               "lemniscate": 1.0 - 1e-6}


def _parameter_range(kind):
    # each parameter is drawn from its kind's declaration, up to the clip
    param = domains._REGIONS[kind].param
    if param is None:
        return st.just(())
    return st.tuples(st.floats(param.first, min(param.last, _CLIPPED_AT.get(kind, math.inf))))


_PARAMETER_RANGES = {kind: _parameter_range(kind) for kind, row in domains._REGIONS.items()
                     if row.margin is not None}


def test_parameter_ranges_cover_every_inequality_kind():
    # every inequality kind is drawn, and each clip cuts a declared range short
    assert list(_PARAMETER_RANGES) == ["cardioid", "bounded_re", "min_re", "sector", "conic",
                                       "exponential", "lemniscate", "cassinian", "sigmoid", "cosh"]
    for kind, end in _CLIPPED_AT.items():
        assert domains._REGIONS[kind].param.first < end < domains._REGIONS[kind].param.last, kind


def test_region_rows_list_their_generator_parameters():
    # a region calls its generator as psi(z, *params), in the row's order
    for kind, row in domains._REGIONS.items():
        if kind in functions._GENERATORS:
            assert row.params == functions._parameters(kind), kind


@pytest.mark.parametrize("kind", _PARAMETER_RANGES)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_inequality_regions_across_parameter_ranges(kind, data):
    # boundary points are on the boundary to within 1e-9 relative to their
    # size (the conic ellipse grows like 1/(k - 1)), and 1 is inside
    params = data.draw(_PARAMETER_RANGES[kind])
    d = make_domain(kind, *params)
    assert d.margin(1.0 + 0j) > 0
    if kind == "conic" and params[0] <= 1.0:
        return  # an unbounded conic has no boundary parametrization
    w = np.asarray(d.boundary(np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)))
    assert (np.abs(d.margin(w)) < 1e-9 * np.maximum(np.abs(w), 1.0)).all(), params


def test_boundary_point_examples():
    assert complex(make_domain("cardioid").boundary(math.pi)) == pytest.approx(0.5)
    assert complex(make_domain("cardioid_wide").boundary(0.0)) == pytest.approx(3.0)
    assert complex(Disk(1.0, 0.5).boundary(0.0)) == pytest.approx(1.5)


# the near tolerance of the cardioid and of the inequality regions
_NEAR = 1e-7
_GRID = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)


def _family_holds(family: str, p: float) -> bool:
    return INCLUSION_FAMILIES[family].margin(p, 2048) > -_NEAR


def _boundary_inside(inner, outer, tol: float = _NEAR) -> bool:
    return outer.contains_all(inner.boundary(_GRID), tol)


def test_unit_centered_disk_sharp_at_inscribed_radius():
    # the disks |w - 1| < 1 - a, so radius 0.49 at a = 0.51; r_1 = 1/2
    assert cardioid.inner_outer_radii(1.0)[0] == 0.5
    assert _family_holds("unit_centered_disk", 0.51)
    assert not _family_holds("unit_centered_disk", 0.49)


def test_inclusion_thresholds_by_margin_sign():
    assert _family_holds("conic", 5.0 / 3.0)
    assert not _family_holds("conic", 1.6)
    a0 = radii.alpha_zero()
    assert _family_holds("exponential", a0 + 1e-6)
    assert not _family_holds("exponential", 0.19)
    assert _family_holds("lemniscate", 0.5)
    assert not _family_holds("lemniscate", 0.49)
    assert _family_holds("cassinian", 0.75)
    assert not _family_holds("cassinian", 0.76)
    m0 = cardioid.self_centered_fixed_point()
    assert _family_holds("self_centered_disk", m0)
    assert not _family_holds("self_centered_disk", m0 - 0.01)
    card = make_domain("cardioid")
    for kind in ("sigmoid", "cosh", "rational"):
        assert _boundary_inside(make_domain(kind), card)


def test_monotone_families_shrink():
    for lo, hi in ((0.25, 0.21), (0.4, 0.3), (0.6, 0.45), (0.8, 0.7), (0.95, 0.9)):
        assert _boundary_inside(make_domain("exponential", lo),
                                make_domain("exponential", hi), tol=1e-9)
        assert _boundary_inside(make_domain("lemniscate", lo),
                                make_domain("lemniscate", hi), tol=1e-9)
    for hi_k, lo_k in ((2.0, 5.0 / 3.0), (3.0, 2.0), (5.0, 3.0), (8.0, 5.0), (12.0, 8.0)):
        assert _boundary_inside(make_domain("conic", hi_k), make_domain("conic", lo_k),
                                tol=1e-9)


def test_corollary_disk_thresholds_at_limit_radius():
    card = make_domain("cardioid")
    assert _boundary_inside(domains.janowski_disk(0.5, 0.0, 1.0), card)       # radius 1/2
    assert not _boundary_inside(domains.janowski_disk(0.52, 0.0, 1.0), card)
    a = 1.0 / 3.0
    assert _boundary_inside(domains.janowski_disk(a, -a, 1.0), card)
    a = 1.0 / 3.0 + 0.01
    assert not _boundary_inside(domains.janowski_disk(a, -a, 1.0), card)


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


# every generator-image kind, the Booth region at three parameters
_IMAGE_CASES = [(kind, ()) for kind in ("nephroid", "limacon", "lune", "sine", "rational",
                                        "rational_lemniscate", "cardioid_wide")]
_IMAGE_CASES += [("booth", (alpha,)) for alpha in (0.0, 0.4, 0.7)]
# the corners of the lune and the shifted lemniscate and the cusps of the
# nephroid, wide cardioid and rational regions
_CORNERS = {"lune": (1j, -1j), "rational_lemniscate": (math.sqrt(2.0),),
            "nephroid": (5.0 / 3.0, 1.0 / 3.0), "cardioid_wide": (1.0 / 3.0,),
            "rational": (2.0 * math.sqrt(2.0) - 2.0,)}


def test_generator_region_margin_matches_dense_boundary():
    # sign against an even-odd count and magnitude against the polygon
    # distance, with extra points around the corners and cusps
    rng = np.random.default_rng(11)
    for kind, params in _IMAGE_CASES:
        d = make_domain(kind, *params)
        ref = _DenseBoundary(d)
        ring = np.exp(2j * math.pi * rng.uniform(size=(2, 150)))
        pts = [np.asarray(d.boundary(rng.uniform(0.0, 2.0 * math.pi, 150)))
               + 10.0 ** rng.uniform(-6.0, -3.0, 150) * ring[0],
               rng.uniform(-1.0, 3.0, 150) + 1j * rng.uniform(-2.0, 2.0, 150)]
        for c in _CORNERS.get(kind, ()):
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
    assert d.contains_all(1.0 + 0j)
    assert not d.contains_all(3.0 + 0j)
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


def _reference_distance(d, ws, z, size):
    """The Gauss-Newton distance as first written: the derivative, from two
    generator calls, and three selections on every iteration, whether or not
    a point moved.  The kernel must reproduce its iterates bit for bit."""
    def curve(t):
        return d.generator(np.exp(1j * t))

    def gauss_newton_step(t, g):
        tp, tm = t + 1e-11, t - 1e-11
        dg = (curve(tp) - curve(tm)) / (tp - tm)
        return np.nan_to_num(np.real(np.conj(g - ws) * dg) / np.abs(dg) ** 2)

    nearest = np.take_along_axis(z, np.argmin(size, axis=0)[None], axis=0)[0]
    t = np.nan_to_num(np.angle(nearest))
    with np.errstate(all="ignore"):
        g = curve(t)
        best = np.abs(g - ws)
        step = gauss_newton_step(t, g)
        for _ in range(d._REFINE_STEPS):
            t_try = t - step
            g_try = curve(t_try)
            gap = np.abs(g_try - ws)
            closer = gap < best
            t = np.where(closer, t_try, t)
            g = np.where(closer, g_try, g)
            best = np.where(closer, gap, best)
            step = np.where(closer, gauss_newton_step(t, g), 0.5 * step)
    for c in d._singular_values:
        best = np.minimum(best, np.abs(ws - c))
    return best


def _kernel_points(d, kind: str, rng) -> np.ndarray:
    """Points 1e-10 to 1e-3 from the boundary on either side, far points,
    and points 1e-9 to 1e-3 from each corner, cusp and singular value."""
    def ring(k):
        return np.exp(2j * math.pi * rng.uniform(size=k))

    pts = [np.asarray(d.boundary(rng.uniform(0.0, 2.0 * math.pi, 200)))
           + 10.0 ** rng.uniform(-10.0, -3.0, 200) * ring(200),
           rng.uniform(-1.0, 3.0, 100) + 1j * rng.uniform(-2.0, 2.0, 100)]
    for c in (*_CORNERS.get(kind, ()), *d._singular_values):
        pts.append(c + 10.0 ** rng.uniform(-9.0, -3.0, 20) * ring(20))
    return np.concatenate(pts)


@pytest.mark.parametrize("kind, params", _IMAGE_CASES)
def test_distance_kernel_matches_reference_loop(kind, params, monkeypatch):
    # margins and containment verdicts are those of the loop as first written
    d = make_domain(kind, *params)
    pts = _kernel_points(d, kind, np.random.default_rng(29))
    margin = np.asarray(d.margin(pts))
    verdicts = [d.contains_all(w, d.near) for w in pts]
    # some points outside are accepted within `near`, by their distance
    assert any(v for v, m in zip(verdicts, margin) if m < 0.0), kind
    monkeypatch.setattr(GeneratorImageRegion, "_distance", _reference_distance)
    assert np.array_equal(np.asarray(d.margin(pts)), margin), kind
    assert [d.contains_all(w, d.near) for w in pts] == verdicts, kind


def test_distance_kernel_evaluates_derivative_only_when_a_point_moves(monkeypatch):
    # a cost guard: on one point on the boundary the kernel calls the
    # generator once to start, once for the first derivative, once per
    # iteration (12) and once more only on an iteration that moves the
    # point; the loop as first written makes 1 + 2 + 12 x 3 = 39 calls
    def generator_calls(d, w: complex, distance) -> int:
        ws = np.array([w])
        z, size = d._roots(ws)
        d._singular_values  # cached before counting
        calls = []
        generator = d.generator
        with monkeypatch.context() as m:
            m.setattr(d, "generator", lambda z: calls.append(1) or generator(z))
            distance(d, ws, z, size)
        return len(calls)

    for kind, params in _IMAGE_CASES:
        d = make_domain(kind, *params)
        w = complex(np.asarray(d.boundary(np.array([0.7])))[0])
        assert generator_calls(d, w, GeneratorImageRegion._distance) <= 18, kind
        assert generator_calls(d, w, _reference_distance) == 39, kind


def test_generator_region_boundary_gap_refinement():
    d = make_domain("nephroid")
    # 5/3 and 1/3 are the cusps of the boundary curve
    assert d.boundary_gap(5.0 / 3.0 + 0j) < 1e-9
    assert d.boundary_gap(1.0 / 3.0 + 0j) < 1e-9
    assert d.boundary_gap(1.0 + 0j) > 0.5


def test_cassinian_and_lemniscate_right_lobe_selector():
    c = make_domain("cassinian", 1.0)
    assert c.contains_all(1.0 + 0j)
    assert not c.contains_all(-1.0 + 0j)     # left loop excluded
    g = make_domain("lemniscate", 0.0)
    assert g.contains_all(1.0 + 0j)
    assert not g.contains_all(-1.0 + 0j)


def test_degenerate_disk_allowed_as_value():
    # monomial image disks may degenerate to a point at zero coefficient
    d = Disk(1.0, 0.0)
    assert not d.contains_all(1.0 + 0j)
    with pytest.raises(ValueError):
        Disk(1.0, -0.1)


def test_disks_reject_nonfinite_parameters():
    # a NaN radius would contain nothing and an infinite one everything
    nan, inf = math.nan, math.inf
    cases = [
        (lambda: make_domain("disk", 1.0, 0.0, nan), "disk region radius must be finite"),
        (lambda: make_domain("disk", 1.0, 0.0, inf), "disk region radius must be finite"),
        (lambda: make_domain("disk", nan, 0.0, 1.0), "disk center must be finite"),
        (lambda: make_domain("disk", 1.0, -inf, 1.0), "disk center must be finite"),
        (lambda: Disk(nan, 1.0), "disk center must be finite"),
        (lambda: Disk(complex(1.0, inf), 1.0), "disk center must be finite"),
        (lambda: Disk(1.0, nan), "disk radius must be finite"),
        (lambda: Disk(1.0, inf), "disk radius must be finite"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_disk_is_frozen():
    # its finiteness checks cannot be bypassed by assignment
    d = Disk(1.0, 0.5)
    for field_name, value in [("radius", math.nan), ("center", complex(math.inf, 0.0))]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, field_name, value)
    assert d == Disk(1.0, 0.5)


def test_boundary_shape():
    t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    pts = np.asarray(make_domain("cardioid").boundary(t))
    assert len(t) == len(pts) == 64


_NONFINITE = (math.inf, -math.inf, complex(0.0, math.inf), complex(0.0, -math.inf),
              complex(math.inf, math.inf), complex(-math.inf, math.inf), math.nan,
              complex(0.0, math.nan), complex(1.0, math.nan), complex(math.nan, 1.0))


# every kind that make_domain builds
_EVERY_KIND = ALL_KINDS + [("janowski_disk", (0.5, -0.5, 0.5))]


def test_every_kind_listed():
    assert {kind for kind, _ in _EVERY_KIND} == set(domains._KINDS)


@pytest.mark.parametrize("d", [make_domain(kind, *params) for kind, params in _EVERY_KIND]
                         + [Disk(1.0 + 0.25j, 0.5), domains.janowski_disk(0.5, -0.5, 0.8)],
                         ids=lambda d: d.describe())
def test_boundary_reads_the_grid_points_bit_for_bit(d):
    # a boundary read from the grid's points e = e^{it} is the one computed
    # from its angles, on the full grid and on its closed upper half
    for n in (256, 512, 4096):
        for half in (False, True):
            t, e = radii._circle_grid(n, half)
            given = np.asarray(d.boundary(t, e), dtype=complex)
            assert given.tobytes() == np.asarray(d.boundary(t), dtype=complex).tobytes(), (n, half)


def test_every_region_kind_is_a_table_row():
    # besides the two disk kinds, make_domain builds only `_REGIONS` rows, and
    # no region class stands beside the three mechanisms
    assert set(domains._KINDS) - {"disk", "janowski_disk"} == set(domains._REGIONS)
    for kind, params in ALL_KINDS:
        d = make_domain(kind, *params)
        if kind != "disk":
            assert isinstance(d, domains.Region) and d._row is domains._REGIONS[kind], kind
    classes = {name for name, obj in vars(domains).items()
               if isinstance(obj, type) and issubclass(obj, domains.Domain)
               and obj.__module__ == domains.__name__}
    assert classes == {"Domain", "Disk", "Region", "InequalityRegion", "GeneratorImageRegion"}


@pytest.mark.parametrize("kind, params", _EVERY_KIND)
def test_nonfinite_points_are_outside(kind, params):
    # a non-finite point is outside, and margin and worst_point score it
    # -inf without the region's formula; under the suite's warning filter
    # this also checks that no region warns
    d = make_domain(kind, *params)
    for w in _NONFINITE:
        assert not d.contains_all([w]), (kind, w)
        assert not d.contains_all([1.0, w], 1e-6), (kind, w)
        assert d.excess([1.0, w], 1e-6) == -math.inf, (kind, w)
        assert d.margin(w) == -math.inf, (kind, w)
        assert d.margin([1.0, w])[1] == -math.inf, (kind, w)
        z, m = d.worst_point([1.0, w])
        assert m == -math.inf and (z == w or cmath.isnan(z)), (kind, w)
    assert d.contains_all([1.0, 1.0 + 1e-3j])
    assert d.margin([1.0, 1.0 + 1e-3j]).min() > 0


@pytest.mark.parametrize("kind, params", ALL_KINDS)
def test_contains_all_input_contract(kind, params):
    # the same for the containment test as a number, the excess
    d = make_domain(kind, *params)
    for test in (d.contains_all, d.excess):
        for empty in ([], np.zeros(0, dtype=complex)):
            with pytest.raises(ValueError, match="need at least one point"):
                test(empty)
        for tol in (-1e-9, math.nan):
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                test([1.0], tol)


# kinds whose region carries an inscribed disk, at the parameters of
# ALL_KINDS and at the ends of the Booth range
_WITH_DISK = [(kind, params) for kind, params in ALL_KINDS
              if kind in ("cardioid", "sigmoid", "cosh", "rational", "cardioid_wide", "limacon",
                          "lune", "sine", "nephroid", "booth")]
_WITH_DISK += [("booth", (0.0,)), ("booth", (0.999,))]


def test_only_certified_kinds_carry_a_disk():
    for kind, params in ALL_KINDS:
        d = make_domain(kind, *params)
        assert (d.inscribed is not None) == ((kind, params) in _WITH_DISK), kind


def test_cardioid_disk_is_the_lemma_disk():
    r_in, _ = cardioid.inner_outer_radii(1.5)
    assert r_in == 1.0
    assert make_domain("cardioid").inscribed == (1.5, r_in - domains._INSCRIBED_GUARD)


@pytest.mark.parametrize("kind, params", _WITH_DISK)
def test_inscribed_disk_lies_inside(kind, params):
    # the exact margin is positive on the disk's circle; the circle 1% wider
    # leaves the region, so the disk is close to the largest about its center
    d = make_domain(kind, *params)
    center, radius = d.inscribed
    e = np.exp(2j * math.pi * np.arange(1 << 16) / (1 << 16))
    assert np.asarray(d.margin(center + radius * e)).min() > 0.0, kind
    assert np.asarray(d.margin(center + 1.01 * radius * e)).min() < 0.0, kind


def _cloud(d, shape: str, rng) -> np.ndarray:
    """32 points: some strictly inside the region's disk (or, for a region
    without one, the disk |w - 1| < 0.3), the rest of the given shape; a
    "band" lies in the disk's outer tenth, where the excess keeps exact
    margins."""
    center, radius = d.inscribed or (1.0, 0.3)
    k = int(rng.integers(0, 17))
    ring = np.exp(2j * math.pi * rng.uniform(size=32))
    inside = center + radius * np.sqrt(rng.uniform(size=k)) * ring[:k]
    m = 32 - k
    if shape == "inside":
        rest = center + radius * np.sqrt(rng.uniform(size=m)) * ring[k:]
    elif shape == "edge":
        rest = center + radius * (1.0 + rng.uniform(-1e-3, 1e-3, m)) * ring[k:]
    elif shape == "band":
        rest = center + radius * rng.uniform(0.9, 1.0, m) * ring[k:]
    elif shape == "boundary":
        w = np.asarray(d.boundary(rng.uniform(0.0, 2.0 * math.pi, m)))
        rest = w + 10.0 ** rng.uniform(-10.0, -5.0, m) * ring[k:]
    elif shape == "inf":
        rest = center + radius * np.sqrt(rng.uniform(size=m)) * ring[k:]
        rest[rng.integers(0, m)] = _NONFINITE[int(rng.integers(0, len(_NONFINITE)))]
    else:
        rest = center + radius * np.sqrt(rng.uniform(size=m)) * ring[k:]
        rest[rng.integers(0, m)] = complex(math.nan, rng.choice([0.0, math.nan]))
    return np.concatenate([inside, rest])


@pytest.mark.parametrize("kind, params", ALL_KINDS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(tol=st.sampled_from([0.0, 1e-7, 1e-6]),
       shape=st.sampled_from(["inside", "band", "edge", "boundary", "nan", "inf"]),
       seed=st.integers(0, 2**32 - 1))
def test_fast_containment_matches_exact(kind, params, tol, shape, seed):
    # contains_all is the sign of the excess, and that sign is the exact
    # test's on every point; tol runs over 0 and each region's near
    d = make_domain(kind, *params)
    ws = _cloud(d, shape, np.random.default_rng(seed))
    exact = bool(np.min(d.margin(ws)) > -tol)
    assert d.contains_all(ws, tol) == (d.excess(ws, tol) > 0) == exact, (shape, tol)


# every kind of ALL_KINDS, a two-parameter disk and an off-axis disk
_KINDS_AND_DISKS = ALL_KINDS + [("janowski_disk", (0.5, -0.5, 0.8)), ("disk", (1.0, 0.5, 1.0))]


@pytest.mark.parametrize("touch", [0.5, 2.5])
def test_cardioid_excess_is_continuous_across_its_disk_touches(touch):
    # the lemma disk |w - 3/2| < 1 touches the cardioid at the cusp 1/2 and
    # the tip 5/2; a point crossing its edge there keeps its exact margin on
    # both sides, beside points deep in the disk and one outside it with a
    # larger margin, so the excess does not jump
    d = make_domain("cardioid")
    center, radius = d.inscribed
    deep = center + 0.5 * radius * np.exp(2j * math.pi * np.arange(16) / 16)
    others = np.append(deep, 0.8 + 0.8j)
    assert abs(others[-1] - center) > radius and d.margin(others[-1]) > 0.25
    inward = np.sign(center - touch)
    for s in (1e-3, 1e-6, 2e-9, 1e-9, 5e-10, 0.0):
        w = touch + inward * s
        assert d.excess(np.append(others, w), d.near) == d.margin(w) + d.near, s


@pytest.mark.parametrize("kind, params", _KINDS_AND_DISKS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(shape=st.sampled_from(["inside", "edge", "boundary", "nan"]),
       seed=st.integers(0, 2**32 - 1))
def test_containment_at_zero_implies_containment_at_near(kind, params, shape, seed):
    # the radius search takes a pass at tolerance 0 for a pass at the
    # region's near tolerance
    d = make_domain(kind, *params)
    ws = _cloud(d, shape, np.random.default_rng(seed))
    assert d.contains_all(ws, d.near) or not d.contains_all(ws, 0.0), shape


@pytest.mark.parametrize("kind, params", _KINDS_AND_DISKS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(shapes=st.lists(st.sampled_from(["inside", "edge", "boundary", "nan"]),
                       min_size=1, max_size=9),
       seed=st.integers(0, 2**32 - 1))
def test_first_failure_matches_row_by_row_containment(kind, params, shapes, seed):
    # the guided search and the scan that replays its verdicts stop at the
    # first row that contains_all rejects at near, the rows put in monotone
    # order, those it accepts first: scan index k reads row k, the last row
    # from there on, and a radius between scan indices k - 1 and k reads the
    # row of index k
    d = make_domain(kind, *params)
    rng = np.random.default_rng(seed)
    rows = [_cloud(d, shape, rng) for shape in shapes]
    rows.sort(key=lambda row: not d.contains_all(row, d.near))
    scan = verify._RADIUS_SCAN

    def image(r, e):
        return rows[min(bisect.bisect_left(scan, r), len(rows) - 1)]

    at_near = [d.contains_all(row, d.near) for row in rows]
    reference = at_near.index(False) if False in at_near else len(scan)
    probes = verify._Probes(image, d, None, d.near, math.inf)
    assert verify._first_scan_failure(probes) == reference, shapes


# every make_domain kind, each at parameters that put it on the real axis
_EVERY_KIND = ALL_KINDS + [("janowski_disk", (0.5, -0.5, 0.8))]


def test_every_kind_is_symmetric_but_an_off_axis_disk():
    assert {kind for kind, _ in _EVERY_KIND} == set(domains._KINDS)
    assert all(make_domain(kind, *params).symmetric for kind, params in _EVERY_KIND)
    off = make_domain("disk", 1.0, 0.5, 1.0)
    assert not off.symmetric
    assert off.margin(1.0 + 0.5j) != off.margin(1.0 - 0.5j)
    assert not Disk(2.0 + 1e-300j, 1.0).symmetric


@pytest.mark.parametrize("kind, params", _EVERY_KIND)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(shape=st.sampled_from(["inside", "edge", "boundary"]),
       seed=st.integers(0, 2**32 - 1))
def test_symmetric_regions_have_mirror_margins(kind, params, shape, seed):
    # a symmetric region gives a point and its mirror image the same margin
    # and the same verdict, near its boundary and across a box around it
    d = make_domain(kind, *params)
    rng = np.random.default_rng(seed)
    box = rng.uniform(-1.0, 3.0, 32) + 1j * rng.uniform(-2.0, 2.0, 32)
    ws = np.concatenate([_cloud(d, shape, rng), box])
    assert np.array_equal(d.margin(np.conj(ws)), d.margin(ws)), shape
    near = ws[:32]
    assert ([d.contains_all(w, 1e-7) for w in np.conj(near)]
            == [d.contains_all(w, 1e-7) for w in near]), shape
