"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from cardstar import cardioid, cli, domains, functions, radii, verify

SQRT2 = math.sqrt(2.0)


def _verdict(n: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {n} failed: {label}"


# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_constants():
    t0 = time.perf_counter()
    checks = [
        ("alpha0", radii.alpha_zero(), 0.209011, 5e-5),
        ("r4", radii.radius_of_class_in_cardioid("rational_lemniscate").value, 0.7688, 5e-5),
        ("r8", radii.radius_of_class_in_cardioid("sine").value, 0.523598, 5e-5),
        ("r9", radii.radius_of_class_in_cardioid("nephroid").value, 0.557875, 5e-5),
        ("s2(0)", radii.radius_of_cardioid_in_class("lemniscate", 0.0).value,
         -1.0 + math.sqrt(2.0 * SQRT2 - 1.0), 1e-12),
        ("s3", radii.radius_of_cardioid_in_class("rational_lemniscate").value, 0.253734, 5e-5),
        ("s4", radii.radius_of_cardioid_in_class("rational").value, 0.189535, 5e-5),
        ("s5", radii.radius_of_cardioid_in_class("sine").value, 0.637969, 5e-5),
        ("s6", radii.radius_of_cardioid_in_class("cosh").value, 0.444355, 5e-5),
        ("s7", radii.radius_of_cardioid_in_class("nephroid").value, 0.527525, 5e-5),
        ("s8", radii.radius_of_cardioid_in_class("sigmoid").value, 0.387168, 5e-5),
        ("alpha*", radii.alpha_knot(), 0.672505, 5e-5),
        ("M*", radii.m_knot(), 1.1423, 5e-4),
        ("M0", cardioid.self_centered_fixed_point(), 1.309017, 5e-5),
        ("conv", radii.ratio_class_radius(3, "koebe").value, 0.1314829, 5e-5),
    ]
    ratio_decimals = {
        (1, "z"): (0.1231,), (2, "z"): (0.154701,), (3, "z"): (0.23606,),
        (1, "z_over_1plusz"): (0.10102,), (2, "z_over_1plusz"): (0.12310,),
        (3, "z_over_1plusz"): (0.17157,),
        (1, "z_over_1minusz2"): (0.116675,),
        (2, "z_over_1minusz2"): (0.14326, 0.14327),
        (3, "z_over_1minusz2"): (0.202135,),
        (1, "koebe"): (0.0851458,), (2, "koebe"): (0.101021,), (3, "koebe"): (0.13148,),
        (1, "z_plus_half_z2"): (0.10924,), (2, "z_plus_half_z2"): (0.134138,),
        (3, "z_plus_half_z2"): (0.19028,),
    }
    for (i, chi), decimals in ratio_decimals.items():
        value = radii.ratio_class_radius(i, chi).value
        for decimal in decimals:
            checks.append((f"ratio{i}.{chi}", value, decimal, 5e-5))
    assert radii.ratio_class_radius(2, "z") .value == pytest.approx(
        1.0 / (3.0 + 2.0 * math.sqrt(3.0)), abs=1e-15)
    elapsed = time.perf_counter() - t0
    bad = [(name, value, want) for name, value, want, tol in checks
           if abs(value - want) >= tol]
    ok = not bad and elapsed < 1.0
    _verdict(1, ok, f"{len(checks)} closed-form constants vs published decimals "
                    f"({elapsed:.2f}s){'; mismatches: ' + repr(bad) if bad else ''}")


def test_criterion_2_oracle_agreement():
    t0 = time.perf_counter()
    reports = verify.verify_all_constants(4096)
    elapsed = time.perf_counter() - t0
    failures = [r.claim for r in reports if not r.passed]
    ok = not failures and elapsed < 60.0
    _verdict(2, ok, f"{len(reports)} constants reproduced by oracle at 4096 samples "
                    f"within {verify.AGREEMENT_TOL:g} ({elapsed:.1f}s)"
                    f"{'; failures: ' + repr(failures) if failures else ''}")


def test_criterion_3_root_residuals():
    rows = [e for e in radii.constants_registry() if e.method == radii.ROOT_OF_POLYNOMIAL]
    assert len(rows) == 7

    def horner(c, x):
        acc = 0.0
        for ci in reversed(c):
            acc = acc * x + ci
        return acc

    ok = True
    for entry in rows:
        poly, r = entry.defining_polynomial, entry.value
        if abs(horner(poly, r)) >= 1e-12:
            ok = False
        xs = np.arange(1e-3, r - 1e-9, 1e-3)
        vals = np.array([horner(poly, x) for x in xs])
        if not (np.all(vals > 0) or np.all(vals < 0)):
            ok = False
    _verdict(3, ok, f"{len(rows)} defining polynomials: residual < 1e-12 and "
                    "smallest-root certification by sign scan")


def test_criterion_4_disk_lemma_suites():
    t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    e = np.exp(1j * t)
    boundary = np.asarray(cardioid.eval_phi(e))
    worst = 0.0
    for r in np.linspace(0.02, 0.98, 50):
        re = np.asarray(cardioid.eval_phi(r * e)).real
        worst = max(worst, abs(re.min() - cardioid.min_re_on_circle(r)),
                    abs(re.max() - cardioid.max_re_on_circle(r)))
    nested = True
    for a in np.linspace(0.51, 2.49, 50):
        d = np.abs(boundary - a)
        r_in, r_out = cardioid.inner_outer_radii(a)
        nested = nested and 0.0 < r_in <= r_out
        worst = max(worst, abs(d.min() - r_in), abs(d.max() - r_out))
    knots = max(
        abs((1.0 - 0.5 + 0.125) - (3.0 - 0.5) / 4.0),
        abs((5.0 - 7.0 / 3.0) / 2.0
            - math.sqrt((7.0 / 3.0 - 1.0) ** 3 / (8.0 * (7.0 / 6.0 - 1.0)))),
        abs((2.0 * 1.5 - 1.0) / 2.0 - (5.0 - 3.0) / 2.0),
    )
    ok = worst < 1e-6 and knots < 1e-12 and nested
    _verdict(4, ok, f"circle-extrema and disk lemmas vs brute force "
                    f"(worst {worst:.1e}), knot continuity {knots:.1e}, "
                    f"0 < r_a <= R_a {'holds' if nested else 'FAILS'}")


def test_criterion_5_inclusion_suite():
    reports = verify.inclusion_suite(4096)
    failures = [r.claim for r in reports if not r.passed]
    ok = not failures
    _verdict(5, ok, f"{len(reports)} inclusion claims sharp at stated thresholds "
                    f"{'; failures: ' + repr(failures) if failures else ''}")


def test_criterion_6_sharpness_suite():
    card = domains.make_domain("cardioid")
    ext = functions.extremal
    phi = ext("cardioid_extremal")
    e_const = math.e

    def fs(name, kind, **params):
        # the generator of `kind` at `params`, under its own name
        return dataclasses.replace(ext(kind, **params), name=name)

    r4 = radii.radius_of_class_in_cardioid("rational_lemniscate").value
    r9 = radii.radius_of_class_in_cardioid("nephroid").value
    s2 = radii.radius_of_cardioid_in_class("lemniscate", 0.0).value
    s4 = radii.radius_of_cardioid_in_class("rational").value
    s5 = radii.radius_of_cardioid_in_class("sine").value
    s6 = radii.radius_of_cardioid_in_class("cosh").value
    s7 = radii.radius_of_cardioid_in_class("nephroid").value
    s8 = radii.radius_of_cardioid_in_class("sigmoid").value
    s9 = radii.radius_of_cardioid_in_class("ram_singh", 0.0).value
    s13 = radii.radius_of_cardioid_in_class("bounded_re", 2.0).value

    touches = [
        # class generators touching the region boundary at 1/2 or 5/2
        (fs("janowski_1_m1", "janowski", A=1.0, B=-1.0), 1 / 3, -1 / 3, 0.5, card),
        (fs("cassinian_1", "cassinian", c=1.0), 0.75, -0.75, 0.5, card),
        (fs("exponential_0", "exponential", alpha=0.0),
         math.log(2.0), -math.log(2.0), 0.5, card),
        (fs("rational_lemniscate", "rational_lemniscate"), r4, -r4, 0.5, card),
        (fs("cardioid_wide", "cardioid_wide"), 0.5, -0.5, 0.5, card),
        (fs("limacon", "limacon"), SQRT2 - 1.0, -(SQRT2 - 1.0), 0.5, card),
        (fs("lune", "lune"), 0.75, -0.75, 0.5, card),
        (fs("sine", "sine"), math.asin(0.5), -math.asin(0.5), 0.5, card),
        (fs("nephroid", "nephroid"), r9, -r9, 0.5, card),
        (fs("booth_0", "booth", alpha=0.0), 0.5, -0.5, 0.5, card),
        (ext("koebe"), 1 / 3, -1 / 3, 0.5, card),
        (ext("half_plane"), 0.6, 0.6, 2.5, card),
        (ext("bounded_re_extremal"), 0.2, 0.2, 0.5, card),
        # the class extremal touching other regions' boundaries
        (phi, s2, s2, SQRT2, domains.make_domain("lemniscate", 0.0)),
        (phi, s4, -s4, 2.0 * (SQRT2 - 1.0), domains.make_domain("rational")),
        (phi, s5, s5, 1.0 + math.sin(1.0), domains.make_domain("sine")),
        (phi, s6, s6, math.cosh(1.0), domains.make_domain("cosh")),
        (phi, s7, s7, 5.0 / 3.0, domains.make_domain("nephroid")),
        (phi, s8, s8, 2.0 * e_const / (1.0 + e_const), domains.make_domain("sigmoid")),
        (phi, s9, s9, 2.0, domains.Disk(1.0, 1.0)),
        (phi, s13, s13, 2.0, domains.make_domain("bounded_re", 2.0)),
        # second partial sum displays
        (ext("second_sum"), 0.5, -0.5, 0.0, None),
        (ext("second_sum"), 1 / 3, -1 / 3, 0.5, card),
        (ext("second_sum_convexity"), 0.25, -0.25, 0.0, None),
    ]
    # ratio-class extremals, touch value 1/2 on the region boundary
    signs = {"z": -1.0, "z_over_1plusz": 1.0, "z_over_1minusz2": 1j,
             "koebe": -1.0, "z_plus_half_z2": -1.0}
    names = {"z": "z", "z_over_1plusz": "shifted", "z_over_1minusz2": "rotated",
             "koebe": "koebe", "z_plus_half_z2": "half_square"}
    for chi, sign in signs.items():
        for i in (1, 2, 3):
            r = radii.ratio_class_radius(i, chi).value
            touches.append((ext(f"ratio{i}_{names[chi]}"), r, sign * r, 0.5, card))

    failures = []
    for spec, r_star, z0, expect, dom in touches:
        rep = verify.sharpness_touch(spec, r_star, z0, expect, dom)
        if not rep.passed:
            failures.append((spec.name, rep.measured_value))
    ok = not failures and len(touches) >= 15
    _verdict(6, ok, f"{len(touches)} boundary-touch displays at 1e-9"
                    f"{'; failures: ' + repr(failures) if failures else ''}")


def test_criterion_7_coefficient_suite():
    tangency_ok = True
    for n in range(2, 9):
        d = functions.monomial_image_disk(n, 1.0 / (2 * n - 1))
        if abs((d.center - d.radius) - 0.5) >= 1e-12:
            tangency_ok = False
    (report,) = verify.coefficient_suite(seed=0, samples=2048)
    ok = tangency_ok and report.passed
    _verdict(7, ok, "monomial tangency for n=2..8 and 100 random polynomials "
                    "under the coefficient condition")


def test_criterion_8_flagged_discrepancies():
    reg = {e.key: e for e in radii.constants_registry()}
    checks = []
    # strong-starlikeness order: printed decimal vs measured maximum
    entry = reg["incl.strong_order"]
    bz = radii.beta_zero_candidates()
    measured = verify.measured_max_arg_order()
    checks.append("published-decimal-mismatch" in entry.flags
                  and abs(measured - bz["statement_form"]) < 1e-9
                  and abs(measured - bz["published_decimal"]) > 1e-3)
    # first-branch disk radius: published formula rejected, oracle reported
    entry = reg["within.janowski_M_low"]
    checks.append("formula-suspect" in entry.flags
                  and abs(entry.value - radii.disk_real_axis_radius(1.05)) < 1e-6)
    # ratio table decimal printed two ways
    entry = reg["ratio.f2.z_over_1minusz2"]
    checks.append("published-decimal-ambiguous" in entry.flags
                  and abs(entry.value - 0.14326) < 5e-5
                  and abs(entry.value - 0.14327) < 5e-5)
    # sine-integral series: displayed fourth coefficient against the oracle
    computed = functions.sine_integral_series(6).coeffs[3]
    displayed = 1.0 / 9.0
    checks.append(abs(computed - displayed) < 1e-13)
    print(f"  flagged rows: strong-order measured {measured:.9f} "
          f"(published {bz['published_decimal']}, variant {bz['proof_form']:.6f}); "
          f"first-branch disk radius oracle {reg['within.janowski_M_low'].value:.9f}; "
          f"ratio decimal {reg['ratio.f2.z_over_1minusz2'].value:.9f}; "
          f"series coefficient displayed {displayed:.9f} computed {computed.real:.9f}")
    # flagged rows must not fail the oracle comparison either
    flagged_keys = tuple(k for k, v in reg.items() if v.flags and v.oracle is not None)
    reports = verify.verify_all_constants(2048, keys=flagged_keys)
    checks.append(all(r.passed for r in reports))
    ok = all(checks)
    _verdict(8, ok, "discrepant rows are flagged, reported with both values, "
                    "and do not fail the build")


def test_criterion_9_figure_data():
    failures = []
    for tag in cli.FIGURE_TAGS:
        for name, good in cli.check_figure(tag):
            if not good:
                failures.append((tag, name))
    ok = not failures
    _verdict(9, ok, f"{len(cli.FIGURE_TAGS)} figure tags emit curves satisfying "
                    f"their containment claims"
                    f"{'; failures: ' + repr(failures) if failures else ''}")
