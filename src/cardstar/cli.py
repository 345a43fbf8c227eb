"""Command-line front end.

Subcommands:

  constants                     tabulate every registry constant with its
                                oracle value and flags
  verify [--filter PAT]         run the verification suites; exit 1 on any
                                non-flagged failure
  member RE IM                  classify a point against the cardioid region
  radius CLASS [--param V]      look up a radius constant by class tag
  coeff-check FILE              coefficient-condition test of a series file
  plot FIGURE                   emit figure curve data (CSV or SVG), with
                                as many points per curve as samples

Every subcommand writes text; constants, verify and plot also write
--format csv, and plot --format svg.  Any other format is a usage error.

Exit codes: 0 success, 1 verification failure, 2 usage error.  The sample
count defaults to 4096 and may be overridden with --samples or the
CARDIOID_SAMPLES environment variable; it must be at least 256 and
divisible by 4.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import cardioid, domains, functions, radii, series, verify

_SVG_SIZE = 480   # the longer side of a figure's SVG canvas, in pixels

# the output formats each subcommand writes
_FORMATS = {"constants": ("text", "csv"), "verify": ("text", "csv"),
            "member": ("text",), "radius": ("text",), "coeff-check": ("text",),
            "plot": ("text", "csv", "svg")}


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _field(value, sep: str) -> str:
    # a tuple field (flags) joins with sep
    return sep.join(value) if isinstance(value, tuple) else str(value)


def to_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """The one CSV writer, for the two tables and the figure curves: a tuple
    field joins with '|' and a comma inside any field becomes ';', so every
    row has the header's columns."""
    return "".join(",".join(_field(v, "|").replace(",", ";") for v in row) + "\n"
                   for row in (header, *rows))


def reports_table(reports: list[verify.VerificationReport], output_format: str) -> str:
    if output_format == "csv":
        return to_csv(("claim", "method", "samples", "verdict", "measured", "witness", "flags"),
                      [(r.claim, r.method, r.samples, r.verdict,
                        f"{r.measured_value:.9g}" if r.measured_value is not None else "",
                        f"{r.witness:.9g}" if r.witness is not None else "", r.flags)
                       for r in reports])
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  [{','.join(r.flags)}]" if r.flags else ""
        measured = f"  measured={r.measured_value:.9g}" if r.measured_value is not None else ""
        note = "  (flagged, non-blocking)" if r.flags and not r.passed else ""
        lines.append(f"{status}  {r.claim}{measured}{extra}{note}\n")
    lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed\n")
    return "".join(lines)


def constants_table(samples: int, output_format: str, with_oracle: bool) -> str:
    rows = []
    header = ("key", "value", "method", "published", "oracle", "diff", "flags")
    measured: verify.Measured = {}  # each distinct oracle descriptor once, the notes' too
    for entry in radii.constants_registry():
        oracle_val = diff = "-"
        if with_oracle and entry.oracle is not None:
            value = verify.measure_constant(entry, samples, measured)
            oracle_val = f"{value:.9g}"
            diff = f"{abs(value - entry.value):.2e}"
        published = f"{entry.published:.9g}" if entry.published is not None else "-"
        rows.append((entry.key, f"{entry.value:.9g}", entry.method, published,
                     oracle_val, diff, entry.flags or "-"))
    if output_format == "csv":
        return to_csv(header, rows)
    table = [header] + [[_field(c, ",") for c in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in table]
    bz = radii.beta_zero_candidates()
    # the strong-order row's oracle value, measured above unless --no-oracle
    max_arg = verify._measure_once(radii.Threshold("max_arg"), samples, measured)
    lines.append("")
    lines.append("notes:")
    lines.append(f"  strong-order candidates: statement form {bz['statement_form']:.9g}, "
                 f"variant reading {bz['proof_form']:.9g}, "
                 f"published decimal {bz['published_decimal']:.9g}; "
                 f"measured maximum {max_arg:.9g}")
    for entry in radii.constants_registry():
        if entry.note:
            lines.append(f"  {entry.key}: {entry.note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _curve(name: str, pts: np.ndarray, outer: domains.Domain | None = None,
           tol: float = 1e-6):
    return {"name": name, "points": np.asarray(pts), "outer": outer, "tol": tol}


def _boundary_pts(d: domains.Domain, n: int) -> np.ndarray:
    return np.asarray(d.boundary(*radii._circle_grid(n)))


def _image_circle(w_of, r: float, n: int) -> np.ndarray:
    return np.asarray(w_of(r * radii._circle_grid(n)[1]))


def _cardioid_curve(n: int) -> dict:
    return _curve("cardioid", _boundary_pts(domains.make_domain("cardioid"), n))


def _lemma_disks(a: float):
    def build(n: int) -> list[dict]:
        card = domains.make_domain("cardioid")
        r_in, r_out = cardioid.inner_outer_radii(a)
        return [
            _cardioid_curve(n),
            _curve(f"inscribed_disk_a{a:g}", _boundary_pts(domains.Disk(a, r_in), n),
                   outer=card),
            _curve(f"cardioid_in_circumscribed_a{a:g}", _boundary_pts(card, n),
                   outer=domains.Disk(a, r_out + 1e-9)),
            _curve(f"circumscribed_disk_a{a:g}", _boundary_pts(domains.Disk(a, r_out), n)),
        ]
    return build


def _inclusion_figure(family: str, param, drawn: str, checked: str | None = None):
    """A `verify.INCLUSION_FAMILIES` pair at its sharp parameter `param()`.

    When the outer region is the cardioid, the inner boundary is drawn as
    `drawn` and checked; otherwise the outer boundary is drawn as `drawn`
    and the cardioid boundary, as `checked`, is checked against it.
    """
    def build(n: int) -> list[dict]:
        inner, outer = verify.INCLUSION_FAMILIES[family].regions(param())
        if checked is None:
            return [_cardioid_curve(n), _curve(drawn, _boundary_pts(inner, n), outer=outer)]
        return [_cardioid_curve(n), _curve(drawn, _boundary_pts(outer, n)),
                _curve(checked, _boundary_pts(inner, n), outer=outer)]
    return build


def _subdisk_image(gen_name: str):
    def build(n: int) -> list[dict]:
        r = radii.radius_of_class_in_cardioid(gen_name).value
        return [_cardioid_curve(n),
                _curve(f"{gen_name}_subdisk_image",
                       _image_circle(functions.generator(gen_name), r, n),
                       outer=domains.make_domain("cardioid"))]
    return build


def _univalent_p_disk(n: int) -> list[dict]:
    w = functions.extremal("koebe").w_of
    return [_cardioid_curve(n),
            _curve("half_plane_quotient_subdisk", _image_circle(w, 1.0 / 3.0, n),
                   outer=domains.make_domain("cardioid"))]


def _sharpness_s2_s3_s7_s8(n: int) -> list[dict]:
    curves = [_cardioid_curve(n)]
    for name, params in (("lemniscate", (0.0,)), ("rational_lemniscate", ()),
                         ("nephroid", ()), ("sigmoid", ())):
        outer = domains.make_domain(name, *params)
        r = radii.radius_of_cardioid_in_class(name, *params).value
        curves.append(_curve(f"{name}_target", _boundary_pts(outer, n)))
        curves.append(_curve(f"cardioid_subdisk_in_{name}",
                             _image_circle(cardioid.eval_phi, r, n), outer=outer, tol=2e-5))
    return curves


def _scar_in_psi_c(n: int) -> list[dict]:
    outer = domains.make_domain("cardioid_wide")
    return [_curve("wide_cardioid", _boundary_pts(outer, n)),
            _curve("cardioid_inside_wide", _boundary_pts(domains.make_domain("cardioid"), n),
                   outer=outer)]


# every figure tag with the builder of its curves at n points
FIGURES = {
    "lemma_disks_a1": _lemma_disks(1.0),
    "lemma_disks_a2": _lemma_disks(2.0),
    "inclusion_g1": _inclusion_figure("half_plane", lambda: 0.25, "order_line",
                                      "cardioid_in_half_plane"),
    "inclusion_g2": _inclusion_figure("sector", radii.beta_zero, "sector_rays",
                                      "cardioid_in_sector"),
    "inclusion_g3": _inclusion_figure("conic", lambda: 5.0 / 3.0, "conic_ellipse"),
    "inclusion_g4": _inclusion_figure("exponential", radii.alpha_zero, "exponential_region"),
    "inclusion_g5": _inclusion_figure("lemniscate", lambda: 0.5, "lemniscate_region"),
    "inclusion_g6": _inclusion_figure("cassinian", lambda: 0.75, "cassinian_loop"),
    "inclusion_g7": _inclusion_figure("self_centered_disk", cardioid.self_centered_fixed_point,
                                      "self_centered_circle", "cardioid_in_disk"),
    **{f"radius_r{i}": _subdisk_image(name) for i, name in
       enumerate(("cardioid_wide", "limacon", "lune", "sine", "nephroid"), start=5)},
    "univalent_p_disk": _univalent_p_disk,
    "sharpness_s2_s3_s7_s8": _sharpness_s2_s3_s7_s8,
    "scar_in_psiC": _scar_in_psi_c,
}
FIGURE_TAGS = tuple(FIGURES)


def figure_curves(tag: str, n: int = 512) -> list[dict]:
    """Curves of a registered figure at the n points of the circle grid (n
    divisible by 4); inner curves carry the region they must lie inside,
    which the figure self-check samples."""
    if tag not in FIGURES:
        raise ValueError(f"unknown figure tag {tag!r}; known: {', '.join(sorted(FIGURE_TAGS))}")
    return FIGURES[tag](n)


def check_figure(tag: str, n: int = 512) -> list[tuple[str, bool]]:
    """Numeric check of the visual claim: inner curves inside outer regions."""
    results = []
    for curve in figure_curves(tag, n):
        if curve["outer"] is not None:
            ok = curve["outer"].contains_all(curve["points"], curve["tol"])
            results.append((curve["name"], bool(ok)))
    return results


def figure_csv(tag: str, n: int = 512) -> str:
    t = radii._circle_grid(n)[0]
    return to_csv(("curve", "t", "x", "y"),
                  [(curve["name"], f"{ti:.9g}", f"{w.real:.9g}", f"{w.imag:.9g}")
                   for curve in figure_curves(tag, n) for ti, w in zip(t, curve["points"])])


def figure_svg(tag: str, n: int = 512) -> str:
    curves = figure_curves(tag, n)
    pts = np.concatenate([c["points"] for c in curves])
    x0, x1 = float(pts.real.min()), float(pts.real.max())
    y0, y1 = float(pts.imag.min()), float(pts.imag.max())
    pad = 0.05 * max(x1 - x0, y1 - y0)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    scale = _SVG_SIZE / max(x1 - x0, y1 - y0)

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale

    w = int(round((x1 - x0) * scale))
    h = int(round((y1 - y0) * scale))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
           f'viewBox="0 0 {w} {h}">']
    palette = ("#000000", "#c02020", "#2040c0", "#208040", "#806020", "#602080")
    for i, curve in enumerate(curves):
        color = palette[i % len(palette)]
        coords = " ".join(f"{sx(p.real):.3f},{sy(p.imag):.3f}" for p in curve["points"])
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1" '
                   f'points="{coords}"/>')
        first = curve["points"][0]
        out.append(f'<text x="{sx(first.real):.3f}" y="{sy(first.imag):.3f}" '
                   f'font-size="10" fill="{color}">{curve["name"]}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# radius lookup grammar
# ---------------------------------------------------------------------------

# every class-table row, under its tag with dashes; the cardioid-in- prefix
# marks the radius of the cardioid class in the named class
_RADIUS_TAGS = {("cardioid-in-" if spec.direction == "within" else "")
                + spec.tag.replace("_", "-").lower(): spec
                for spec in radii.CLASS_TABLE.values()}


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    sys.stdout.write(constants_table(args.samples, args.format, not args.no_oracle))
    return 0


def cmd_verify(args) -> int:
    reports = verify.run_all_suites(args.samples, seed=args.seed, key_filter=args.filter)
    sys.stdout.write(reports_table(reports, args.format))
    return 1 if any(not r.passed and not r.flags for r in reports) else 0


def cmd_member(args) -> int:
    w = complex(args.re, args.im)
    # a point far out or at infinity overflows, and is classified as outside
    with np.errstate(all="ignore"):
        v = cardioid.contains(w)
        also = cardioid.contains_implicit(w)
    line = f"{w:g}: {v.verdict}"
    if v.inside:
        line += f", generator preimage {v.preimage:.9g}"
    if v.near_cusp:
        line += " (near the cusp at 1/2)"
    line += f"; implicit-quartic test: {'inside' if also else 'not inside'}"
    sys.stdout.write(line + "\n")
    return 0


def cmd_radius(args) -> int:
    tag = args.klass.lower()
    if tag not in _RADIUS_TAGS:
        sys.stderr.write("unknown class; available tags:\n")
        for k in sorted(_RADIUS_TAGS):
            sys.stderr.write(f"  {k}\n")
        return 2
    spec = _RADIUS_TAGS[tag]
    if spec.param is not None and spec.default is None and args.param is None:
        sys.stderr.write(f"class {tag!r} requires --param\n")
        return 2
    try:
        res = spec.radius(args.param)
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    line = f"{res.claim}: {res.value:.9g} ({res.method}"
    if res.clamped:
        line += ", capped at 1"
    line += ")"
    if res.defining_polynomial:
        line += f"  polynomial coefficients (ascending): {res.defining_polynomial}"
    if res.flags:
        line += f"  flags: {','.join(res.flags)}"
    sys.stdout.write(line + "\n")
    return 0


def cmd_coeff_check(args) -> int:
    try:
        with open(args.series_file, "r", encoding="utf-8") as fh:
            f = series.from_text(fh.read())
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error reading series file: {exc}\n")
        return 2
    if not f.is_normalized:
        sys.stderr.write("series is not normalized (first coefficient must be 1)\n")
        return 2
    total = series.coefficient_condition_sum(f)
    ok = total <= 1.0
    sys.stdout.write(f"coefficient sum {total:.9g} -> "
                     f"{'member (sufficient condition met)' if ok else 'inconclusive (condition not met)'}\n")
    return 0


def cmd_plot(args) -> int:
    tag = args.figure
    if tag not in FIGURE_TAGS:
        sys.stderr.write(f"unknown figure tag; known: {', '.join(FIGURE_TAGS)}\n")
        return 2
    n = args.samples
    for name, ok in check_figure(tag, n):
        if not ok:
            sys.stderr.write(f"containment self-check failed for curve {name}\n")
            return 1
    sys.stdout.write(figure_svg(tag, n) if args.format == "svg" else figure_csv(tag, n))
    return 0


# argparse takes only forms like -2 and -2.5 for negative numbers and reads
# -1e-3, -inf or -nan as an unknown option; in the subcommands that read
# numbers, every form that float() accepts after its minus sign (a digit,
# ".digit", inf, nan) is a value, and -h stays the help option
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf(inity)?$|nan$)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardstar",
        description="radius constants and verification for the cardioid starlike class")
    # a string default goes through type=int, so a bad value is a usage error
    parser.add_argument("--samples", type=int,
                        default=os.environ.get("CARDIOID_SAMPLES", "4096"))
    parser.add_argument("--format", choices=("text", "csv", "svg"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the constants table")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the oracle column (fast)")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--filter", default=None, help="only claims containing this text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("member", help="classify a point against the region")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("re", type=float)
    p.add_argument("im", type=float)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("radius", help="look up a radius constant")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("klass", metavar="class")
    p.add_argument("--param", type=float, default=None)
    p.set_defaults(fn=cmd_radius)

    p = sub.add_parser("coeff-check", help="coefficient condition for a series file")
    p.add_argument("series_file")
    p.set_defaults(fn=cmd_coeff_check)

    p = sub.add_parser("plot", help="emit figure curve data")
    p.add_argument("figure")
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.samples < 256:
        parser.error("sample count must be at least 256")
    if args.samples % 4:
        # the circle grids must hold t = pi/2 and pi, where sharp radii touch
        parser.error("sample count must be divisible by 4")
    if args.format not in _FORMATS[args.command]:
        writers = ", ".join(cmd for cmd, formats in _FORMATS.items() if args.format in formats)
        parser.error(f"--format {args.format} applies only to {writers}")
    try:
        return args.fn(args)
    except BrokenPipeError:
        # downstream consumer (head, less) closed the stream; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
