"""Command-line surface: exit codes, formats, determinism, figures."""

import dataclasses
import hashlib
import warnings

import pytest

from cardstar import cli, radii, verify
from cardstar.cli import main

import record_pins


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_validation(monkeypatch, capsys):
    # the parsed arguments are checked before any work runs
    monkeypatch.setattr(verify, "run_all_suites", lambda *a, **kw: pytest.fail("work ran"))
    monkeypatch.setattr(cli, "constants_table", lambda *a, **kw: pytest.fail("work ran"))
    for argv, message in ((["--samples", "64", "verify"], "at least 256"),
                          (["--format", "pdf", "verify"], "invalid choice"),
                          (["--format", "svg", "verify"], "only to plot"),
                          (["--format", "svg", "constants"], "only to plot")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_format_applies_only_to_commands_that_write_it(tmp_path, capsys):
    # member, radius and coeff-check write text only: csv or svg is a usage
    # error that writes nothing to stdout, not text under another name
    path = tmp_path / "series.txt"
    path.write_text("1 0\n0.1 0\n")
    for command in (["member", "1", "0"], ["radius", "sine"], ["coeff-check", str(path)]):
        for fmt, writers in (("csv", "constants, verify, plot"), ("svg", "plot")):
            with pytest.raises(SystemExit) as exc:
                main(["--format", fmt] + command)
            out = capsys.readouterr()
            assert exc.value.code == 2 and out.out == "", (fmt, command)
            assert f"--format {fmt} applies only to {writers}" in out.err, (fmt, command)
        code, out, _ = run(["--format", "text"] + command, capsys)
        assert code == 0 and out, command


def test_samples_must_be_divisible_by_four(monkeypatch, capsys):
    # the circle grids must hold t = pi, where the cusp touches happen; an odd
    # count is a usage error before any work runs
    monkeypatch.setattr(verify, "run_all_suites", lambda *a, **kw: pytest.fail("work ran"))
    for argv, env in ((["--samples", "257", "verify"], None), (["verify"], "258")):
        if env is not None:
            monkeypatch.setenv("CARDIOID_SAMPLES", env)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "divisible by 4" in capsys.readouterr().err


def test_member_command(capsys):
    code, out, _ = run(["member", "1", "0"], capsys)
    assert code == 0 and "inside" in out and "preimage" in out
    code, out, _ = run(["member", "0.5", "0"], capsys)
    assert code == 0 and "boundary" in out
    code, out, _ = run(["member", "2.5", "0.2"], capsys)
    assert code == 0 and "outside" in out


def test_member_far_points_print_no_warning(capsys):
    # a point at infinity, far out or not a number is outside, with no numpy
    # warning; negative coordinates in exponent form and -inf are values,
    # not options, and print what they print after "--"
    for point in (("inf", "0"), ("1e200", "0"), ("-inf", "0"), ("nan", "0"),
                  ("0", "1e200"), ("-1e5", "0"), ("0", "-1e-3"), ("-INF", "-nan")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["member", *point], capsys)
            assert (code, out, err) == run(["member", "--", *point], capsys), point
        assert code == 0 and "outside" in out and err == "", point


def test_radius_command(capsys):
    code, out, _ = run(["radius", "nephroid"], capsys)
    assert code == 0 and "0.557874" in out
    code, out, err = run(["radius", "not-a-class"], capsys)
    assert code == 2 and "available tags" in err
    code, out, err = run(["radius", "cardioid-in-janowski-m"], capsys)
    assert code == 2 and "--param" in err
    code, out, _ = run(["radius", "cardioid-in-janowski-m", "--param", "1.2"], capsys)
    assert code == 0
    code, out, err = run(["radius", "cardioid-in-bounded-re", "--param", "0.5"], capsys)
    assert code == 2 and "error" in err
    # a negative parameter in exponent form is a value, as after "="
    code, out, err = run(["radius", "order", "--param", "-5e-1"], capsys)
    assert (code, out, err) == run(["radius", "order", "--param=-5e-1"], capsys)
    assert code == 2 and "must lie in [0, 1)" in err
    # an explicit parameter is validated, never replaced by the default
    code, out, err = run(["radius", "padmanabhan", "--param", "0"], capsys)
    assert code == 2 and out == "" and "must lie in (0, 1]" in err
    code, out, err = run(["radius", "janowski-m", "--param", "0"], capsys)
    assert code == 2 and out == "" and "must exceed 1/2" in err
    # a tag without a parameter rejects one instead of ignoring it
    code, out, err = run(["radius", "sine", "--param", "0.3"], capsys)
    assert code == 2 and out == "" and "tag 'sine' takes no parameter" in err


def test_radius_below_the_search_floor_is_an_error(capsys):
    # a valid M whose sampled radius lies below the search floor is an error
    # line, not a traceback
    code, out, err = run(["radius", "cardioid-in-janowski-m", "--param", repr(0.5 + 2**-53)],
                         capsys)
    assert code == 2 and out == "" and err.startswith("error: no positive radius")


# expected `cardstar radius` output of every tag at its default parameter;
# the last three tags require --param
RADIUS_LINES = {
    "cassinian": "radius of the Cassinian class (c=1) in the cardioid class: 0.75 (closed_form)",
    "lemniscate": "radius of the lemniscate class (alpha=0) in the cardioid class: "
                  "0.75 (closed_form)",
    "exponential": "radius of the exponential class (alpha=0) in the cardioid class: "
                   "0.693147181 (closed_form)",
    "rational-lemniscate": "radius of the shifted-lemniscate class in the cardioid class: "
                           "0.768800373 (closed_form)",
    "cardioid-wide": "radius of the wide-cardioid class in the cardioid class: 0.5 (closed_form)",
    "limacon": "radius of the limacon class in the cardioid class: 0.414213562 (closed_form)",
    "lune": "radius of the lune class in the cardioid class: 0.75 (closed_form)",
    "sine": "radius of the sine class in the cardioid class: 0.523598776 (closed_form)",
    "nephroid": "radius of the nephroid class in the cardioid class: 0.557874698 "
                "(root_of_polynomial)  polynomial coefficients (ascending): (3.0, -6.0, 0.0, 2.0)",
    "booth": "radius of the Booth-curve class (alpha=0) in the cardioid class: 0.5 (closed_form)",
    "bounded-re": "radius of the bounded-real-part class (beta=2) in the cardioid class: "
                  "0.2 (closed_form)",
    "order": "radius of starlike functions of order 0: 0.333333333 (closed_form)",
    "ram-singh": "radius of the [1-a, 0] family at a=0: 0.5 (closed_form)",
    "padmanabhan": "radius of the [a, -a] family at a=1: 0.333333333 (closed_form)",
    "janowski-m": "radius of the bounded-quotient family at M=1: 0.5 (closed_form)",
    "starlike": "radius of the starlike class in the cardioid class: 0.333333333 (closed_form)",
    "convex": "radius of the convex class in the cardioid class: 0.6 (closed_form)",
    "univalent": "radius of the univalent class in the cardioid class: 0.333333333 (closed_form)",
    "close-to-convex": "radius of the close-to-convex class in the cardioid class: "
                       "0.333333333 (closed_form)",
    "cardioid-in-order": "radius of the cardioid class in starlike functions of order 0: "
                         "1 (closed_form, capped at 1)",
    "cardioid-in-lemniscate": "radius of the cardioid class in the lemniscate class (alpha=0): "
                              "0.352193449 (closed_form)",
    "cardioid-in-rational-lemniscate": "radius of the cardioid class in the shifted-lemniscate "
                                       "class: 0.253733711 (closed_form)  flags: "
                                       "bounding-disk-route",
    "cardioid-in-rational": "radius of the cardioid class in the rational-generator class: "
                            "0.189534548 (closed_form)",
    "cardioid-in-sine": "radius of the cardioid class in the sine class: 0.637968855 (closed_form)",
    "cardioid-in-cosh": "radius of the cardioid class in the hyperbolic-cosine class: "
                        "0.444354967 (closed_form)",
    "cardioid-in-nephroid": "radius of the cardioid class in the nephroid class: "
                            "0.527525232 (closed_form)",
    "cardioid-in-sigmoid": "radius of the cardioid class in the sigmoid class: "
                           "0.387167731 (closed_form)",
    "cardioid-in-ram-singh": "radius of the cardioid class in the [1-a, 0] family at a=0: "
                             "0.732050808 (closed_form)",
    "cardioid-in-cardioid-wide": "radius of the cardioid class in the wide-cardioid class: "
                                 "1 (closed_form, capped at 1)",
    "cardioid-in-padmanabhan --param 0.3": "radius of the cardioid class in the [a, -a] family "
                                           "at a=0.3: 0.553606246 (closed_form)",
    "cardioid-in-janowski-m --param 1.2": "radius of the cardioid class in the bounded-quotient "
                                          "family at M=1.2: 0.939603087 (closed_form)",
    "cardioid-in-bounded-re --param 2": "radius of the cardioid class in the bounded-real-part "
                                        "class (beta=2): 0.732050808 (closed_form)",
}


@pytest.mark.parametrize("command", sorted(RADIUS_LINES))
def test_radius_lines_pinned(command, capsys):
    code, out, err = run(["radius"] + command.split(), capsys)
    assert code == 0 and err == ""
    assert out == RADIUS_LINES[command] + "\n"


def test_radius_unknown_tag_lists_every_tag(capsys):
    code, out, err = run(["radius", "not-a-class"], capsys)
    assert code == 2 and out == ""
    tags = sorted(command.split()[0] for command in RADIUS_LINES)
    assert len(tags) == 32
    assert err == "unknown class; available tags:\n" + "".join(f"  {t}\n" for t in tags)


def test_coeff_check_command(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("1.0 0.0\n0.3333333333333333 0.0\n")
    code, out, _ = run(["coeff-check", str(path)], capsys)
    assert code == 0 and "member" in out
    path.write_text("1.0 0.0\n0.5 0.0\n")
    code, out, _ = run(["coeff-check", str(path)], capsys)
    assert code == 0 and "inconclusive" in out
    path.write_text("2.0 0.0\n0.5 0.0\n")
    code, out, err = run(["coeff-check", str(path)], capsys)
    assert code == 2
    code, out, err = run(["coeff-check", str(tmp_path / "missing.txt")], capsys)
    assert code == 2
    for bad in ("nan 0", "0.1 inf"):
        path.write_text(f"1.0 0.0\n{bad}\n")
        code, out, err = run(["coeff-check", str(path)], capsys)
        assert (code, out) == (2, "")
        assert f"line 2: coefficient '{bad}' is not finite" in err


def test_constants_table_rows_and_determinism(capsys):
    code, out1, _ = run(["--format", "csv", "constants", "--no-oracle"], capsys)
    assert code == 0
    code, out2, _ = run(["--format", "csv", "constants", "--no-oracle"], capsys)
    assert out1 == out2
    rows = [line for line in out1.strip().splitlines()[1:] if line]
    assert len(rows) == len(radii.constants_registry())


def test_constants_csv_keeps_columns_with_two_flags(monkeypatch, capsys):
    # flags join with '|', as in the verify CSV, so that a row with two flags
    # keeps the header's seven columns
    rows = radii.constants_registry()
    two = dataclasses.replace(rows[0], flags=("formula-suspect", "published-decimal-mismatch"))
    monkeypatch.setattr(radii, "constants_registry", lambda: (two, *rows[1:]))
    code, out, _ = run(["--format", "csv", "constants", "--no-oracle"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert {len(line.split(",")) for line in lines} == {7}
    assert lines[1].endswith(",formula-suspect|published-decimal-mismatch")


def test_constants_text_mentions_candidates(capsys):
    code, out, _ = run(["constants", "--no-oracle"], capsys)
    assert code == 0
    assert "strong-order candidates" in out
    assert "formula-suspect" in out
    assert "published-decimal-mismatch" in out


def test_plot_unknown_tag(capsys):
    code, _, err = run(["plot", "nope"], capsys)
    assert code == 2 and "unknown figure tag" in err


def test_plot_csv_and_svg(capsys):
    code, out, _ = run(["plot", "lemma_disks_a1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "curve,t,x,y"
    assert "inscribed_disk_a1" in out
    code, out, _ = run(["--format", "svg", "plot", "univalent_p_disk"], capsys)
    assert code == 0 and out.startswith("<svg") and "polyline" in out


def test_plot_deterministic(capsys):
    code, out1, _ = run(["plot", "inclusion_g3"], capsys)
    code, out2, _ = run(["plot", "inclusion_g3"], capsys)
    assert out1 == out2


# sha256 of figure_csv(tag) and figure_svg(tag) at the default 512 points
_FIGURE_DIGESTS = {
    "lemma_disks_a1": ("bdbe19c1a6f1c8e2632ae77e1596bac0b9f8d88ef74d2a792dc95c0063d63304",
                       "604dbb026e51d548ff6a8caa6595a625a4a8faa818dadac974b12595aef24b5d"),
    "lemma_disks_a2": ("8a0767ac5cb747c1f053f7958883d6974cd04c0b38397699c04dd1506c769b34",
                       "dc6309749b0ad189815dc9ffdcf04c09b54808c94a3e3a7299f81f792f6c1361"),
    "inclusion_g1": ("f18a18cd78901a8015d6a37a75240eb4231c94526fad0ac3683092a6929a5869",
                     "4cdf2746e60834cef3f58182ddb354ec8b0125c2aa9e9c9f7303e4ea6f1e9ba9"),
    "inclusion_g2": ("a1b12a42a960db92d7d21c4676f77ed765747447bc9cf62f65ecfd792fc5df3c",
                     "8dc6620a57473d2c54f91d79c21b2426bf296bbb5c5af0e596cc0e462afd5c93"),
    "inclusion_g3": ("b6553f74131fc8b543393ce2ec5366e83a6b1f4e31052bf66b1171f7f6dc4f04",
                     "f81e037c67411d8f6002bd240d0535fa6d5fdd359ec45b84647fbae400fff50c"),
    "inclusion_g4": ("2b04eac3c6334527a358a562f001282e076c394648817abb14f851b93e674c10",
                     "e03ecc6adb94ef3ab658146a700a4d9cfb1a3b462c8f20afdec83e0de835b54d"),
    "inclusion_g5": ("60eff888bc93108ff00d161b17626eccb20feeed05a35670ad1d2f6df634999e",
                     "daa7646bd13b4d8963c2dbbad06b16d9f372c99399f7bdb88321c14205058571"),
    "inclusion_g6": ("a384651fea67768237381d5eba9d845baeac8452f68d6d05c5ac85a9a2af8b0e",
                     "257e9f80babc0664956cf270502d245f45407871805b2e0902a05f4fd739c332"),
    "inclusion_g7": ("689a30a3147d560feca2917bd35db7c3da360aec6ff8e0605510856059031284",
                     "49cae3eaa5e011203c3d77be74a97e1e517b8d29d4e478719169cb894010aa54"),
    "radius_r5": ("3fdc3361836b74f3aaac56331a67f5744022c348958660085e26b5bf713de4b4",
                  "1235c045616ae17466f27c1705e2b53a5540590daf8f91970811caa3f7c9b9ee"),
    "radius_r6": ("395b894e6166128e2f0b8627aa74d913299aa5f34a53bac55a573294c2b2dc83",
                  "0ed596e59278243fd217f1a27f86fd807033172f009c24a4ae93eb5584b33d14"),
    "radius_r7": ("176f80135befa270fa42d83a91ef502bd4d1e0eaff5c22627d83b75502851c09",
                  "7a22f0c187c514b3ef2682123a82e66e3db763cdae2c587af4a77049d933b2c0"),
    "radius_r8": ("46291bb961fe114171a1c8a7d2d719dded5f880453cfbba3afe73594e2870463",
                  "3dcf5a630bd948257e9d114d6f4bd2f391138f6e97b02fa5d7664bd703e7f95e"),
    "radius_r9": ("3af4fb59946bf77f4f8920472e87659bc1e869bfe909a1fff5063dba9bfc6ca2",
                  "5b4ffbbbc9f9d2d60d64d8d3dada949e137a3fdb4c699eef25ff4ba6cd9bdc84"),
    "univalent_p_disk": ("1187bf0599ece9542dd7a79b0b0a4cb14337954f8cf1c3a9f2042d9f3103fee9",
                         "f6b4440f2c1202a5afa94b37477a7c6c546b81744a8d5115f617d3d240222840"),
    "sharpness_s2_s3_s7_s8": ("70904f146fc65123196c49b9f478c09166c590f76ceec4417949a1007f07dc8e",
                              "383d8b76513d835373142861a21046a97ff744bc48277b0a73fc3f1ff1ab76b0"),
    "scar_in_psiC": ("c869ec9c17299c5f1258942b56aa0899c5a458113fdce03fd3401f236c41e82c",
                     "a721de65578e21f6fa7508c96f921f6eec45e4399bdc1d961255c35433cd9052"),
}


def test_figure_output_pinned():
    assert tuple(_FIGURE_DIGESTS) == cli.FIGURE_TAGS
    for tag, (csv_digest, svg_digest) in _FIGURE_DIGESTS.items():
        assert hashlib.sha256(cli.figure_csv(tag).encode()).hexdigest() == csv_digest, tag
        assert hashlib.sha256(cli.figure_svg(tag).encode()).hexdigest() == svg_digest, tag


def test_plot_command_uses_samples(capsys):
    # one header line and 1024 points for each of the two curves
    code, out, _ = run(["--samples", "1024", "plot", "inclusion_g3"], capsys)
    assert code == 0 and len(out.splitlines()) == 2049
    for tag, (csv_digest, svg_digest) in _FIGURE_DIGESTS.items():
        for fmt, digest in (("csv", csv_digest), ("svg", svg_digest)):
            code, out, _ = run(["--samples", "512", "--format", fmt, "plot", tag], capsys)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (tag, fmt)


def test_figure_checks_all_tags():
    for tag in cli.FIGURE_TAGS:
        for name, ok in cli.check_figure(tag):
            assert ok, (tag, name)


def test_verify_command_filtered(monkeypatch, capsys):
    # only the registry rows whose claim contains the filter run their oracle:
    # "ratio" matches the 15 ratio.* rows and the 3 rows naming a rational class
    calls = []
    measure = verify.measure_constant
    monkeypatch.setattr(verify, "measure_constant",
                        lambda entry, *a, **kw: calls.append(entry.key) or measure(entry, *a, **kw))
    code, out, _ = run(["--samples", "512", "verify", "--filter", "ratio"], capsys)
    assert code == 0
    assert "PASS" in out
    rows = [e.key for e in radii.constants_registry()
            if e.oracle is not None and "ratio" in f"{e.key}: {e.description}".lower()]
    assert calls == rows
    assert sum(key.startswith("ratio.") for key in rows) == 15 and len(rows) == 18
    assert out.endswith("19/19 checks passed\n")  # 18 rows and one inclusion claim


# the stdout of `cardstar --samples 512 verify` and `... constants`, in text
# and in `--format csv`, and at 4096 samples for a case ending in "@4096",
# compared byte for byte with tests/pins/cli/<case>.txt, which
# tests/record_pins.py writes.  A different libm could move a last printed
# digit.
@pytest.mark.parametrize("case", record_pins.CLI_CASES)
def test_cli_output_pinned(case, capsys):
    code, out, _ = run(record_pins.cli_argv(case), capsys)
    assert code == 0
    assert out == record_pins.cli_path(case).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [["--samples", "512", "constants"],
                                  ["constants", "--no-oracle"]])
def test_constants_measures_max_arg_once(argv, monkeypatch, capsys):
    # the notes line reuses the strong-order row's oracle value when there is one
    calls = []
    measure = verify.measured_max_arg_order
    monkeypatch.setattr(verify, "measured_max_arg_order",
                        lambda *a: calls.append(a) or measure(*a))
    code, out, _ = run(argv, capsys)
    assert code == 0 and len(calls) == 1
    assert f"measured maximum {measure():.9g}" in out


def test_verify_command_coarse_sampling(capsys):
    # the whole suite stays green at coarse sampling, under the same 2e-4 gate
    code, out, _ = run(["--samples", "256", "verify"], capsys)
    assert code == 0


def test_verify_command_csv(capsys):
    code, out, _ = run(["--samples", "512", "--format", "csv", "verify",
                        "--filter", "partial"], capsys)
    assert code == 0
    assert out.startswith("claim,method,samples,verdict")


def test_samples_env_override(monkeypatch):
    monkeypatch.setenv("CARDIOID_SAMPLES", "512")
    parser = cli.build_parser()
    args = parser.parse_args(["constants"])
    assert args.samples == 512


def test_samples_env_not_an_integer(monkeypatch, capsys):
    # a bad value is a usage error (exit 2), not a crash
    monkeypatch.setenv("CARDIOID_SAMPLES", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["member", "1", "0"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_tolerance_option_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--tolerance", "1e-6", "constants"])
    assert exc.value.code == 2
