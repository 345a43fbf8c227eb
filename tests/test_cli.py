"""Command-line surface: exit codes, formats, determinism, figures."""

import pytest

from cardstar import cli, radii
from cardstar.cli import CliConfig, main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_validation():
    with pytest.raises(ValueError):
        CliConfig(samples=64)
    with pytest.raises(ValueError):
        CliConfig(tolerance=1.0)
    with pytest.raises(ValueError):
        CliConfig(output_format="pdf")


def test_member_command(capsys):
    code, out, _ = run(["member", "1", "0"], capsys)
    assert code == 0 and "inside" in out and "preimage" in out
    code, out, _ = run(["member", "0.5", "0"], capsys)
    assert code == 0 and "boundary" in out
    code, out, _ = run(["member", "2.5", "0.2"], capsys)
    assert code == 0 and "outside" in out


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
    # an explicit parameter is validated, never replaced by the default
    code, out, err = run(["radius", "padmanabhan", "--param", "0"], capsys)
    assert code == 2 and out == "" and "must lie in (0, 1]" in err
    code, out, err = run(["radius", "janowski-m", "--param", "0"], capsys)
    assert code == 2 and out == "" and "must exceed 1/2" in err
    # a tag without a parameter rejects one instead of ignoring it
    code, out, err = run(["radius", "sine", "--param", "0.3"], capsys)
    assert code == 2 and out == "" and "tag 'sine' takes no parameter" in err


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


def test_constants_table_rows_and_determinism(capsys):
    code, out1, _ = run(["--format", "csv", "constants", "--no-oracle"], capsys)
    assert code == 0
    code, out2, _ = run(["--format", "csv", "constants", "--no-oracle"], capsys)
    assert out1 == out2
    rows = [line for line in out1.strip().splitlines()[1:] if line]
    assert len(rows) == len(radii.constants_registry())


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


def test_figure_checks_all_tags():
    for tag in cli.FIGURE_TAGS:
        for name, ok in cli.check_figure(tag):
            assert ok, (tag, name)


def test_verify_command_filtered(capsys):
    code, out, _ = run(["--samples", "512", "verify", "--filter", "ratio"], capsys)
    assert code == 0
    assert "checks passed" in out
    assert "PASS" in out


def test_verify_command_coarse_sampling(capsys):
    # the whole suite stays green at coarse sampling with relaxed tolerance
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
