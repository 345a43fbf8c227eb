"""The public API: what `cardstar` exports, and how its code checks input."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cardstar

MODULES = ("cardioid", "cli", "domains", "functions", "radii", "series", "verify")

# names the package no longer has: each restated what another mechanism
# already computes, and only tests called it, or kept a fact of a region
# kind or of a gate apart from the one place that declares it
DELETED = (
    "AnnulusOfDisks", "annulus_of_disks", "convexity_radius", "growth_envelope",
    "disk_in_domain", "domain_in_domain", "apollonius_positivity_margin",
    "corollary_radius", "_COROLLARY_TAGS", "m_fixed_point", "partial_sum_radii",
    "convolution_radii",
    "_Inequality", "_INEQUALITIES", "_INVERSES", "_SINGULAR_POINTS", "_INRADII", "_booth",
    "near_tolerance", "AGREEMENT_TOL_COARSE", "agreement_tolerance",
    "CliConfig", "reports_to_csv", "boundary_samples",
    "_disk_window_distances", "_DISK_WINDOW", "_disk_touch_angle", "_unimodal_argmax",
    "_boundary_arg",
    "generator_names", "extremal_names", "multiply_coeffs", "_DOMAIN_CACHE", "_domain",
    "_unit_from_zero", "_unit_to_one", "_ORDER", "_LEMNISCATE", "_RAM_SINGH", "_PADMANABHAN",
    "_BOUNDED_QUOTIENT", "_BOUNDED_RE",
    "OracleSpec", "ORACLE_KINDS", "_into_cardioid", "_cardioid_into", "_disk_family",
    "_threshold", "gen_order", "gen_ram_singh", "gen_padmanabhan", "_apollonius_disk",
    "_bounded_quotient_ab",
    "eval_log_derivative", "_preimage_roots", "CardioidDomain", "exp_coeffs",
    "_log_margin", "_cosh_margin",
    "first_failure", "_scan_verdicts", "_SCAN_CHUNK", "_SCAN_ROW_POINTS", "_SCAN_INDEX",
    "_row_of",
)


def test_exported_names_resolve_once():
    assert len(cardstar.__all__) == len(set(cardstar.__all__))
    namespace = {}
    exec("from cardstar import *", namespace)
    for name in cardstar.__all__:
        assert namespace[name] is getattr(cardstar, name), name


def test_deleted_names_stay_deleted():
    modules = [cardstar] + [importlib.import_module(f"cardstar.{m}") for m in MODULES]
    for owner in modules + [cardstar.PowerSeries]:
        for name in DELETED:
            assert not hasattr(owner, name), (owner.__name__, name)


def test_deleted_names_are_not_mentioned():
    # a deleted name left in the README or a docstring describes a mechanism
    # the package no longer has
    root = Path(cardstar.__file__).resolve().parent
    paths = [root.parent.parent / "README.md", *sorted(root.glob("*.py"))]
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, DELETED)) + r")\b")
    found = [(path.name, m.group()) for path in paths if path.exists()
             for m in pattern.finditer(path.read_text())]
    assert not found


def test_import_and_registry_leave_numpy_fft_unloaded():
    # numpy.fft is loaded on the first grid evaluation of a series, so that
    # importing the package and building the registry do not pay for it
    code = ("import sys, numpy; print('numpy.fft' in sys.modules); "
            "import cardstar; cardstar.radii.constants_registry(); "
            "print('numpy.fft' in sys.modules)")
    src = str(Path(cardstar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    by_numpy, after_registry = done.stdout.split()
    if by_numpy == "True":
        pytest.skip("this numpy loads numpy.fft when it is imported (numpy < 2)")
    assert after_registry == "False"


def test_import_registry_and_threshold_leave_scipy_unloaded():
    # the package depends on numpy alone; importing scipy.optimize for a root
    # finder would double the resident memory of a run
    code = ("import sys, cardstar, cardstar.cli; cardstar.radii.constants_registry(); "
            "cardstar.verify.INCLUSION_FAMILIES['conic'].threshold(256); "
            "print('scipy' in sys.modules)")
    src = str(Path(cardstar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    assert done.stdout.split() == ["False"]


def test_package_code_has_no_assert():
    # control flow must not rely on assert, which python -O strips
    for path in sorted(Path(cardstar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)
