"""Record the text fixtures under tests/pins that the pin tests compare with.

    python3 tests/record_pins.py

Writes, from the current tree:

  * tests/pins/cli/<case>.txt, the stdout of `cardstar --samples 512 verify`
    and `... constants`, in text and in `--format csv` (the only output with
    the `method` and `witness` columns); a case ending in "@4096" runs at
    4096 samples instead (`test_cli.py::test_cli_output_pinned`);
  * tests/pins/registry_<n>.txt, the repr of every registry oracle's value
    at n = 256, 512 and 1024 samples, one `key repr` line per row in
    registry order (`test_verify.py::test_registry_values_pinned_*`); repr
    tells the bits apart.

The tests compare each file byte for byte.  Rerun this only when the output
of the package is meant to change, and say so in CHANGES.md; a different
libm could move a last printed digit.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cardstar import cli, radii, verify  # noqa: E402

PINS = Path(__file__).resolve().parent / "pins"
CLI_CASES = tuple(f"{command}{fmt}{at}" for command in ("constants", "verify")
                  for fmt in ("", "-csv") for at in ("", "@4096"))
REGISTRY_SAMPLES = (256, 512, 1024)


def cli_argv(case: str) -> list[str]:
    name, _, samples = case.partition("@")
    command, _, fmt = name.partition("-")
    return ["--samples", samples or "512"] + (["--format", fmt] if fmt else []) + [command]


def cli_path(case: str) -> Path:
    return PINS / "cli" / f"{case}.txt"


def registry_text(n: int) -> str:
    return "".join(f"{e.key} {verify.measure_constant(e, n)!r}\n"
                   for e in radii.constants_registry() if e.oracle is not None)


def registry_path(n: int) -> Path:
    return PINS / f"registry_{n}.txt"


def main() -> int:
    (PINS / "cli").mkdir(parents=True, exist_ok=True)
    for case in CLI_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(cli_argv(case))
        if code != 0:
            raise SystemExit(f"cardstar {' '.join(cli_argv(case))} exited with {code}")
        cli_path(case).write_text(out.getvalue(), encoding="utf-8", newline="")
        print(f"wrote {cli_path(case).relative_to(ROOT)}")
    for n in REGISTRY_SAMPLES:
        registry_path(n).write_text(registry_text(n), encoding="utf-8", newline="")
        print(f"wrote {registry_path(n).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
