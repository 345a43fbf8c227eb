"""Record the golden output that the paper-check workload compares against.

    python3 bench/record_golden.py

Runs `cardstar verify` (seeds 0 and 1) and `cardstar constants` in-process at
the sample counts of the paper-check workload (512, and 256 for the
self-test), and writes bench/golden/paper_check_<samples>.json.  Each output line of an operation
carries the tolerance its numbers are compared with: the registry row's
`published_tol` for rows of the constants registry, 5e-5 otherwise.  Lines
whose numbers change with the seed (the random coefficient suite) are marked
`varies`; only their text is compared.  Rerun this only when the output of
the package is meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cardstar  # noqa: E402
import cardstar.cli  # noqa: E402,F401  (not imported by the package itself)

import workloads  # noqa: E402

SEEDS = (0, 1)


def _line(text: str, tol: float, varies: bool = False) -> dict:
    return {"text": text, "tol": tol, "varies": varies}


def _split(run: workloads.CommandRun, head_n: int) -> tuple[list, list, list]:
    lines = run.stdout.splitlines()
    body_n = sum(n for _, _, n in run.ops)
    return lines[:head_n], lines[head_n:head_n + body_n], lines[head_n + body_n:]


def record(samples: int) -> dict:
    tols = {e.key: e.published_tol for e in cardstar.radii.constants_registry()}
    out = {"samples": samples, "seeds": list(SEEDS)}

    runs = [workloads.run_command(cardstar, "verify", samples, seed) for seed in SEEDS]
    for run in runs:
        if run.error:
            raise SystemExit(f"verify failed while recording: {run.error}")
    splits = [_split(run, 0) for run in runs]
    body, other = splits[0][1], [s[1] for s in splits[1:]]
    ops, at = [], 0
    for label, _, n in runs[0].ops:
        tol = tols.get(label, workloads.LINE_TOL)
        lines = [_line(body[i], tol, any(o[i] != body[i] for o in other))
                 for i in range(at, at + n)]
        ops.append({"label": label, "lines": lines})
        at += n
    out["verify"] = {
        "exit_code": runs[0].exit_code,
        "head": [],
        "ops": ops,
        "tail": [_line(t, workloads.LINE_TOL) for t in splits[0][2]],
    }

    run = workloads.run_command(cardstar, "constants", samples, SEEDS[0])
    if run.error:
        raise SystemExit(f"constants failed while recording: {run.error}")
    head, body, tail = _split(run, 1)
    out["constants"] = {
        "exit_code": run.exit_code,
        "head": [_line(t, workloads.LINE_TOL) for t in head],
        "ops": [{"label": label, "lines": [_line(line, tols[label])]}
                for (label, _, _), line in zip(run.ops, body)],
        "tail": [_line(t, workloads.LINE_TOL) for t in tail],
    }
    return out


def main() -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for samples in workloads.PAPER_CHECK_SAMPLES.values():
        golden = record(samples)
        path = workloads.golden_path(samples)
        path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
        n_ops = len(golden["verify"]["ops"]) + len(golden["constants"]["ops"])
        print(f"wrote {path.relative_to(ROOT)}: {n_ops} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
