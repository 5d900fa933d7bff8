"""The smcsat benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload grid-bn --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The inputs are generated from the seed by
``perfbench/gen.py`` in a child process and cached under ``.bench_data/``;
smcsat then receives only those files. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run. The exit code is nonzero when any
answer is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-bn", "supply-sweep", "hampath")


def data_dir(workload: str, seed: int) -> Path:
    """Generated inputs for one workload and seed, rebuilt when gen.py changes."""
    digest = hashlib.sha256((HERE / "gen.py").read_bytes()).hexdigest()[:12]
    out = ROOT / ".bench_data" / f"{workload}-{seed}-{digest}"
    if not (out / "suite.json").exists():
        tmp = out.with_name(out.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(tmp)],
            check=True,
        )
        tmp.rename(out)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="smcsat benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "smcsat").is_dir():
        print(f"error: no smcsat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    data = data_dir(args.workload, args.seed)
    trace_out = data / "spans.jsonl" if args.trace else None
    metrics, total = measure.run(data, args.seconds, bool(args.trace), trace_out)
    for error in total.errors[:20]:
        print(f"# FAILED {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": total.failed == 0,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
