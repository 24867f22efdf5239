"""listlbm benchmark command.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy, so the numbers belong to the tree
they were run in. Prints a line of run details, then as its last line
one JSON object with `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics, or with --trace 1 the per-layer metrics).
Scratch files go to .bench_work/ in the checkout and are removed at the
end; a traced run leaves its spans in .bench_work/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_paths() -> None:
    src = ROOT / "src"
    if not (src / "listlbm" / "__init__.py").is_file():
        sys.exit(f"error: no listlbm sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    _import_paths()
    import workloads

    parser = argparse.ArgumentParser(description="listlbm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = result.pop("details")
    spans = details.pop("spans", None)
    if spans is not None:
        traces = ROOT / ".bench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans.dump(traces / details["trace_file"], {"details": details, "metrics": result["metrics"]})
    result["metrics"] = {
        k: {"value": float(v), "unit": unit} for k, (v, unit) in result["metrics"].items()
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
