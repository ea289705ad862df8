"""One command for the reach_u request-mix benchmark.

    python3 perfbench/run.py --workload churn-relational --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each run replays a fixed,
seed-generated script (``--seconds`` is recorded, never used to cut a run
short), checks every answer against the benchmark's own oracles, and
prints a stamp line, then as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A full
result file (and, traced, the span file) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("churn-relational", "churn-dense", "read-mix")


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without running git; "unknown"
    in an exported tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    # a terminated run still unwinds, so the server process it started is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import churn
    import readmix
    from measure import END_TO_END, PER_LAYER, overhead_shares

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.workload == "read-mix":
            outcome = readmix.run(args.seed, workdir, bool(args.trace), ROOT)
        else:
            backend = args.workload.split("-", 1)[1]
            outcome = churn.run(backend, args.seed, workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = outcome["problems"]
    if args.trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(outcome["layers"])
        metrics.update(overhead_shares(outcome["untraced_latencies"], outcome["traced_latencies"]))
        units = PER_LAYER
    else:
        metrics = outcome["end_to_end"]
        units = END_TO_END
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "n": outcome["n"],
        "script_digest": outcome["digest"],
        "requests_by_kind": outcome["counts"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "exact": outcome["exact"],
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"stamp": stamp, "problems": problems, "metrics": metrics}
    if not args.trace:
        # the timings before scaling to the reference host, with the probe times
        result["unscaled"] = outcome["unscaled"]
    (out / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        (out / f"{tag}-spans.json").write_text(json.dumps(
            {"stamp": stamp, "spans": outcome["spans"]}, separators=(",", ":")) + "\n")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
