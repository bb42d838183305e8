"""perfbench: a layered training-step benchmark of the BPPSA engines.

Usage, from the repository root::

    python3 perfbench/run.py --workload rnn_bitstream --seed 1 --seconds 30 --trace 0

Runs one workload of ``BENCHMARK.json`` as a closed loop (one trainer,
the next step starts when the previous one ends) in a fresh process,
with ``src`` on the path, BLAS pinned to one thread and the serial scan
executor.  Prints every metric by name with its unit, the environment
the numbers come from, and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``setup_s`` is the median over this run's own set-up
and ``SETUP_PROBES`` more, each in a fresh process.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Extra cold set-ups, each in its own process, for the setup_s median.
SETUP_PROBES = 4

#: BLAS threads of every measured process (at most nproc).
BLAS_THREADS = "1"

#: Every process this run starts must end within this many seconds.
TIME_LIMIT_S = 170.0

#: Largest |self-time sum / traced step - 1| a traced step may show.
SELF_SUM_TOLERANCE = 0.05


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_child(args: list, deadline: float) -> dict:
    """Run ``measure.py`` with ``args``; its last stdout line is the result."""
    cmd = [sys.executable, str(HERE / "measure.py"), *args]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within {TIME_LIMIT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scan_env = sorted(k for k in os.environ if k.startswith("REPRO_SCAN_"))
    if scan_env:
        fail(f"refusing to run with {', '.join(scan_env)} set: the default "
             "scan configuration is what is measured")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no repro source tree under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    result = run_child(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    attempted, failed = result["attempted"], result["failed"]
    problems = list(result["failures"])
    if result["grad_checks"] < 2:
        problems.append(f"only {result['grad_checks']} taped-BP checks ran")

    if args.trace:
        for i, ratio in enumerate(result["self_sum_ratios"]):
            if abs(ratio - 1.0) > SELF_SUM_TOLERANCE:
                problems.append(f"traced step {i}: span self times sum to {ratio:.3f} of it")
        values = result["layers"]
        wanted = spec["per_layer"]
        notes = {}
    else:
        setups = [result["setup_s"]]
        for _ in range(SETUP_PROBES):
            probe = run_child([*common, "--setup-only"], deadline)
            setups.append(probe["setup_s"])
            attempted += 1
            failed += probe["failed"]
        tail = result["step_ms_tail"]
        values = {
            "step_ms_p50": result["step_ms_p50"],
            "step_ms_tail": tail["value"],
            "samples_per_s": result["samples_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        notes = {
            "step_ms_p50": f"median of {tail['samples']} timed steps",
            "step_ms_tail": f"p{tail['percentile']:.4g}, {tail['beyond']} of "
            f"{tail['samples']} steps beyond it",
            "setup_s": f"median of {len(setups)} cold set-ups",
        }

    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode}, {args.seconds:g} s "
          "closed loop, one trainer")
    print("environment " + json.dumps(result["env"], sort_keys=True))
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<30} {value:>16.6g} {m['unit']:<14} {note}")
    print(f"steps attempted {attempted}, failed {failed}; "
          f"taped-BP checks {result['grad_checks']}")
    for problem in problems[:10]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
