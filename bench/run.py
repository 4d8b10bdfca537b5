"""flexmarket benchmark: one workload per call, metrics as one JSON line.

    python3 bench/run.py --workload day3 --seed 1 --seconds 50 --trace 0

Run from the repository root. With `--trace 0` the last line carries the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
a separate traced run. The metric names and units and the default run
length are read from `BENCHMARK.json`, which also holds the bounds;
`bench/README.md` explains them.

Steps, in order:
  1. the workload's scenario file is generated (not timed)
  2. untraced runs only: set-up timed in fresh interpreters, from
     `import flexmarket` to a validated Scenario; one warm-up, then
     SETUP_BLOCK timed, with the host-speed loop before and after each
  3. the workload in one fresh process with BLAS threads pinned to one
     (`bench/worker.py`): a fixed number of rounds plus their checks
  4. untraced runs only: SETUP_BLOCK more set-up times; the median of
     the two blocks, each time scaled to the reference host speed, is
     reported as setup_s

Every reported time is scaled to the reference host speed by the
host-speed loop (`tracing.speed_ms`, a fixed pure-Python loop that calls
no program code) timed around it; the `host_speed` line prints the
loop's times, and the `run` line the raw times beside the scaled ones.

`--seconds` is recorded only: a call measures the worker's fixed number
of rounds, so that its counts and statistics do not depend on speed.

Exit code 0 with the result as the last line of standard output; any
other code, with no result printed, when the program or its inputs are
missing or the workload fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads                                                  # noqa: E402
from tracing import REFERENCE_SPEED_MS, speed_ms, speed_scales  # noqa: E402

SETUP_BLOCK = 6
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import flexmarket\n"
    "flexmarket.load_scenario(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def time_setup(scenario: Path, env: dict, deadline: float,
               warm_up: bool) -> tuple:
    """Raw and scaled set-up times of SETUP_BLOCK fresh interpreters, and
    the host-speed loop times taken around them."""
    if warm_up:
        _setup_once(scenario, env, deadline)
    loops, times = [speed_ms()], []
    for _ in range(SETUP_BLOCK):
        times.append(_setup_once(scenario, env, deadline))
        loops.append(speed_ms())
    scaled = [t * f for t, f in zip(times, speed_scales(loops))]
    return times, scaled, loops


def _setup_once(scenario: Path, env: dict, deadline: float) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario)],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    if out.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{out.stderr[-2000:]}")
    return float(out.stdout.strip().splitlines()[-1])


def fail(message: str, code: int = 1) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="flexmarket benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: every workload's inputs are fixed")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="recorded only: a call makes a fixed number of rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "flexmarket" / "__init__.py").is_file():
        return fail("the program's sources (src/flexmarket) are missing", 2)
    if not workloads.DAY3.is_file():
        return fail(f"the bundled scenario {workloads.DAY3.relative_to(ROOT)} is missing", 2)

    out_dir = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    scenario = workloads.scenario_path(args.workload, out_dir)
    env = child_env()

    setup_raw, setup, setup_loops = [], [], []
    try:
        if not args.trace:
            setup_raw, setup, setup_loops = time_setup(scenario, env, deadline,
                                                       warm_up=True)
        result_path = out_dir / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--scenario", str(scenario), "--out", str(out_dir),
             "--trace", str(args.trace), "--result", str(result_path)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            return fail(f"workload {args.workload} failed:\n{proc.stderr[-3000:]}")
        if not args.trace:
            raw, scaled, loops = time_setup(scenario, env, deadline, warm_up=False)
            setup_raw, setup, setup_loops = (setup_raw + raw, setup + scaled,
                                             setup_loops + loops)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    res = json.loads(result_path.read_text())

    if args.trace:
        values = res["per_layer"]
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = dict(res["end_to_end"], setup_s=statistics.median(setup))
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = [k for k in names if values.get(k) is None]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in names.items()}

    loops = setup_loops + [x for r in res["samples"]["speed_ms"] for x in r]
    print("host_speed " + json.dumps({
        "reference_ms": REFERENCE_SPEED_MS, "loops": len(loops),
        "min_ms": min(loops), "median_ms": statistics.median(loops),
        "max_ms": max(loops)}))
    print("run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "rounds": res["rounds"], "solves_per_round": res["solves_per_round"],
        "tail_percentile": res["tail_percentile"],
        "round_run_raw_s": res["samples"]["run_s"],
        "round_run_scaled_s": res["samples"]["run_scaled_s"],
        "excluded_in_round_s": res["excluded_in_round_s"],
        "accounted_pct": res.get("accounted_pct"),
        "setup_raw_s": setup_raw, "setup_scaled_s": setup,
        "counters": res["counters"],
        "trace_sha256": res["digest"]}))
    for key, reasons in res["failures"].items():
        print(f"failed {key}: {'; '.join(reasons)}")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
