"""protcoord benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: it benchmarks the protcoord found in
./src and nothing else. Workloads: bundled_study, feeder_sweep,
cli_process (see worker.py and README.md).

--trace 0 gives the end-to-end metrics. The workload runs in a fresh
worker process. Set-up is repeated in SETUPS fresh processes in all,
half before the measuring worker and half after it. Each follows a bare
interpreter start as its control, and setup_s is the median set-up/control
ratio times the control's reference time (see worker.py). --trace 1 gives
the per-layer metrics from one traced worker process.

Every process runs with BLAS pinned to one thread. The environment record
is printed and written, with the result, to perfbench/out/. The last line
of stdout is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("bundled_study", "feeder_sweep", "cli_process")
SETUPS = 5
WORKER_TIMEOUT_S = 150
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
INTERPRETER_REF_S = 0.057  # `python -c pass` on the reference machine


def interpreter_start(env: dict | None = None) -> float:
    """Wall time of a bare `python -c pass` process: the control for
    set-up and for cli_process ops."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env,
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def worker_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def launch(args, extra: list[str]) -> dict:
    """One worker process; returns the JSON object on its last line."""
    launched_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--launched-at", repr(launched_at), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_setups(args, n: int) -> list[tuple[float, float]]:
    """(set-up s, control s) of n fresh set-up-only workers."""
    out = []
    for _ in range(n):
        control_s = interpreter_start(worker_env())
        out.append((launch(args, ["--setup-only"])["setup_s"], control_s))
    return out


def getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_identity() -> dict:
    """Commit hash when the checkout is a git repository, and a hash of
    src/ either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def environment(worker_env_info: dict) -> dict:
    return {
        "python": platform.python_version(),
        **worker_env_info,
        "blas_threads_pinned": BLAS_PIN,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": {level: getconf(f"LEVEL{level}_CACHE_SIZE")
                        for level in ("1_D", "2", "3")},
        "machine": platform.machine(),
        **source_identity(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "protcoord" / "__init__.py").is_file():
        print(f"error: no src/protcoord under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2

    setups = timed_setups(args, SETUPS // 2) if not args.trace else []
    control_s = interpreter_start(worker_env())
    result = launch(args, [])
    metrics = result["metrics"]
    if not args.trace:
        setups.append((metrics["setup_s"][0], control_s))
        setups += timed_setups(args, SETUPS - len(setups))
        metrics["setup_s"] = (statistics.median(
            s / c for s, c in setups) * INTERPRETER_REF_S, "s")
    env = environment(result["env"])
    info = dict(result["info"], first_error=result["first_error"],
                selfcheck_corrupted_counted=result[
                    "selfcheck_corrupted_counted"],
                wall_setup_s_each=[s for s, _ in setups],
                wall_setup_control_s_each=[c for _, c in setups])
    summary = {
        "correct": result["failed"] == 0
        and result["selfcheck_corrupted_counted"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "info": info, "result": summary}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({"info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
