"""capmdp benchmark: three CLI workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload certify-random --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory, so nothing needs installing. Each measured run is one
``capmdp.cli.main`` call in a fresh process (``child.py``), back to back with
one client, ``--jobs 1`` and BLAS capped at ``nproc`` threads. With
``--trace 0`` runs repeat until ``--seconds`` would be exceeded and the
end-to-end metrics are medians over them; a few set-up-only processes add
samples to ``setup_s``. With ``--trace 1`` one input runs once untraced and
twice traced: the traced pair must agree on every exact count, and their
per-layer metrics are reported. Every output is checked against references
recorded in ``refs/``; a failed check counts as a failed run and makes the
command exit 1. The last stdout line is the JSON result; the full record
(environment, every run) is written to ``.bench_runs/``.
"""

import argparse
import hashlib
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

from tracer import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS, CheckError, check_output, load_reference  # noqa: E402

SETUP_PROBES = 5
# a whole invocation must end within 180 s; stop a run that would pass this
DEADLINE_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        value = env.get(var, "")
        wanted = int(value) if value.isdigit() and int(value) > 0 else nproc
        env[var] = str(min(wanted, nproc))
    return env


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    """Spawns child runs for one workload and checks their outputs."""

    def __init__(self, workload, seed: int, workdir: Path, env: dict):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.reference = load_reference(workload.name)
        self.count = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, input_seed: int, trace_id=None, setup_only=False) -> dict:
        label = f"run{self.count:03d}"
        self.count += 1
        out = self.workdir / label
        result_path = self.workdir / f"{label}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload.name,
            "--input-seed", str(input_seed),
            "--out", str(out),
            "--result", str(result_path),
        ]
        if trace_id:
            cmd += ["--trace", trace_id]
        if setup_only:
            cmd.append("--setup-only")
        record = {"label": label, "input_seed": input_seed, "traced": bool(trace_id)}
        spawned_at = time.monotonic()
        timeout = max(self.deadline - spawned_at, 1.0)
        try:
            done = subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)],
                capture_output=True, text=True, timeout=timeout, env=self.env, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            record.update(ok=False, error=f"killed after {timeout:.0f} s at the {DEADLINE_S} s deadline")
            return record
        finally:
            record["elapsed_s"] = time.monotonic() - spawned_at
        if done.returncode != 0 or not result_path.is_file():
            tail = (done.stderr or done.stdout).strip().splitlines()[-5:]
            record.update(ok=False, error=f"process exited {done.returncode}: {' | '.join(tail)}")
            return record
        record.update(json.loads(result_path.read_text()))
        if setup_only:
            record["ok"] = True
            return record
        record.update(self._check(record, input_seed, out))
        shutil.rmtree(out / "runs", ignore_errors=True)
        return record

    def _check(self, record: dict, input_seed: int, out: Path) -> dict:
        if record["exit_code"] != 0:
            return {"ok": False, "error": f"capmdp exited {record['exit_code']}"}
        try:
            summary = check_output(self.workload, input_seed, out / "runs", self.reference)
        except (CheckError, OSError, KeyError, ValueError) as exc:
            return {"ok": False, "error": f"output check failed: {exc}"}
        if self.workload.work_unit == "env_steps":
            doc = json.loads((out / "config.json").read_text())
            work = self.workload.expected_env_steps(doc)
        else:
            work = summary["num_rows"]
        return {"ok": True, "work": work, "determinism_hash": summary["determinism_hash"]}


def _median(values):
    return statistics.median(values) if values else 0.0


def run_timed(runner: Runner, seconds: float) -> tuple:
    """Runs back to back until the next one would overrun ``seconds``."""
    workload = runner.workload
    inputs = workload.input_seeds(runner.seed, 1000)
    records = []
    start = time.monotonic()
    while True:
        records.append(runner.spawn(inputs[len(records)]))
        elapsed = time.monotonic() - start
        typical = _median([r["elapsed_s"] for r in records])
        if elapsed + typical > seconds:
            break
    measured_s = time.monotonic() - start
    probes = [runner.spawn(inputs[0], setup_only=True) for _ in range(SETUP_PROBES)]
    timed = [r for r in records if "wall_s" in r]
    good = [r for r in records if r["ok"]]
    metrics = {
        "setup_s": _median([r["setup_s"] for r in records + probes if "setup_s" in r]),
        "wall_s": _median([r["wall_s"] for r in timed]),
        "cpu_s": _median([r["cpu_s"] for r in timed]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
        "throughput_per_s": (
            sum(r["work"] for r in good) / sum(r["wall_s"] for r in good) if good else 0.0
        ),
    }
    return records, probes, metrics, measured_s


def run_traced(runner: Runner) -> tuple:
    """One input untraced, then twice traced; exact counts must repeat."""
    input_seed = runner.workload.input_seeds(runner.seed, 1)[0]
    base = f"{runner.workload.name}-seed{runner.seed}"
    start = time.monotonic()
    records = [
        runner.spawn(input_seed),
        runner.spawn(input_seed, trace_id=f"{base}-a"),
        runner.spawn(input_seed, trace_id=f"{base}-b"),
    ]
    measured_s = time.monotonic() - start
    probes = [runner.spawn(input_seed, setup_only=True)]
    untraced, first, second = records
    if not all(r["ok"] for r in records):
        return records, probes, {}, measured_s
    for key in EXACT_COUNTS:
        if first["layers"][key] != second["layers"][key]:
            second.update(
                ok=False,
                error=f"count {key} did not repeat: {first['layers'][key]} then "
                f"{second['layers'][key]}",
            )
    if runner.workload.work_unit == "env_steps":
        steps = first["layers"]["envs.predator_prey.step.calls"]
        if steps != first["work"]:
            first.update(ok=False, error=f"traced {steps} env steps, expected {first['work']}")
    layers = {}
    for key, a in first["layers"].items():
        b = second["layers"][key]
        layers[key] = a if a == b else (a + b) / 2
    traced_wall = (first["wall_s"] + second["wall_s"]) / 2
    layers["trace.overhead_frac"] = traced_wall / untraced["wall_s"] - 1.0
    return records, probes, layers, measured_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "capmdp" / "cli.py").is_file():
        print(f"error: no capmdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    runner = Runner(workload, args.seed, workdir, _child_env(nproc))

    if args.trace:
        records, probes, metrics, measured_s = run_traced(runner)
    else:
        records, probes, metrics, measured_s = run_timed(runner, args.seconds)

    failed = sum(not r["ok"] for r in records)
    for r in records + probes:
        if not r["ok"]:
            print(f"FAILED {r['label']} (input seed {r['input_seed']}): {r['error']}", file=sys.stderr)
    if not all(p["ok"] for p in probes):
        print("error: set-up failed; no result", file=sys.stderr)
        return 2
    if not metrics:
        metrics = {m["name"]: 0.0 for m in declared}

    env_record = {
        "nproc": nproc,
        "python": sys.version.split()[0],
        **probes[0]["env"],
        "blas_thread_cap": runner.env["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "runs": len(records),
        "config": workload.config_doc(records[0]["input_seed"]),
        "input_seeds": [r["input_seed"] for r in records],
    }
    missing = sorted({m for r in records for m in r.get("missing_wraps", [])})
    if missing:
        print(f"WARNING: trace targets not found, their metrics read 0: {missing}", file=sys.stderr)

    if set(metrics) != {m["name"] for m in declared}:
        print("error: computed metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"env: {json.dumps(env_record)}")
    print(f"failed_frac = {failed / len(records):.6g} ({failed}/{len(records)} runs)")
    if not args.trace:
        named = "env_steps_per_s" if workload.work_unit == "env_steps" else "reports_per_s"
        print(f"{named} = {metrics['throughput_per_s']:.6g} 1/s")
    for name, entry in out_metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    (workdir / "result.json").write_text(
        json.dumps({"env": env_record, "metrics": out_metrics, "runs": records, "probes": probes}, indent=1)
    )
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": out_metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
