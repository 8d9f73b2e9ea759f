"""One measured run in a fresh process: set up, call capmdp.cli.main once.

    python3 perfbench/child.py --workload W --input-seed N --out DIR
        --result FILE --spawned-at T [--trace RUN_ID] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is system-wide, so ``setup_s`` covers the
interpreter start, ``import capmdp`` and writing the generated config. The
result file holds setup_s, wall_s and cpu_s of the ``cli.main`` call, the
process's peak RSS and, with ``--trace``, the per-layer metrics.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _describe_numpy() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {"numpy": numpy.__version__, "blas": blas, "blas_threads": threads}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", default=None, help="run id; record spans when given")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import capmdp.cli

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(workload.config_doc(args.input_seed)))
    setup_s = time.monotonic() - args.spawned_at

    result = {"setup_s": setup_s}
    if args.setup_only:
        result["env"] = _describe_numpy()
    else:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(args.trace)
            tracer.install()
        argv = [workload.kind, "--config", str(config_path), "--out", str(out / "runs")]
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        exit_code = capmdp.cli.main(argv)
        wall_s = time.perf_counter() - wall0
        cpu_s = _cpu_seconds() - cpu0
        result.update(
            exit_code=exit_code,
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        )
        if tracer is not None:
            tracer.uninstall()
            layers = tracer.metrics()
            files = [p for p in (out / "runs").rglob("*") if p.is_file()]
            layers["harness.artifact_mb"] = sum(p.stat().st_size for p in files) / 1e6
            violations = sum(
                json.loads(p.read_text())["num_violations"] for p in files if p.name == "summary.json"
            )
            payloads = layers["linear.spec_to_json.calls"]
            layers["harness.payload_used_frac"] = violations / payloads if payloads else 0.0
            result["layers"] = layers
            result["missing_wraps"] = tracer.missing
            result["spans"] = len(tracer.span_name)
            tracer.write_spans(out / "spans.csv.gz")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
