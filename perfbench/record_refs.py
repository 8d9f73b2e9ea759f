"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_refs.py [WORKLOAD ...]

Runs each pool input of each workload once through ``capmdp.cli.main`` and
writes ``refs/<workload>.json.gz``: per input seed the run's
``determinism_hash`` and, for the bound-report workloads, every row's key,
``satisfied`` flag and numeric columns. The committed references were
recorded at the commit that introduced the benchmark; re-record only in a
change that means to alter the program's results, and say so.
"""

import gzip
import json
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import capmdp.cli  # noqa: E402
from workloads import REFS, WORKLOADS, find_run_dir, read_rows  # noqa: E402


def select_pool(count=12, candidates=200, tolerance=0.05) -> tuple:
    """certify-random config seeds whose instance-size totals sit near the median."""
    import numpy as np

    from capmdp.harness import GeneratorRanges, generate_linear_pair

    ranges = GeneratorRanges()
    num_instances = WORKLOADS["certify-random"].overrides["num_instances"]
    totals = []
    for seed in range(candidates):
        dense = square = 0
        for index in range(num_instances):
            spec, _ = generate_linear_pair(ranges, np.random.default_rng([seed, index]))
            size = spec.states.num_states**2 * spec.actions_per_agent**spec.num_agents
            dense += spec.capability_dim * size
            square += size
        totals.append((seed, dense, square))
    mid_dense = statistics.median(t[1] for t in totals)
    mid_square = statistics.median(t[2] for t in totals)
    chosen = [
        seed
        for seed, dense, square in totals
        if abs(dense / mid_dense - 1) < tolerance and abs(square / mid_square - 1) < tolerance
    ]
    return tuple(chosen[:count])


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    entries = {}
    for input_seed in workload.pool:
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(workload.config_doc(input_seed)))
            code = capmdp.cli.main([workload.kind, "--config", str(config), "--out", tmp])
            if code != 0:
                raise SystemExit(f"{name} input seed {input_seed}: capmdp exited {code}")
            run_dir = find_run_dir(tmp)
            summary = json.loads((run_dir / "summary.json").read_text())
            entry = {"determinism_hash": summary["determinism_hash"]}
            if workload.work_unit == "reports":
                entry["rows"] = read_rows(run_dir)
            entries[str(input_seed)] = entry
    return {"workload": name, "config": workload.config_doc(workload.pool[0]), "entries": entries}


def main(names) -> int:
    if select_pool() != WORKLOADS["certify-random"].pool:
        raise SystemExit("certify-random pool differs from select_pool(); update CERTIFY_POOL")
    REFS.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        doc = record(name)
        text = json.dumps(doc, separators=(",", ":"))
        with open(REFS / f"{name}.json.gz", "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(text.encode())
        print(f"recorded {len(doc['entries'])} reference(s) for {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
