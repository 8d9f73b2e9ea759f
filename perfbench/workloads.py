"""Workload definitions: generated configs, work counts and output checks.

Every workload draws its inputs from a fixed pool of config seeds whose
outputs were recorded once (``record_refs.py``) at the commit that defined
the benchmark. A benchmark ``--seed`` picks an order over that pool, so the
same seed always gives the same inputs and every output has a reference.
Stdlib only: every measured process imports it during its set-up.
"""

import csv
import gzip
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

# 1e-8 sits above the value-iteration error bar gamma*tol/(1-gamma) = 9e-9
# at tol 1e-9 and gamma 0.9, so a solver that stops at a different sweep
# still matches while any real change to a bound or a value does not.
NUMERIC_ATOL = 1e-8

# columns that identify a row or vary run to run; every other column is compared
_NOT_COMPARED = {"experiment", "seed", "config_hash", "wall_time", "instance", "bound_name", "satisfied"}

_PP_EVAL_TASKS = 10  # unseen_team: 4 train + 4 test tasks + the 2-task gap pairing


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # capmdp subcommand
    pool: tuple  # config seeds with recorded reference outputs
    overrides: dict  # config fields beyond kind and seed
    work_unit: str  # "reports" or "env_steps": what throughput_per_s counts

    def input_seeds(self, seed: int, count: int) -> list:
        """The pool seeds run number 0..count-1 of benchmark seed ``seed`` uses."""
        order = list(self.pool)
        random.Random(seed).shuffle(order)
        return [order[k % len(order)] for k in range(count)]

    def config_doc(self, input_seed: int) -> dict:
        doc = {"kind": self.kind, "seed": int(input_seed)}
        doc.update(json.loads(json.dumps(self.overrides)))
        return doc

    def expected_env_steps(self, doc: dict) -> int:
        """Training plus evaluation steps of one pursuit run (episodes never end early)."""
        pp = {"total_steps": 200_000, "eval_episodes": 10, "episode_limit": 100, "mode": "both"}
        pp.update(doc.get("predator_prey", {}))
        modes = 2 if pp["mode"] == "both" else 1
        evaluation = _PP_EVAL_TASKS * pp["eval_episodes"] * pp["episode_limit"]
        return modes * (pp["total_steps"] + evaluation)


# Instance cost grows with d*|S|^2*|A| and ranges over three orders of
# magnitude, so 50-instance configs differ by +-22% in total size. The pool
# keeps the first 12 config seeds (of 0..199) whose totals of d*|S|^2*|A| and
# |S|^2*|A| both lie within 5% of their medians (record_refs.select_pool), so
# runs with different seeds compare like with like.
CERTIFY_POOL = (14, 26, 37, 38, 41, 43, 45, 59, 86, 103, 116, 117)

WORKLOADS = {
    "certify-random": Workload(
        "certify-random", "verify-bounds", CERTIFY_POOL, {"num_instances": 50}, "reports"
    ),
    "forage-exact": Workload("forage-exact", "fruit-forage", (0,), {}, "reports"),
    "pursuit-learn": Workload(
        "pursuit-learn",
        "predator-prey",
        tuple(range(12)),
        {
            "predator_prey": {
                "suite": "unseen_team",
                "mode": "both",
                "grid_size": 8,
                "total_steps": 10_000,
                "epsilon_decay_steps": 2_500,
                "eval_episodes": 1,
            }
        },
        "env_steps",
    ),
}


def find_run_dir(out_root: Path) -> Path:
    summaries = sorted(Path(out_root).glob("*/*/summary.json"))
    if len(summaries) != 1:
        raise CheckError(f"expected one run directory under {out_root}, found {len(summaries)}")
    return summaries[0].parent


class CheckError(Exception):
    """An output that differs from its recorded reference."""


def read_rows(run_dir: Path) -> list:
    """Result rows reduced to (instance, bound_name, satisfied, {column: float})."""
    rows = []
    with open(run_dir / "results.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            values = {
                k: float(v) for k, v in row.items() if k not in _NOT_COMPARED and v != ""
            }
            rows.append([int(row["instance"]), row["bound_name"], row["satisfied"] == "True", values])
    return rows


def load_reference(name: str) -> dict:
    with gzip.open(REFS / f"{name}.json.gz", "rt") as handle:
        return json.load(handle)


def _compare_rows(rows: list, expected: list):
    if len(rows) != len(expected):
        raise CheckError(f"{len(rows)} rows, reference has {len(expected)}")
    for row, ref in zip(rows, expected):
        if row[:2] != ref[:2]:
            raise CheckError(f"row key {row[:2]} differs from reference {ref[:2]}")
        if row[2] != ref[2]:
            raise CheckError(f"row {row[:2]} satisfied={row[2]}, reference {ref[2]}")
        if set(row[3]) != set(ref[3]):
            raise CheckError(f"row {row[:2]} columns differ from the reference")
        for col, value in row[3].items():
            if not abs(value - ref[3][col]) <= NUMERIC_ATOL:
                raise CheckError(
                    f"row {row[:2]} column {col}: {value!r} vs reference {ref[3][col]!r}"
                )


def check_output(workload: Workload, input_seed: int, out_root: Path, reference: dict) -> dict:
    """Compare one run's artifacts with the reference; returns its summary.json."""
    run_dir = find_run_dir(out_root)
    summary = json.loads((run_dir / "summary.json").read_text())
    if summary["num_violations"] != 0:
        raise CheckError(f"{summary['num_violations']} bound violations")
    entry = reference["entries"].get(str(input_seed))
    if entry is None:
        raise CheckError(f"no reference for input seed {input_seed}")
    if workload.work_unit == "env_steps":
        if summary["determinism_hash"] != entry["determinism_hash"]:
            raise CheckError(
                f"determinism_hash {summary['determinism_hash']} differs from reference "
                f"{entry['determinism_hash']}"
            )
    else:
        _compare_rows(read_rows(run_dir), entry["rows"])
    return summary
