"""In-memory span tracer that wraps capmdp's layer functions from outside.

Callers inside capmdp import names with ``from .x import y``, so a wrapper
must be bound where the name is looked up, not where it is defined: the
value-iteration span is installed as ``capmdp.bounds.value_iteration``, the
calculator spans as ``capmdp.harness.bound_*``, and the pursuit env spans on
the ``PredatorPreyEnv`` class itself. No file under ``src/`` changes.

A span is (name, start, end, parent); every span of one process shares the
process's run id. Spans live in flat arrays until ``write_spans`` dumps them
at the end. Self time is a span's duration minus its direct children's, and
work the tracer itself does at a boundary (hashing an MDP, counting its
non-zeros) sits in a ``trace.probe`` span so no layer is charged for it.
"""

import array
import functools
import gzip
import hashlib
import importlib
import statistics
import time

import numpy as np

# (span name, module where the name is looked up, attribute path there)
WRAPS = (
    ("cli.main", "capmdp.cli", "main"),
    ("harness.run_experiment", "capmdp.cli", "run_experiment"),
    ("harness.certify_instance", "capmdp.harness", "certify_instance"),
    ("harness.generate_linear_pair", "capmdp.harness", "generate_linear_pair"),
    ("harness.polynomial_deviation_report", "capmdp.harness", "polynomial_deviation_report"),
    ("harness.write_run_artifacts", "capmdp.harness", "write_run_artifacts"),
    ("bounds.bound_team_generalization", "capmdp.harness", "bound_team_generalization"),
    ("bounds.bound_policy_transfer", "capmdp.harness", "bound_policy_transfer"),
    ("bounds.bound_population_change", "capmdp.harness", "bound_population_change"),
    ("bounds.bound_capability_estimation", "capmdp.harness", "bound_capability_estimation"),
    ("bounds.bound_out_of_distribution", "capmdp.harness", "bound_out_of_distribution"),
    ("bounds.bound_approx_dynamics", "capmdp.harness", "bound_approx_dynamics"),
    ("bounds.bound_lipschitz", "capmdp.harness", "bound_lipschitz"),
    ("bounds.BoundReport.build", "capmdp.bounds", "BoundReport.build"),
    ("mdp.value_iteration", "capmdp.bounds", "value_iteration"),
    ("mdp.policy_evaluation", "capmdp.bounds", "policy_evaluation"),
    ("linear.assemble_linear_mmdp", "capmdp.bounds", "assemble_linear_mmdp"),
    ("linear.assemble_linear_mmdp", "capmdp.harness", "assemble_linear_mmdp"),
    ("linear.assemble_lipschitz_mmdp", "capmdp.harness", "assemble_lipschitz_mmdp"),
    ("linear.perturb_dynamics", "capmdp.harness", "perturb_dynamics"),
    ("linear.spec_to_json", "capmdp.linear", "LinearMMDPSpec.to_json"),
    ("envs.fruit_forage.build_fruit_forage", "capmdp.harness", "build_fruit_forage"),
    ("envs.predator_prey.reset", "capmdp.envs.predator_prey", "PredatorPreyEnv.reset"),
    ("envs.predator_prey.step", "capmdp.envs.predator_prey", "PredatorPreyEnv.step"),
    (
        "envs.predator_prey.available_actions",
        "capmdp.envs.predator_prey",
        "PredatorPreyEnv.available_actions",
    ),
    ("envs.predator_prey.obs_key", "capmdp.envs.predator_prey", "PPObservation.key"),
    ("qlearning.q_learning_train", "capmdp.harness", "q_learning_train"),
    ("qlearning.evaluate_policy_empirical", "capmdp.harness", "evaluate_policy_empirical"),
    ("qlearning.evaluate_policy_empirical", "capmdp.qlearning", "evaluate_policy_empirical"),
    ("qlearning.generalization_gap", "capmdp.harness", "generalization_gap"),
)

CALCULATORS = (
    "bound_team_generalization",
    "bound_policy_transfer",
    "bound_population_change",
    "bound_capability_estimation",
    "bound_out_of_distribution",
    "bound_approx_dynamics",
    "bound_lipschitz",
)

# Counts that must repeat exactly between two traced runs of one input.
EXACT_COUNTS = (
    "mdp.value_iteration.calls",
    "mdp.value_iteration.distinct",
    "linear.assemble_linear_mmdp.calls",
    "linear.spec_to_json.calls",
    "linear.spec_to_json.mb",
    "envs.predator_prey.step.calls",
    "envs.predator_prey.available_actions.calls",
    "envs.predator_prey.obs_key.calls",
    "qlearning.table_keys",
)

PROBE = "trace.probe"


def _backing_bytes(arr) -> int:
    """Bytes that actually back an array: axes broadcast with stride 0 are free."""
    arr = np.asarray(arr)
    size = arr.itemsize
    for extent, stride in zip(arr.shape, arr.strides):
        if stride != 0:
            size *= extent
    return size


def _mdp_digest(mmdp) -> str:
    digest = hashlib.sha1()
    for part in (mmdp.rewards, mmdp.transitions, mmdp.rho, mmdp.states.features):
        digest.update(memoryview(np.ascontiguousarray(part)).cast("B"))
    digest.update(repr((mmdp.gamma, mmdp.num_agents, mmdp.actions_per_agent)).encode())
    return digest.hexdigest()


class Tracer:
    """Records spans and boundary counters for one process (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counters = {
            "vi_digests": set(),
            "vi_transition_bytes": 0,
            "vi_nonzero": 0,
            "vi_entries": 0,
            "spec_json_bytes": 0,
            "table_keys": 0,
            "ff_states": 0,
            "ff_transition_bytes": 0,
        }
        self.missing: list = []
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, before=None, after=None):
        name_id = self._name_id(name)
        probe_id = self._name_id(PROBE)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                probe = tracer._open(probe_id)
                before(*args, **kwargs)
                tracer._close(probe)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                probe = tracer._open(probe_id)
                after(result)
                tracer._close(probe)
            return result

        return traced

    # ---- boundary counters -----------------------------------------------------

    def _before_value_iteration(self, mmdp, *args, **kwargs):
        c = self.counters
        c["vi_digests"].add(_mdp_digest(mmdp))
        trans = mmdp.transitions
        c["vi_transition_bytes"] += _backing_bytes(trans)
        c["vi_nonzero"] += int(np.count_nonzero(trans))
        c["vi_entries"] += int(trans.size)

    def _after_spec_to_json(self, text):
        self.counters["spec_json_bytes"] += len(text)

    def _after_q_learning_train(self, table):
        self.counters["table_keys"] += len(table.values)

    def _after_build_fruit_forage(self, spec):
        c = self.counters
        c["ff_states"] = max(c["ff_states"], spec.states.num_states)
        c["ff_transition_bytes"] = max(
            c["ff_transition_bytes"], _backing_bytes(spec.transition_kernel.components)
        )

    # ---- installation ----------------------------------------------------------

    def install(self):
        """Rebind every WRAPS target; a missing target is recorded, not fatal."""
        hooks = {
            "mdp.value_iteration": (self._before_value_iteration, None),
            "linear.spec_to_json": (None, self._after_spec_to_json),
            "qlearning.q_learning_train": (None, self._after_q_learning_train),
            "envs.fruit_forage.build_fruit_forage": (None, self._after_build_fruit_forage),
        }
        for name, module_name, path in WRAPS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            before, after = hooks.get(name, (None, None))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, before, after))
            else:
                wrapped = self._wrap(raw, name, before, after)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # ---- output ----------------------------------------------------------------

    def write_spans(self, path):
        """One CSV line per span: run_id,index,name,start,end,parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("run_id,index,name,start,end,parent\n")
            names = self.names
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.run_id},{i},{names[self.span_name[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n"
                )

    def metrics(self) -> dict:
        """Per-layer metrics computed from the recorded spans and counters."""
        n = len(self.span_name)
        names = self.names
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
        train_id = self._name_ids.get("qlearning.q_learning_train", -2)
        eval_id = self._name_ids.get("qlearning.evaluate_policy_empirical", -2)
        # nearest enclosing training or evaluation span; parents precede children
        context = [-1] * n
        for i in range(n):
            nid = self.span_name[i]
            if nid in (train_id, eval_id):
                context[i] = nid
            elif self.parent[i] >= 0:
                context[i] = context[self.parent[i]]

        calls: dict = {}
        total: dict = {}
        self_time: dict = {}
        durations: dict = {}
        steps_in_train = 0
        resets_in_eval = 0
        for i in range(n):
            name = names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration[i]
            self_time[name] = self_time.get(name, 0.0) + duration[i] - child_time[i]
            if name == "harness.certify_instance":
                durations.setdefault(name, []).append(duration[i])
            elif name == "envs.predator_prey.step" and context[i] == train_id:
                steps_in_train += 1
            elif name == "envs.predator_prey.reset" and context[i] == eval_id:
                resets_in_eval += 1

        def layer_self(prefix):
            return sum((v for k, v in self_time.items() if k.startswith(prefix)), 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        m = {}
        m["cli.main.s"] = total.get("cli.main", 0.0)
        m["cli.self_s"] = layer_self("cli.")
        vi_calls = calls.get("mdp.value_iteration", 0)
        m["mdp.value_iteration.calls"] = vi_calls
        m["mdp.value_iteration.distinct"] = len(c["vi_digests"])
        m["mdp.value_iteration.s"] = total.get("mdp.value_iteration", 0.0)
        m["mdp.value_iteration.useful_frac"] = ratio(len(c["vi_digests"]), vi_calls)
        m["mdp.value_iteration.transition_mb"] = ratio(c["vi_transition_bytes"], vi_calls) / 1e6
        m["mdp.transition_nnz_frac"] = ratio(c["vi_nonzero"], c["vi_entries"])
        m["mdp.policy_evaluation.calls"] = calls.get("mdp.policy_evaluation", 0)
        m["mdp.policy_evaluation.s"] = total.get("mdp.policy_evaluation", 0.0)
        for fn in ("assemble_linear_mmdp", "perturb_dynamics", "spec_to_json"):
            m[f"linear.{fn}.calls"] = calls.get(f"linear.{fn}", 0)
            m[f"linear.{fn}.s"] = total.get(f"linear.{fn}", 0.0)
        m["linear.spec_to_json.mb"] = c["spec_json_bytes"] / 1e6
        m["bounds.reports"] = calls.get("bounds.BoundReport.build", 0)
        m["bounds.self_s"] = layer_self("bounds.")
        for fn in CALCULATORS:
            m[f"bounds.{fn}.s"] = total.get(f"bounds.{fn}", 0.0)
        certify = durations.get("harness.certify_instance", [])
        m["harness.certify_instance.calls"] = len(certify)
        m["harness.certify_instance.p50_ms"] = 1e3 * statistics.median(certify) if certify else 0.0
        m["harness.certify_instance.p90_ms"] = (
            1e3 * statistics.quantiles(certify, n=10)[8] if len(certify) > 1 else 0.0
        )
        for fn in ("generate_linear_pair", "polynomial_deviation_report", "write_run_artifacts"):
            m[f"harness.{fn}.s"] = total.get(f"harness.{fn}", 0.0)
        m["harness.self_s"] = layer_self("harness.")
        m["envs.fruit_forage.build_fruit_forage.calls"] = calls.get(
            "envs.fruit_forage.build_fruit_forage", 0
        )
        m["envs.fruit_forage.build_fruit_forage.s"] = total.get(
            "envs.fruit_forage.build_fruit_forage", 0.0
        )
        m["envs.fruit_forage.states"] = c["ff_states"]
        m["envs.fruit_forage.transition_mb"] = c["ff_transition_bytes"] / 1e6
        steps = calls.get("envs.predator_prey.step", 0)
        m["envs.predator_prey.step.calls"] = steps
        m["envs.predator_prey.step.s"] = total.get("envs.predator_prey.step", 0.0)
        m["envs.predator_prey.step.self_s"] = self_time.get("envs.predator_prey.step", 0.0)
        avail = calls.get("envs.predator_prey.available_actions", 0)
        m["envs.predator_prey.available_actions.calls"] = avail
        m["envs.predator_prey.available_actions.s"] = total.get(
            "envs.predator_prey.available_actions", 0.0
        )
        m["envs.predator_prey.available_actions.per_step"] = ratio(avail, steps)
        for fn in ("reset", "obs_key"):
            m[f"envs.predator_prey.{fn}.calls"] = calls.get(f"envs.predator_prey.{fn}", 0)
            m[f"envs.predator_prey.{fn}.s"] = total.get(f"envs.predator_prey.{fn}", 0.0)
        m["qlearning.q_learning_train.s"] = total.get("qlearning.q_learning_train", 0.0)
        m["qlearning.q_learning_train.self_s"] = self_time.get("qlearning.q_learning_train", 0.0)
        m["qlearning.q_learning_train.steps"] = steps_in_train
        m["qlearning.evaluate_policy_empirical.s"] = total.get(
            "qlearning.evaluate_policy_empirical", 0.0
        )
        m["qlearning.evaluate_policy_empirical.episodes"] = resets_in_eval
        m["qlearning.generalization_gap.s"] = total.get("qlearning.generalization_gap", 0.0)
        m["qlearning.table_keys"] = c["table_keys"]
        return m
