"""Experiment runner: random certification sweeps, environments, archives.

Experiments are described by a small JSON config. Each config field is
declared once, with its name, type and default, on the dataclass that owns
it: ExperimentConfig, GeneratorRanges, and for the fruit_forage and
predator_prey sections desk_config, PredatorPreyConfig and TrainSchedule.
One field-driven parse (_parse) reads every part of a config by those types
and rejects unknown names and mistyped values (a boolean for a number, a
string for a list) with ConfigError; to_doc writes the fields back. A run is
deterministic from its master seed (each instance derives its own generator,
so its rows do not depend on which instances ran before it) and is written
atomically under <out>/<name>/<config-hash>/ as results.csv (or .json),
config.json, summary.json, and violations.json when any bound report comes
back unsatisfied. A determinism hash over all rows except the wall_time column
lets re-runs be compared byte-for-byte. Each kind of bound check is defined
once, in CHECKS, and shared by the runners and by violation replay. Both run
checks through Solver.run (see capmdp.bounds) on a Solver that holds the
run's solve tolerance, so rows and archive entries keep their order and
their bits.
"""

import csv
import functools
import io
import json
import math
import os
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

try:
    import resource
except ImportError:  # Windows has no resource module
    resource = None

from ._digests import sha256
from .bounds import (
    BoundReport,
    Solver,
    bound_polynomial_deviation,
    certify_approx_dynamics,
    certify_capability_estimation,
    certify_lipschitz,
    certify_out_of_distribution,
    certify_policy_transfer,
    certify_population_change,
    certify_team_generalization,
    s_max,
)
from .envs.fruit_forage import (
    build_fruit_forage,
    desk_config,
    fruit_forage_layout,
    fruit_forage_state_count,
)
from .envs.predator_prey import PredatorPreyConfig, PredatorPreyEnv, pp_task_suites
from .linear import (
    CapabilityVector,
    InfluenceWeights,
    LinearMMDPSpec,
    LipschitzRewardSpec,
    PolynomialRewardSpec,
    RewardKernel,
    TeamComposition,
    TransitionKernel,
    assemble_linear_mmdp,
    assemble_lipschitz_mmdp,
    perturb_dynamics,
    polynomial_weights,
)
from .mdp import StateSpace
from .qlearning import (
    TrainSchedule,
    evaluate_policy_empirical,
    generalization_gap,
    q_learning_train,
)

SCHEMA_VERSION = 1
EXPERIMENT_KINDS = ("verify-bounds", "fruit-forage", "predator-prey", "sweep")
CORE_COLUMNS = (
    "experiment",
    "seed",
    "instance",
    "bound_name",
    "bound_value",
    "actual_value",
    "satisfied",
    "slack",
    "config_hash",
    "wall_time",
)
WALL_CLOCK_COLUMN = "wall_time"  # the one column determinism_hash leaves out


class ConfigError(ValueError):
    """A malformed or inconsistent experiment configuration."""


# ---- config fields: read by their declared types, written back by _to_doc --------

_NOUNS = {int: "an integer", float: "a number", tuple: "a JSON list", dict: "a JSON object"}
_ACCEPTS = {int: (int, float, str), float: (int, float, str), tuple: (list, tuple), dict: dict}


def _cast(what: str, kind, value):
    """value read as a field of type kind, or ConfigError.

    kind is str, int, float, dict, tuple, tuple[item, ...] or a config
    dataclass (read with its from_doc). Numbers go through int()/float(), so
    "5" and 5.0 read as 5, but a boolean is no number and 2.7 no integer; a
    tuple takes only a list and a dict only an object.
    """
    origin = get_origin(kind) or kind
    if origin is str:
        return str(value)
    if is_dataclass(origin):
        return value if isinstance(value, origin) else origin.from_doc(value)
    fraction = origin is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, _ACCEPTS[origin]) and not isinstance(value, bool) and not fraction:
        if origin is tuple and get_args(kind):
            return tuple(_cast(f"{what} item", get_args(kind)[0], item) for item in value)
        try:
            return origin(value)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"{what} must be {_NOUNS[origin]}, got {value!r}")


def _parse(what: str, types: dict, doc) -> dict:
    """doc's entries, each cast by types[name]; doc must be an object of known names."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(types)
    if unknown:
        raise ConfigError(f"unknown {what} field(s) {sorted(unknown)}")
    return {name: _cast(f"{what} field {name!r}", types[name], doc[name]) for name in doc}


def _types(config) -> dict:
    """name -> declared type of a config dataclass's fields."""
    return {f.name: f.type for f in fields(config)}


def _cast_fields(config, what: str):
    """Cast a frozen config dataclass's fields in place, as _parse casts a document."""
    for name, value in _parse(what, _types(config), vars(config)).items():
        object.__setattr__(config, name, value)


def _to_doc(value):
    """The JSON form of a config value: a dataclass as an object, a tuple as a list."""
    if is_dataclass(value):
        return {f.name: _to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_doc(item) for item in value]
    if isinstance(value, dict):
        return {name: _to_doc(item) for name, item in value.items()}
    return value


# Largest transition kernel a random instance may draw, in bytes:
# capability_dim x num_states x joint actions rows of num_states float64
# entries (generate_linear_pair). The default ranges draw at most 1.04 MB.
MAX_KERNEL_BYTES = 2**28


@dataclass(frozen=True)
class GeneratorRanges:
    """Inclusive sampling ranges for random certification instances."""

    num_states: tuple[int, ...] = (4, 20)
    num_agents: tuple[int, ...] = (2, 4)
    actions_per_agent: tuple[int, ...] = (2, 3)
    capability_dim: tuple[int, ...] = (2, 4)
    feature_dim: tuple[int, ...] = (2, 5)
    max_joint_actions: int = 81
    gamma: float = 0.9

    def __post_init__(self):
        _cast_fields(self, "ranges")
        pairs = {
            "num_states": (self.num_states, 1),
            # the population checks remove a member, so every team needs two
            "num_agents": (self.num_agents, 2),
            "actions_per_agent": (self.actions_per_agent, 2),
            "capability_dim": (self.capability_dim, 1),
            "feature_dim": (self.feature_dim, 1),
        }
        for name, (pair, minimum) in pairs.items():
            if len(pair) != 2 or pair[0] > pair[1] or pair[0] < minimum:
                raise ConfigError(
                    f"range '{name}' must be (lo, hi) with {minimum} <= lo <= hi, got {pair}"
                )
        if self.actions_per_agent[0] ** self.num_agents[1] > self.max_joint_actions:
            raise ConfigError(
                "no actions_per_agent choice fits under max_joint_actions at the largest team"
            )
        joint = min(self.max_joint_actions, self.actions_per_agent[1] ** self.num_agents[1])
        kernel_bytes = self.capability_dim[1] * self.num_states[1] ** 2 * joint * 8
        if kernel_bytes > MAX_KERNEL_BYTES:
            raise ConfigError(
                f"the largest instance's transition kernel takes {kernel_bytes} bytes, "
                f"over MAX_KERNEL_BYTES = {MAX_KERNEL_BYTES}"
            )
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError(f"gamma must lie strictly inside (0, 1), got {self.gamma}")

    def to_doc(self) -> dict:
        return _to_doc(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "GeneratorRanges":
        return cls(**_parse("ranges", _types(cls), doc))


def _defaults(config, names=None) -> dict:
    """name -> (type, default) of a default config's fields: all of them, or those named."""
    return {
        f.name: (f.type, getattr(config, f.name))
        for f in fields(config)
        if names is None or f.name in names
    }


# the PredatorPreyConfig fields a predator_prey section sets for every task
_PP_ENV = ("grid_size", "episode_limit", "prey_move_prob")
# name -> (type, default) of each section's fields
_SECTIONS = {
    "fruit_forage": _defaults(desk_config(), ("grid_size", "num_agents")),
    "predator_prey": {
        "suite": (str, "unseen_team"),
        "mode": (str, "both"),
        **_defaults(PredatorPreyConfig(), _PP_ENV),
        **_defaults(TrainSchedule()),
        "eval_episodes": (int, 10),
    },
}
# the ranges a sweep cell can pin to one value
_CELL_RANGES = ("num_agents", "capability_dim", "num_states")
_CELL_TYPES = dict.fromkeys(_CELL_RANGES + ("num_instances",), int)


def _section_params(section: str, overrides) -> dict:
    """A section's defaults, updated with its overrides cast by field type."""
    schema = _SECTIONS[section]
    params = {name: default for name, (_, default) in schema.items()}
    params.update(_parse(section, {name: kind for name, (kind, _) in schema.items()}, overrides))
    return params


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated experiment description."""

    kind: str
    name: str = ""
    seed: int = 0
    schema_version: int = SCHEMA_VERSION
    num_instances: int = 50
    tol: float = 1e-9
    eps_r: float = 0.01
    eps_p: float = 0.005
    ranges: GeneratorRanges = field(default_factory=GeneratorRanges)
    fruit_forage: dict = field(default_factory=dict)
    predator_prey: dict = field(default_factory=dict)
    sweep_cells: tuple = ()
    output_format: str = "csv"

    def __post_init__(self):
        _cast_fields(self, "config")
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {self.schema_version}"
            )
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not self.name:
            object.__setattr__(self, "name", self.kind)
        if self.name in (".", "..") or any(c in self.name for c in "/\\\0"):
            # a run writes under <out>/<name>/: anything but one plain path
            # component could place it outside <out>
            raise ConfigError(f"name must be one path component, got {self.name!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.num_instances < 1:
            raise ConfigError("num_instances must be positive")
        if not (0.0 < self.tol < math.inf):
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if not (0.0 <= self.eps_r < math.inf) or not (0.0 <= self.eps_p < 1.0):
            raise ConfigError("eps_r must be finite and >= 0, and eps_p inside [0, 1)")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {self.output_format!r}")
        for section, setup in (("fruit_forage", _forage_desk), ("predator_prey", _pursuit_setup)):
            params = _section_params(section, getattr(self, section))
            object.__setattr__(self, section, params)
            try:
                setup(params)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{section}: {exc}") from exc
        if self.kind == "sweep" and not self.sweep_cells:
            raise ConfigError("a sweep needs at least one cell")
        cells = tuple(_parse("sweep cell", _CELL_TYPES, cell) for cell in self.sweep_cells)
        if any("num_agents" not in cell or "capability_dim" not in cell for cell in cells):
            raise ConfigError("each sweep cell needs num_agents and capability_dim")
        object.__setattr__(self, "sweep_cells", cells)
        for index, cell in enumerate(cells):
            _cell_config(self, index, cell)

    def to_doc(self) -> dict:
        return _to_doc(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentConfig":
        values = _parse("config", _types(cls), doc)
        if "kind" not in values:
            raise ConfigError("the config is missing the required field 'kind'")
        return cls(**values)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_doc(doc)

    def config_hash(self) -> str:
        """The first 12 hex digits of the sha256 of the canonical to_doc JSON."""
        return self._config_hash

    @functools.cached_property
    def _config_hash(self) -> str:
        # a run names its directory, summary and rows by it: computed once per config
        canonical = json.dumps(self.to_doc(), sort_keys=True)
        return sha256(canonical.encode()).hexdigest()[:12]


def _forage_desk(params: dict) -> tuple:
    """(grid_size, num_agents) of a fruit_forage section.

    Raises ValueError unless the desk teams (desk_config) can be built at
    that size and certified: grid_size >= 2, 2 <= num_agents <= the teams'
    members (the population check removes a member), and at most
    fruit_forage.STATE_CAP states.
    """
    grid_size, num_agents = params["grid_size"], params["num_agents"]
    if num_agents < 2:
        raise ValueError("the population check removes a member, so the desk needs two agents")
    desk = desk_config("x", grid_size, num_agents)
    if len(desk.team) != num_agents:
        raise ValueError(f"the desk teams have {len(desk.team)} members, not {num_agents}")
    fruit_forage_state_count(desk)  # raises above the cap
    return grid_size, num_agents


def _pursuit_setup(params: dict) -> tuple:
    """(suite, modes, schedule, eval episodes) of a predator_prey section.

    Raises ValueError for a section that cannot run: an unknown suite or
    mode, a schedule TrainSchedule rejects, no evaluation episode, or an
    environment setting no task of the suite can be built with.
    """
    suites = pp_task_suites()
    suite_name = params["suite"]
    if suite_name not in suites:
        raise ConfigError(f"unknown task suite {suite_name!r}; known: {sorted(suites)}")
    suite = suites[suite_name]
    mode = params["mode"]
    if mode not in ("aware", "blind", "both"):
        raise ConfigError(f"predator_prey mode must be aware, blind, or both, got {mode!r}")
    modes = ("blind", "aware") if mode == "both" else (mode,)
    schedule = TrainSchedule(**{name: params[name] for name in _types(TrainSchedule)})
    episodes = params["eval_episodes"]
    if episodes < 1:
        raise ValueError(f"eval_episodes must be positive, got {episodes}")
    for task in suite.train + suite.test:
        _pp_env_config(params, task, capability_observable=False)
    return suite, modes, schedule, episodes


def default_config(kind: str, seed: int = 0) -> ExperimentConfig:
    """A runnable configuration for each experiment kind."""
    if kind == "sweep":
        cells = [
            {"num_agents": n, "capability_dim": d, "num_instances": 10}
            for n in (2, 3)
            for d in (2, 4)
        ]
        return ExperimentConfig(kind=kind, seed=seed, sweep_cells=tuple(cells))
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return ExperimentConfig(kind=kind, seed=seed)


# ---- random instance generation ---------------------------------------------------


def generate_linear_pair(ranges: GeneratorRanges, rng: "np.random.Generator"):
    """Two teams over one randomly drawn shared frame (kernels, states, rho)."""
    lo, hi = ranges.num_states
    num_states = int(rng.integers(lo, hi + 1))
    lo, hi = ranges.feature_dim
    feature_dim = int(rng.integers(lo, hi + 1))
    lo, hi = ranges.capability_dim
    dim = int(rng.integers(lo, hi + 1))
    lo, hi = ranges.num_agents
    num_agents = int(rng.integers(lo, hi + 1))
    candidates = [
        m
        for m in range(ranges.actions_per_agent[0], ranges.actions_per_agent[1] + 1)
        if m**num_agents <= ranges.max_joint_actions
    ]
    actions = int(candidates[rng.integers(len(candidates))])
    num_joint = actions**num_agents

    states = StateSpace(rng.uniform(0.0, 1.0, (num_states, feature_dim)))
    reward_kernel = RewardKernel(rng.uniform(0.0, 1.0, (dim, feature_dim)))
    transition_kernel = TransitionKernel(
        rng.dirichlet(np.ones(num_states), size=(dim, num_states, num_joint))
    )
    rho = rng.dirichlet(np.ones(num_states))

    def sample_task():
        team = TeamComposition(
            tuple(rng.dirichlet(np.ones(dim)) for _ in range(num_agents))
        )
        weights = InfluenceWeights(rng.dirichlet(np.ones(num_agents)))
        return team, weights

    team_x, weights_x = sample_task()
    team_y, weights_y = sample_task()
    common = dict(
        reward_kernel=reward_kernel,
        transition_kernel=transition_kernel,
        states=states,
        num_agents=num_agents,
        actions_per_agent=actions,
        gamma=ranges.gamma,
        rho=rho,
    )
    spec_x = LinearMMDPSpec(team=team_x, weights=weights_x, **common)
    spec_y = LinearMMDPSpec(team=team_y, weights=weights_y, **common)
    return spec_x, spec_y


def sample_simplex_team(rng: "np.random.Generator", num_agents: int, dim: int) -> TeamComposition:
    return TeamComposition(tuple(rng.dirichlet(np.ones(dim)) for _ in range(num_agents)))


def sample_polynomial_spec(
    rng: "np.random.Generator", num_agents: int, degree: int, alpha: float = 1.0
) -> PolynomialRewardSpec:
    """Random polynomial with at most 2^(j-1) terms of each total degree j.

    Under that term budget the closed-form deviation bound applies to any
    single member's capabilities moving by at most delta inside [0, 1].
    """
    terms = {(0,) * num_agents: float(rng.uniform(-alpha, alpha))}
    for j in range(1, degree + 1):
        for _ in range(2 ** (j - 1)):
            idx = tuple(int(v) for v in rng.multinomial(j, np.ones(num_agents) / num_agents))
            terms.setdefault(idx, float(rng.uniform(-alpha, alpha)))
    return PolynomialRewardSpec(terms=terms, alpha=alpha, degree=degree)


def polynomial_deviation_report(
    poly: PolynomialRewardSpec,
    team: TeamComposition,
    team_perturbed: TeamComposition,
    member_index: int,
    delta: float,
    reward_kernel: RewardKernel,
    states: StateSpace,
) -> BoundReport:
    """Measured reward shift from one member's move vs the closed-form bound."""
    gap = float(
        np.max(
            np.abs(
                team.matrix()[member_index] - team_perturbed.matrix()[member_index]
            )
        )
    )
    if gap > delta + 1e-12:
        raise ValueError(f"the perturbed member moved by {gap}, more than delta={delta}")
    smax = s_max(reward_kernel, states)
    bound = bound_polynomial_deviation(poly.alpha, poly.degree, smax, delta)
    # the phi-independent weights of each team, built once: polynomial_reward
    # at each state is float(weights @ (w @ phi))
    weights = polynomial_weights(poly, team)
    weights_perturbed = polynomial_weights(poly, team_perturbed)
    w = reward_kernel.w
    measured = max(
        abs(float(weights @ (w @ phi)) - float(weights_perturbed @ (w @ phi)))
        for phi in states.features
    )
    parts = {
        "alpha": poly.alpha,
        "degree": float(poly.degree),
        "delta": float(delta),
        "s_max": smax,
        "member_index": float(member_index),
        "num_terms": float(len(poly.terms)),
    }
    return BoundReport.build("polynomial_deviation", parts, bound, measured)


# ---- the checks ------------------------------------------------------------------
#
# One Check per report kind, keyed by bound_name. A case is a dict holding a
# check's inputs under the field names its violation entry archives, in archive
# order: spec_x / spec_y as live LinearMMDPSpecs, every other field as a value
# with the JSON form _FIELDS gives it. certify_instance and run_fruit_forage
# draw cases and run them; replay decodes an archived entry back into its case.
# A check starts a bounds calculator on its case's fields as they are archived,
# with no input made up beside them: a generator that does all its work in
# its sends, as Solver.run drives it (see capmdp.bounds). Check functions look
# the calculators up in this module's globals when they run, so a name rebound
# on capmdp.harness (a test's monkeypatch, a tracer's span) is the one that
# runs.


@dataclass(frozen=True)
class Check:
    """One report kind: the case fields it archives and how it runs a case."""

    fields: tuple
    run: Callable  # (case, tol) -> calculator


def _approx_dynamics(case, tol):
    spec_x, spec_y = case["spec_x"], case["spec_y"]
    eps_r, eps_p = case["eps_r"], case["eps_p"]
    actual_x = perturb_dynamics(assemble_linear_mmdp(spec_x), eps_r, eps_p, case["seed_x"])
    actual_y = perturb_dynamics(assemble_linear_mmdp(spec_y), eps_r, eps_p, case["seed_y"])
    return (yield from certify_approx_dynamics(spec_x, spec_y, actual_x, actual_y, tol=tol))


def _lipschitz(case, tol):
    """Reward-only variation: both teams share the x mixture's dynamics."""
    spec_x, spec_y = case["spec_x"], case["spec_y"]
    reward_map = LipschitzRewardSpec(
        f=lambda team, a=spec_x.weights.a: a @ team.matrix(),
        lipschitz_constants=spec_x.weights.a,
    )
    shared = assemble_linear_mmdp(spec_x)
    mmdp_x = assemble_lipschitz_mmdp(reward_map, spec_x.team, spec_x.reward_kernel, shared)
    mmdp_y = assemble_lipschitz_mmdp(reward_map, spec_y.team, spec_x.reward_kernel, shared)
    return (
        yield from certify_lipschitz(
            reward_map, spec_x.team, spec_y.team, mmdp_x, mmdp_y, spec_x.reward_kernel, tol=tol
        )
    )


def _polynomial_deviation(case, tol):
    """A calculator that requests no solve and no evaluation."""
    yield from ()
    spec_x = case["spec_x"]
    return polynomial_deviation_report(
        case["poly"],
        spec_x.team,
        case["team_perturbed"],
        case["member_index"],
        case["delta"],
        spec_x.reward_kernel,
        spec_x.states,
    )


CHECKS = {
    "team_generalization": Check(
        ("spec_x", "spec_y"),
        lambda case, tol: certify_team_generalization(case["spec_x"], case["spec_y"], tol=tol),
    ),
    "policy_transfer": Check(
        ("spec_x", "spec_y"),
        lambda case, tol: certify_policy_transfer(case["spec_x"], case["spec_y"], tol=tol),
    ),
    "population_decrease": Check(
        ("spec_x",),
        lambda case, tol: certify_population_change(case["spec_x"], "remove-last", tol=tol),
    ),
    "population_increase": Check(
        ("spec_x", "new_capability", "new_weight"),
        lambda case, tol: certify_population_change(
            case["spec_x"],
            "add-member",
            new_capability=case["new_capability"],
            new_weight=case["new_weight"],
            tol=tol,
        ),
    ),
    # spec_y is the task planned with the estimated capabilities
    "capability_estimation": Check(
        ("spec_x", "spec_y"),
        lambda case, tol: certify_capability_estimation(case["spec_x"], case["spec_y"], tol=tol),
    ),
    "out_of_distribution": Check(
        ("spec_x", "support_teams"),
        lambda case, tol: certify_out_of_distribution(
            case["support_teams"], case["spec_x"], tol=tol
        ),
    ),
    "approx_dynamics": Check(
        ("spec_x", "spec_y", "eps_r", "eps_p", "seed_x", "seed_y"), _approx_dynamics
    ),
    "lipschitz": Check(("spec_x", "spec_y"), _lipschitz),
    "polynomial_deviation": Check(
        ("spec_x", "poly", "delta", "member_index", "team_perturbed"), _polynomial_deviation
    ),
}

_SPECS = ("spec_x", "spec_y")


def _spec_doc(spec: LinearMMDPSpec) -> dict:
    return json.loads(spec.to_json())


def _spec_from_doc(doc) -> LinearMMDPSpec:
    return LinearMMDPSpec.from_json(json.dumps(doc))


def _team_from_json(matrix) -> TeamComposition:
    return TeamComposition(tuple(np.asarray(m, dtype=float) for m in matrix))


# (to_json, from_json) of every case field
_FIELDS = {
    "spec_x": (_spec_doc, _spec_from_doc),
    "spec_y": (_spec_doc, _spec_from_doc),
    "new_capability": (np.ndarray.tolist, lambda v: np.asarray(v, dtype=float)),
    "new_weight": (float, float),
    "support_teams": (
        lambda teams: [team.matrix().tolist() for team in teams],
        lambda v: [_team_from_json(team) for team in v],
    ),
    "eps_r": (float, float),
    "eps_p": (float, float),
    "seed_x": (int, int),
    "seed_y": (int, int),
    "poly": (
        lambda poly: json.loads(poly.to_json()),
        lambda doc: PolynomialRewardSpec.from_json(json.dumps(doc)),
    ),
    "delta": (float, float),
    "member_index": (int, int),
    "team_perturbed": (lambda team: team.matrix().tolist(), _team_from_json),
}


def _run_checks(index: int, cases, solver: Solver, archive):
    """Run each (bound_name, case) through CHECKS; returns (rows, violations).

    archive(bound_name, case) gives the fields a failing report's violation
    entry stores beside the report, and the entry records the solver's tol;
    archive runs only for a failing report. A row's wall_time covers its
    check's own work, not the shared solve.
    """
    cases = list(cases)
    calculators = [CHECKS[name].run(case, solver.tol) for name, case in cases]
    rows = []
    violations = []
    for (name, case), (report, seconds) in zip(cases, solver.run(calculators)):
        row = {"instance": index, "wall_time": seconds}
        row.update(report.to_csv_row())
        rows.append(row)
        if not report.satisfied:
            violations.append(
                {
                    "instance_index": index,
                    "bound_name": report.bound_name,
                    "report": json.loads(report.to_json()),
                    "tol": solver.tol,
                    **archive(name, case),
                }
            )
    return rows, violations


# ---- per-instance certification ---------------------------------------------------


def _instance_cases(config: ExperimentConfig, index: int):
    """(bound_name, case) of every check of one instance, drawn in a fixed order."""
    rng = np.random.default_rng([config.seed, index])
    spec_x, spec_y = generate_linear_pair(config.ranges, rng)
    num_agents = spec_x.team.num_agents
    dim = spec_x.capability_dim
    pair = {"spec_x": spec_x, "spec_y": spec_y}
    yield "team_generalization", pair
    yield "policy_transfer", pair
    yield "population_decrease", {"spec_x": spec_x}

    new_capability = rng.dirichlet(np.ones(dim))
    new_weight = float(rng.uniform(0.05, 0.5))
    yield "population_increase", {
        "spec_x": spec_x,
        "new_capability": new_capability,
        "new_weight": new_weight,
    }

    # estimation error: blend each member toward a random simplex point
    blend = rng.uniform(0.0, 0.1)
    inferred_members = tuple(
        (1.0 - blend) * m.c + blend * rng.dirichlet(np.ones(dim))
        for m in spec_x.team.members
    )
    spec_inferred = spec_x.with_team(TeamComposition(inferred_members), spec_x.weights)
    yield "capability_estimation", {"spec_x": spec_x, "spec_y": spec_inferred}

    support_teams = [spec_y.team] + [
        sample_simplex_team(rng, num_agents, dim) for _ in range(2)
    ]
    yield "out_of_distribution", {"spec_x": spec_x, "support_teams": support_teams}

    seed_x = int(rng.integers(2**31))
    seed_y = int(rng.integers(2**31))
    yield "approx_dynamics", {
        **pair,
        "eps_r": config.eps_r,
        "eps_p": config.eps_p,
        "seed_x": seed_x,
        "seed_y": seed_y,
    }
    yield "lipschitz", pair

    degree = int(rng.integers(1, 4))
    poly = sample_polynomial_spec(rng, num_agents, degree)
    delta = float(rng.choice([0.01, 0.1]))
    member_index = int(rng.integers(num_agents))
    moved = np.clip(
        spec_x.team.matrix()[member_index]
        + rng.uniform(-delta, delta, dim),
        0.0,
        1.0,
    )
    yield "polynomial_deviation", {
        "spec_x": spec_x,
        "poly": poly,
        "delta": delta,
        "member_index": member_index,
        "team_perturbed": spec_x.team.replace_member(member_index, CapabilityVector(moved)),
    }


def certify_instance(config: ExperimentConfig, index: int, solver: Solver | None = None):
    """All bound reports for one randomly generated instance.

    Returns (rows, violations); every random draw flows from a generator
    seeded by (config.seed, index), so results are order-independent.
    Every check runs on one Solver at config.tol (a fresh one unless given),
    through one Solver.run, so each distinct MDP of the instance is solved
    once and each distinct transferred policy evaluated once. A violation's
    payload is built only when its report fails.
    """
    # built by the first failing report that needs it, then shared
    spec_doc = functools.cache(_spec_doc)

    def archive(name, case):
        return {
            key: spec_doc(value) if key in _SPECS else _FIELDS[key][0](value)
            for key, value in case.items()
        }

    solver = Solver(config.tol) if solver is None else solver
    if solver.tol != config.tol:
        raise ValueError(f"the solver's tol {solver.tol!r} is not the config's {config.tol!r}")
    return _run_checks(index, _instance_cases(config, index), solver, archive)


# ---- experiment runners --------------------------------------------------------


def run_verify_bounds(config: ExperimentConfig, solve_counts=None):
    """Certify every generated instance, in instance-index order.

    Each instance gets its own Solver; solve_counts, a Counter, accumulates
    their counts (_add_counts) when given.
    """
    rows = []
    violations = []
    for index in range(config.num_instances):
        solver = Solver(config.tol)
        instance_rows, instance_violations = certify_instance(config, index, solver)
        rows.extend(instance_rows)
        violations.extend(instance_violations)
        if solve_counts is not None:
            _add_counts(solve_counts, solver)
    return rows, violations


def _add_counts(total: Counter, solver: Solver):
    """Add a solver's counts to a run's total; max_sweeps keeps the larger."""
    counts = solver.counts()
    total["max_sweeps"] = max(total["max_sweeps"], counts.pop("max_sweeps"))
    total.update(counts)


# the desk teams each fruit-forage check compares, as its case's spec_x[, spec_y]
_FORAGE_TEAMS = {
    "team_generalization": ("x", "y"),
    "policy_transfer": ("x", "y"),
    "population_decrease": ("z",),
}


def _desk_builder(grid_size: int, num_agents: int):
    """build(label): the desk spec of a team label, every spec on one shared layout.

    The teams differ in their rewards only, so their MDPs share one
    successor index and solve in one stack (Solver.solve_all).
    """
    layout = fruit_forage_layout(desk_config("x", grid_size, num_agents))
    return functools.cache(
        lambda label: build_fruit_forage(desk_config(label, grid_size, num_agents), layout)
    )


def run_fruit_forage(config: ExperimentConfig, solve_counts=None):
    """Desk-scale foraging certification: two team comparisons plus a removal.

    The three checks share one Solver and one desk layout; solve_counts, a
    Counter, accumulates the solver's counts when given. A violation
    archives the desk teams to rebuild.
    """
    grid_size, num_agents = _forage_desk(config.fruit_forage)
    solver = Solver(config.tol)
    build = _desk_builder(grid_size, num_agents)
    cases = (
        (name, dict(zip(_SPECS, map(build, labels))))
        for name, labels in _FORAGE_TEAMS.items()
    )

    def archive(name, case):
        return {
            "rebuild": {
                "env": "fruit_forage",
                "grid_size": grid_size,
                "num_agents": num_agents,
                "team_labels": list(_FORAGE_TEAMS[name]),
            }
        }

    rows, violations = _run_checks(0, cases, solver, archive)
    if solve_counts is not None:
        _add_counts(solve_counts, solver)
    return rows, violations


def _pp_env_config(params: dict, task, capability_observable: bool):
    settings = {name: params[name] for name in _PP_ENV}
    return task.to_config(capability_observable=capability_observable, **settings)


def _pp_env_builder(params: dict):
    def build(task, capability_observable, seed):
        return PredatorPreyEnv(_pp_env_config(params, task, capability_observable), seed)

    return build


class _StepCounter:
    """An environment that adds each step taken through it to tally["env_steps"]."""

    def __init__(self, env, tally: Counter):
        self.env = env
        self.tally = tally

    def __getattr__(self, name):
        return getattr(self.env, name)

    def step(self, joint_action):
        self.tally["env_steps"] += 1
        return self.env.step(joint_action)


def run_predator_prey(config: ExperimentConfig, learner=None):
    """Train the shared learner on a task suite, blind and capability-aware.

    learner, a dict when given, receives one entry per mode: the table's
    keys, the training env steps (the trainer takes exactly total_steps),
    the evaluation env steps as counted and the training seconds.
    """
    params = config.predator_prey
    suite, modes, schedule, episodes = _pursuit_setup(params)
    builder = _pp_env_builder(params)
    rows = []

    def task_label(task):
        return "-".join(str(c) for c in task.predator_capabilities)

    for mode_name in modes:
        observable = mode_name == "aware"
        start = time.perf_counter()
        table = q_learning_train(
            builder, suite.train, schedule, seed=config.seed, capability_observable=observable
        )
        train_time = time.perf_counter() - start
        evaluated = Counter()

        def counted(task, capability_observable, seed):
            return _StepCounter(builder(task, capability_observable, seed), evaluated)

        for phase, tasks in (("train", suite.train), ("test", suite.test)):
            outcome = evaluate_policy_empirical(
                table, counted, tasks, episodes, seed=config.seed,
                capability_observable=observable,
            )
            for task_index, (task, stats) in enumerate(zip(tasks, outcome["per_task"])):
                rows.append(
                    {
                        "mode": mode_name,
                        "phase": phase,
                        "task_index": task_index,
                        "team": task_label(task),
                        "penalty": float(task.penalty),
                        "mean": stats["mean"],
                        "std": stats["std"],
                        "episodes": episodes,
                        "steps_trained": schedule.total_steps,
                        "wall_time": train_time if phase == "train" and task_index == 0 else 0.0,
                    }
                )
        gap_train = next(
            t for t in suite.train if t.predator_capabilities == suite.gap_train_team
        )
        gap_test = next(
            t for t in suite.test if t.predator_capabilities == suite.gap_test_team
        )
        gap = generalization_gap(
            table, counted, gap_train, gap_test, episodes, seed=config.seed,
            capability_observable=observable,
        )
        rows.append(
            {
                "mode": mode_name,
                "phase": "gap",
                "task_index": -1,
                "team": f"{task_label(gap_train)}_vs_{task_label(gap_test)}",
                "penalty": float(gap_train.penalty),
                "mean": gap["gap"],
                "std": 0.0,
                "episodes": episodes,
                "steps_trained": schedule.total_steps,
                "wall_time": 0.0,
            }
        )
        if learner is not None:
            learner[mode_name] = {
                "table_keys": len(table.values),
                "train_env_steps": schedule.total_steps,
                "eval_env_steps": evaluated["env_steps"],
                "train_seconds": train_time,
            }
        # release this mode's table before the next mode trains its own
        del table
    return rows, []


def _cell_config(config: ExperimentConfig, cell_index: int, cell: dict) -> ExperimentConfig:
    """The verify-bounds config of one sweep cell: config's ranges with the cell's sizes pinned."""
    pinned = {key: (cell[key], cell[key]) for key in _CELL_RANGES if key in cell}
    return ExperimentConfig(
        kind="verify-bounds",
        name=config.name,
        seed=config.seed + cell_index,
        num_instances=cell.get("num_instances", config.num_instances),
        tol=config.tol,
        eps_r=config.eps_r,
        eps_p=config.eps_p,
        ranges=replace(config.ranges, **pinned),
    )


def run_sweep(config: ExperimentConfig, solve_counts=None):
    rows = []
    violations = []
    for cell_index, cell in enumerate(config.sweep_cells):
        cell_config = _cell_config(config, cell_index, cell)
        cell_rows, cell_violations = run_verify_bounds(cell_config, solve_counts=solve_counts)
        for row in cell_rows:
            row = dict(row)
            row["cell_num_agents"] = cell["num_agents"]
            row["cell_capability_dim"] = cell["capability_dim"]
            rows.append(row)
        violations.extend(cell_violations)
    return rows, violations


# ---- output: atomic files, canonical hashing -------------------------------------


def _atomic_write_text(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _canonical_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def determinism_hash(rows) -> str:
    """Order-sensitive SHA-256 hex digest of result rows, minus the WALL_CLOCK_COLUMN."""
    digest = sha256()
    for row in rows:
        line = ",".join(
            f"{key}={_canonical_value(row[key])}"
            for key in sorted(row)
            if key != WALL_CLOCK_COLUMN
        )
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _column_order(rows) -> list:
    extras = set()
    for row in rows:
        extras.update(row)
    if not extras:
        return list(CORE_COLUMNS)
    leading = [c for c in CORE_COLUMNS if c in extras]
    trailing = sorted(extras - set(CORE_COLUMNS))
    return leading + trailing


def rows_to_csv_text(rows) -> str:
    buffer = io.StringIO()
    columns = _column_order(rows)
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _row_order_key(row):
    def ordinal(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return -1.0
        return float(value)

    return (
        str(row.get("experiment", "")),
        ordinal(row.get("seed")),
        ordinal(row.get("instance")),
    )


def emit_results(rows, format: str, path) -> None:
    """Write result rows to one file, sorted by (experiment, seed, instance).

    CSV puts the core columns first and the remaining columns in sorted
    order; an empty row sequence still yields the header line. JSON is a
    plain array of row objects. Both formats write through a temp file
    and rename so readers never see a partial file.
    """
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {format!r}")
    target = Path(path)
    ordered = sorted(rows, key=_row_order_key)
    try:
        if format == "json":
            _atomic_write_text(target, json.dumps(ordered, indent=2))
        else:
            _atomic_write_text(target, rows_to_csv_text(ordered))
    except OSError as exc:
        raise OSError(f"writing results to {target}: {exc}") from exc


def run_output_dir(config: ExperimentConfig, out_root) -> Path:
    return Path(out_root) / config.name / config.config_hash()


def _make_run_dir(config: ExperimentConfig, out_root) -> Path:
    """run_output_dir, created; a ConfigError naming it when it cannot be."""
    out_dir = run_output_dir(config, out_root)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the run directory {out_dir}: {exc}") from exc
    return out_dir


def _peak_rss_mb():
    """The process's peak resident set size so far, in MB; None without the resource module."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and kilobytes elsewhere
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def write_run_artifacts(
    config: ExperimentConfig,
    rows,
    violations,
    out_root,
    total_wall_time: float,
    solve_counts=None,
    learner=None,
):
    """Write config/results/summary (and violations) under a content-hash dir.

    solve_counts, a mapping of Solver.counts() keys, becomes the summary's
    "solver" block, and learner (run_predator_prey's) its "learner" block,
    both outside the rows and the hash. Beside total_wall_time, and like it
    outside the hash, goes peak_rss_mb: the process's peak RSS so far, where
    the resource module can read it.
    """
    out_dir = _make_run_dir(config, out_root)
    _atomic_write_text(out_dir / "config.json", json.dumps(config.to_doc(), indent=2, sort_keys=True))
    suffix = "json" if config.output_format == "json" else "csv"
    emit_results(rows, config.output_format, out_dir / f"results.{suffix}")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": config.kind,
        "name": config.name,
        "config_hash": config.config_hash(),
        "num_rows": len(rows),
        "num_violations": len(violations),
        "determinism_hash": determinism_hash(rows),
        "total_wall_time": float(total_wall_time),
    }
    peak = _peak_rss_mb()
    if peak is not None:
        summary["peak_rss_mb"] = peak
    if solve_counts is not None:
        summary["solver"] = dict(solve_counts)
    if learner is not None:
        summary["learner"] = learner
    _atomic_write_text(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True))
    if violations:
        _atomic_write_text(out_dir / "violations.json", json.dumps(violations, indent=2))
    return out_dir, summary


def _stamp_rows(config: ExperimentConfig, rows) -> list:
    stamp = {
        "experiment": config.name,
        "seed": config.seed,
        "config_hash": config.config_hash(),
    }
    for row in rows:
        for key, value in stamp.items():
            row.setdefault(key, value)
    return rows


def run_experiment(config: ExperimentConfig, out_root) -> list:
    """Run one configured experiment, write its artifacts, and return the rows.

    The run directory is made first, so an out_root it cannot be made under
    raises ConfigError before any work.
    """
    _make_run_dir(config, out_root)
    start = time.perf_counter()
    # a fresh solver's counts: every key, each zero
    solve_counts = Counter(Solver().counts())
    learner = None
    if config.kind == "verify-bounds":
        rows, violations = run_verify_bounds(config, solve_counts=solve_counts)
    elif config.kind == "fruit-forage":
        rows, violations = run_fruit_forage(config, solve_counts=solve_counts)
    elif config.kind == "predator-prey":
        learner = {}
        rows, violations = run_predator_prey(config, learner)
    elif config.kind == "sweep":
        rows, violations = run_sweep(config, solve_counts=solve_counts)
    else:
        raise ConfigError(f"unknown experiment kind {config.kind!r}")
    total = time.perf_counter() - start
    _stamp_rows(config, rows)
    write_run_artifacts(config, rows, violations, out_root, total, solve_counts, learner)
    return rows


# ---- violation replay ---------------------------------------------------------


def _rebuilt_case(name: str, rebuild) -> dict:
    """The case of a fruit-forage entry: its desk teams, rebuilt on one layout."""
    if not isinstance(rebuild, dict):
        raise ConfigError(f"a rebuild must be a JSON object, got {rebuild!r}")
    if rebuild.get("env") != "fruit_forage":
        raise ConfigError(f"cannot rebuild environment {rebuild.get('env')!r}")
    labels = rebuild.get("team_labels")
    if not isinstance(labels, list) or CHECKS[name].fields != _SPECS[: len(labels)]:
        raise ConfigError(f"cannot replay report {name!r} for the rebuilt teams {labels!r}")
    try:
        grid_size = _cast("grid_size", int, rebuild["grid_size"])
        num_agents = _cast("num_agents", int, rebuild["num_agents"])
        specs = list(map(_desk_builder(grid_size, num_agents), labels))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed rebuild for {name!r}: {exc!r}") from exc
    return dict(zip(_SPECS, specs))


def _entry_case(name: str, entry: dict) -> dict:
    """The case of an entry that archives its fields."""
    case = {}
    for key in CHECKS[name].fields:
        if key not in entry:
            raise ConfigError(f"a {name!r} entry needs the field {key!r}")
        try:
            case[key] = _FIELDS[key][1](entry[key])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed {key!r} in a {name!r} entry: {exc!r}") from exc
    return case


def _replay_one(entry, solvers: dict) -> BoundReport:
    """Decode one violation entry into its case and run its check again.

    The check runs on solvers[tol], the Solver of the entry's tol, made on
    first use. A malformed entry raises ConfigError, and so does a tol that
    Solver rejects or a case its check rejects (the calculators raise
    ValueError on inconsistent inputs, such as two specs that do not share a
    frame).
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"a violation entry must be a JSON object, got {entry!r}")
    name = entry.get("bound_name")
    if not isinstance(name, str) or name not in CHECKS:
        raise ConfigError(f"cannot replay unknown report kind {name!r}")
    # entries written before runs recorded their tol were solved at the default
    tol = entry.get("tol", ExperimentConfig.tol)
    try:
        # True == 1, so a boolean tol would find a tol-1 solver without Solver's check
        if tol not in solvers or isinstance(tol, bool):
            solvers[tol] = Solver(tol)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed 'tol' in a {name!r} entry: {exc!r}") from exc
    rebuild = entry.get("rebuild")
    case = _entry_case(name, entry) if rebuild is None else _rebuilt_case(name, rebuild)
    try:
        report = solvers[tol].report(CHECKS[name].run, case)
    except ValueError as exc:
        raise ConfigError(f"the {name!r} entry is not a valid case: {exc}") from exc
    return report


def replay_violations(path) -> list:
    """Recompute every archived violation; returns the fresh reports in order.

    Entries of one tol share one Solver, so an MDP that several entries need
    (the x task of one instance, say) is solved once per tol.
    """
    path = Path(path)
    try:
        entries = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read violations file {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError("a violations file must hold a JSON list")
    solvers = {}
    return [_replay_one(entry, solvers) for entry in entries]
