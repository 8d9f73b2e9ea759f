"""Certified value-difference bounds between capability-parameterized teams.

Every calculator assembles the tasks it compares, gets their exact optimal
solves, computes a closed-form bound from team-level quantities, and returns
a BoundReport pairing the bound with the measured value difference. A report
is satisfied when the measurement does not exceed the bound beyond a fixed
additive tolerance; the certification harness treats any unsatisfied report
as a violation worth archiving.

Each calculator is written once, as a generator (certify_*): it yields the
tuple of MDPs it needs solved, receives their (ValueTable, JointPolicy)
pairs, and returns its report. The certification harness advances every
calculator of an instance to its request and answers them all with one
Solver.solve_all. Each public bound_* function answers its calculator's
request itself, on its optional ``solver=``: a Solver that memoizes optimal
solves by MDP content. Calculators comparing tasks of one instance share
most of their MDPs, so passing one Solver to all of them solves each
distinct MDP once; a cached solve returns the same arrays a fresh solve
would, made read-only. Without a solver a fresh one serves the call. A
Solver is not locked, so it must not be shared between threads.
"""

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .linear import (
    CapabilityVector,
    InfluenceWeights,
    LinearMMDPSpec,
    LipschitzRewardSpec,
    RewardKernel,
    TeamComposition,
    assemble_linear_mmdp,
)
from .mdp import (
    StateSpace,
    TabularMMDP,
    ValueTable,
    check_distribution,
    policy_evaluation,
    value_iteration_stack,
)

BOUND_TOLERANCE = 1e-7
PERMUTATION_GUARD = 8
GAMMA_CROSSOVER = (math.sqrt(5.0) - 1.0) / 2.0
# Largest (members x states x joint actions) value buffer of one stacked
# solve. Past it a sweep's arithmetic outweighs its per-call overhead, so a
# bigger stack saves no time and only holds more memory; a 1024-state,
# 25-action fruit-forage MDP solves alone.
STACK_ENTRIES = 2**15


@dataclass(frozen=True)
class SolveSettings:
    """Solver and reporting knobs shared by all bound calculators."""

    tol: float = 1e-9
    max_iters: int = 10**6
    psi_over_permutations: bool = False

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters at least 1")


@dataclass(frozen=True)
class BoundReport:
    """One certified comparison: bound, measurement, and their ingredients."""

    bound_name: str
    constituents: dict
    bound_value: float
    actual_value: float
    satisfied: bool
    slack: float

    @classmethod
    def build(cls, name: str, constituents: dict, bound_value: float, actual_value: float):
        bound_value = float(bound_value)
        actual_value = float(actual_value)
        return cls(
            bound_name=name,
            constituents={k: float(v) for k, v in constituents.items()},
            bound_value=bound_value,
            actual_value=actual_value,
            satisfied=bool(actual_value <= bound_value + BOUND_TOLERANCE),
            slack=bound_value - actual_value,
        )

    def to_csv_row(self) -> dict:
        row = {
            "bound_name": self.bound_name,
            "bound_value": self.bound_value,
            "actual_value": self.actual_value,
            "satisfied": self.satisfied,
            "slack": self.slack,
        }
        row.update(self.constituents)
        return row

    def to_json(self) -> str:
        return json.dumps(
            {
                "bound_name": self.bound_name,
                "constituents": self.constituents,
                "bound_value": self.bound_value,
                "actual_value": self.actual_value,
                "satisfied": self.satisfied,
                "slack": self.slack,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BoundReport":
        doc = json.loads(text)
        return cls(
            bound_name=doc["bound_name"],
            constituents=dict(doc["constituents"]),
            bound_value=doc["bound_value"],
            actual_value=doc["actual_value"],
            satisfied=doc["satisfied"],
            slack=doc["slack"],
        )


@dataclass(frozen=True, eq=False)
class TaskDistribution:
    """Finite distribution over (team, influence weights) tasks."""

    support: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        if not support:
            raise ValueError("a task distribution needs a non-empty support")
        for team, weights in support:
            if not isinstance(team, TeamComposition) or not isinstance(weights, InfluenceWeights):
                raise ValueError("support entries must be (TeamComposition, InfluenceWeights)")
        probs = check_distribution(self.probabilities, "task probabilities")
        if probs.shape[0] != len(support):
            raise ValueError("one probability per support entry is required")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probabilities", probs)

    @property
    def size(self) -> int:
        return len(self.support)


def psi(
    team_x: TeamComposition,
    weights_x: InfluenceWeights,
    team_y: TeamComposition,
    weights_y: InfluenceWeights,
    minimize_over_permutations: bool = False,
) -> float:
    """Two-term capability discrepancy between weighted teams.

    First term: sup-norm of the x-weighted member-by-member capability
    difference. Second term: sup-norm of the weight-difference mixture of the
    y capabilities. Optionally minimized over relabelings of team y, which
    leaves y's assembled dynamics unchanged.
    """
    value, _ = psi_with_permutation(
        team_x, weights_x, team_y, weights_y, minimize_over_permutations
    )
    return value


def psi_with_permutation(
    team_x: TeamComposition,
    weights_x: InfluenceWeights,
    team_y: TeamComposition,
    weights_y: InfluenceWeights,
    minimize_over_permutations: bool = False,
) -> tuple:
    """psi plus the member order of team y that attained it."""
    n = team_x.num_agents
    if team_y.num_agents != n or weights_x.num_agents != n or weights_y.num_agents != n:
        raise ValueError("both teams and weight vectors must have the same size")
    if team_x.dim != team_y.dim:
        raise ValueError("both teams must share one capability dimension")
    identity = tuple(range(n))
    if not minimize_over_permutations:
        value = _psi_arrays(team_x.matrix(), weights_x.a, team_y.matrix(), weights_y.a)
        return value, identity
    if n > PERMUTATION_GUARD:
        raise ValueError(
            f"permutation search over {n} members exceeds the guard of {PERMUTATION_GUARD}"
        )
    mat_y = team_y.matrix()
    best = np.inf
    best_perm = identity
    for perm in itertools.permutations(range(n)):
        value = _psi_arrays(
            team_x.matrix(), weights_x.a, mat_y[list(perm)], weights_y.a[list(perm)]
        )
        if value < best:
            best = value
            best_perm = perm
    return float(best), best_perm


def _psi_arrays(mat_x, a_x, mat_y, a_y) -> float:
    term_members = float(np.max(np.abs(a_x @ (mat_x - mat_y))))
    term_weights = float(np.max(np.abs((a_x - a_y) @ mat_y)))
    return term_members + term_weights


def s_max(reward_kernel: RewardKernel, states: StateSpace) -> float:
    """Largest L1 norm of the kernel-mapped state features."""
    if reward_kernel.feature_dim != states.feature_dim:
        raise ValueError("reward kernel and state space disagree on the feature dimension")
    return float(np.abs(states.features @ reward_kernel.w.T).sum(axis=1).max())


def v_mid(values: ValueTable) -> float:
    """Half the largest per-state value, the centering constant of the bounds."""
    return 0.5 * float(values.v.max())


def gamma_factor(gamma: float) -> float:
    """Discount multiplier turning per-step gaps into value gaps.

    Two expressions are valid; below the golden-ratio crossover the
    (1 + gamma) / (1 - gamma) form is tighter, above it 1 / (gamma (1 - gamma))
    is. Returns the smaller applicable one; continuous at the crossover.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie strictly inside (0, 1), got {gamma}")
    dummy_start = 1.0 / (gamma * (1.0 - gamma))
    direct = (1.0 + gamma) / (1.0 - gamma)
    if gamma >= GAMMA_CROSSOVER:
        return dummy_start
    return min(dummy_start, direct)


def d_a_metric(
    team_x: TeamComposition, team_y: TeamComposition, weights: InfluenceWeights
) -> float:
    """Pseudometric between teams: sup-norm of the weighted member differences."""
    n = weights.num_agents
    if team_x.num_agents != n or team_y.num_agents != n:
        raise ValueError("teams must match the weight vector's size")
    if team_x.dim != team_y.dim:
        raise ValueError("teams must share one capability dimension")
    return float(np.max(np.abs(weights.a @ (team_x.matrix() - team_y.matrix()))))


def d_a_set_distance(
    team: TeamComposition, support_teams, weights: InfluenceWeights
) -> float:
    """Distance from a team to the closest member of a finite task set."""
    support_teams = list(support_teams)
    if not support_teams:
        raise ValueError("the support set must be non-empty")
    return min(d_a_metric(team, other, weights) for other in support_teams)


def oracle_policy_select(
    distribution: TaskDistribution, query: TeamComposition, weights: InfluenceWeights
) -> int:
    """Index of the support task closest to the query (lowest index on ties)."""
    distances = [
        d_a_metric(query, team, weights) for team, _ in distribution.support
    ]
    return int(np.argmin(distances))


def _require_shared_frame(spec_x: LinearMMDPSpec, spec_y: LinearMMDPSpec):
    if not spec_x.states.equals(spec_y.states):
        raise ValueError("the two specs must share one state space")
    if not np.array_equal(spec_x.reward_kernel.w, spec_y.reward_kernel.w):
        raise ValueError("the two specs must share one reward kernel")
    if not spec_x.transition_kernel.equals(spec_y.transition_kernel):
        raise ValueError("the two specs must share one transition kernel")
    if spec_x.gamma != spec_y.gamma:
        raise ValueError("the two specs must share one discount factor")
    if not np.array_equal(spec_x.rho, spec_y.rho):
        raise ValueError("the two specs must share one initial distribution")
    if (
        spec_x.num_agents != spec_y.num_agents
        or spec_x.actions_per_agent != spec_y.actions_per_agent
    ):
        raise ValueError("the two specs must share one joint action space")


class Solver:
    """Memo of optimal solves keyed by MDP content and solver settings.

    The key digests the rewards, the transitions and the successor index
    (shape, dtype and bytes of each), the discount, tol and max_iters: the
    whole input of value_iteration. So an indexed kernel and its dense twin,
    or one MDP at two tolerances, never share an entry. Cached arrays are
    read-only, since every caller of a hit shares them. solve_all answers
    many requests at once and solves the uncached ones in stacks; each
    answer is bit for bit the one value_iteration gives alone.
    """

    def __init__(self):
        self._solved = {}
        self.solves = 0
        self.hits = 0
        self.sweeps = 0
        self.max_sweeps = 0

    def solve(self, mmdp: TabularMMDP, settings: SolveSettings):
        """(ValueTable, JointPolicy) of value_iteration on mmdp at settings."""
        return self.solve_all([mmdp], settings)[0]

    def solve_all(self, mmdps, settings: SolveSettings) -> list:
        """solve() of each of mmdps, in order.

        Requests with one content key are solved once; the MDPs not cached
        yet are solved together, one value_iteration_stack per (layout,
        kernel shape, discount), split so that no stack passes
        STACK_ENTRIES. Solves and hits count as one solve() call per request
        would count them.
        """
        keys = [_solve_key(mmdp, settings) for mmdp in mmdps]
        todo = {}
        for key, mmdp in zip(keys, mmdps):
            if key in self._solved or key in todo:
                self.hits += 1
            else:
                todo[key] = mmdp
        groups = {}
        for key, mmdp in todo.items():
            shared = (mmdp.next_states is None, mmdp.transitions.shape, mmdp.gamma)
            groups.setdefault(shared, []).append(key)
        for (_, shape, _), group in groups.items():
            size = max(1, STACK_ENTRIES // (shape[0] * shape[1]))
            for start in range(0, len(group), size):
                stack = group[start : start + size]
                self._solve_stack([(key, todo[key]) for key in stack], settings)
        return [self._solved[key] for key in keys]

    def _solve_stack(self, stack, settings: SolveSettings):
        """Solve a list of (key, mmdp) in one value_iteration_stack and cache them."""
        solutions, sweeps = value_iteration_stack(
            [mmdp for _, mmdp in stack], settings.tol, settings.max_iters
        )
        for (key, _), solution in zip(stack, solutions):
            values, policy = solution
            for arr in (values.v, values.q, policy.actions):
                arr.flags.writeable = False
            self._solved[key] = solution
        self.solves += len(stack)
        self.sweeps += sum(sweeps)
        self.max_sweeps = max(self.max_sweeps, *sweeps)

    def counts(self) -> dict:
        """Solves, cache hits, and the sweeps the solves took (total and most)."""
        return {
            "value_iteration_solves": self.solves,
            "cache_hits": self.hits,
            "sweeps": self.sweeps,
            "max_sweeps": self.max_sweeps,
        }


def _solve_key(mmdp: TabularMMDP, settings: SolveSettings) -> bytes:
    digest = hashlib.sha256()
    for arr in (mmdp.rewards, mmdp.transitions, mmdp.next_states):
        if arr is None:
            digest.update(b"none;")
            continue
        digest.update(f"{arr.shape}{arr.dtype.str};".encode())
        digest.update(memoryview(np.ascontiguousarray(arr)).cast("B"))
    digest.update(repr((mmdp.gamma, settings.tol, settings.max_iters)).encode())
    return digest.digest()


def resume(calculator, solutions) -> BoundReport:
    """Send a calculator the solutions of its request; returns its report."""
    try:
        calculator.send(solutions)
    except StopIteration as done:
        return done.value
    raise RuntimeError("a calculator makes exactly one solve request")


def _answer(calculator, settings: SolveSettings, solver: Solver | None = None) -> BoundReport:
    """Run a calculator to its report, solving its request on solver.

    Without a solver, a fresh Solver serves this one report.
    """
    solver = Solver() if solver is None else solver
    return resume(calculator, solver.solve_all(next(calculator), settings))


def _value_scale(gf: float, smax: float, spec: LinearMMDPSpec, vmid: float) -> float:
    """gamma_factor * (s_max + gamma * d * v_mid), the factor every linear bound shares."""
    return gf * (smax + spec.gamma * spec.capability_dim * vmid)


def _value_gap(vt_x: ValueTable, vt_y: ValueTable, rho_x, rho_y):
    """Gap between two tasks' optimal values.

    Returns (value_x, value_y, |value_x - value_y|, per-state max gap).
    """
    value_x = vt_x.scalar(rho_x)
    value_y = vt_y.scalar(rho_y)
    return value_x, value_y, abs(value_x - value_y), float(np.max(np.abs(vt_x.v - vt_y.v)))


def _transfer_regret(mmdp, optimal: ValueTable, policy, rho, settings: SolveSettings, label):
    """Regret of running policy on mmdp, against mmdp's optimal values.

    Returns (value_optimal, value_executed, regret, per-state max regret).
    A regret below -2 * tol means the solver contradicted itself.
    """
    executed = policy_evaluation(mmdp, policy, tol=settings.tol, max_iters=settings.max_iters)
    value_optimal = optimal.scalar(rho)
    value_executed = executed.scalar(rho)
    actual = value_optimal - value_executed
    if actual < -2.0 * settings.tol:
        raise RuntimeError(
            f"{label} policy beat the optimal value by {-actual:.3e}; solver inconsistency"
        )
    return value_optimal, value_executed, actual, float(np.max(optimal.v - executed.v))


def _permutation_code(perm) -> float:
    code = 0
    for digit in perm:
        code = code * 10 + int(digit)
    return float(code)


def _base_constituents(spec, psi_value, smax, vmid, perm):
    gf = gamma_factor(spec.gamma)
    parts = {
        "psi": psi_value,
        "s_max": smax,
        "v_mid": vmid,
        "gamma_factor": gf,
        "gamma": spec.gamma,
        "capability_dim": float(spec.capability_dim),
        "psi_permutation_code": _permutation_code(perm),
    }
    return gf, parts


def bound_team_generalization(
    spec_x: LinearMMDPSpec,
    spec_y: LinearMMDPSpec,
    settings: SolveSettings = SolveSettings(),
    solver: Solver | None = None,
) -> BoundReport:
    """Bound |V*_x - V*_y| for two teams sharing every kernel.

    The bound is gamma_factor * (s_max + gamma * d * v_mid) * psi with v_mid
    taken from the second (reference) task's optimal values. The measurement
    is the absolute difference of rho-weighted optimal values; the per-state
    max difference is reported alongside.
    """
    return _answer(certify_team_generalization(spec_x, spec_y, settings), settings, solver)


def certify_team_generalization(spec_x, spec_y, settings: SolveSettings = SolveSettings()):
    """Calculator of bound_team_generalization; requests (x, y)."""
    _require_shared_frame(spec_x, spec_y)
    (vt_x, _), (vt_y, _) = yield assemble_linear_mmdp(spec_x), assemble_linear_mmdp(spec_y)
    psi_value, perm = psi_with_permutation(
        spec_x.team, spec_x.weights, spec_y.team, spec_y.weights,
        settings.psi_over_permutations,
    )
    smax = s_max(spec_x.reward_kernel, spec_x.states)
    vmid = v_mid(vt_y)
    gf, parts = _base_constituents(spec_x, psi_value, smax, vmid, perm)
    bound = _value_scale(gf, smax, spec_x, vmid) * psi_value
    value_x, value_y, actual, state_max = _value_gap(vt_x, vt_y, spec_x.rho, spec_y.rho)
    parts.update({"value_x": value_x, "value_y": value_y, "actual_state_max": state_max})
    return BoundReport.build("team_generalization", parts, bound, actual)


def bound_policy_transfer(
    spec_x: LinearMMDPSpec,
    spec_y: LinearMMDPSpec,
    settings: SolveSettings = SolveSettings(),
    solver: Solver | None = None,
) -> BoundReport:
    """Bound the regret of running the second team's optimal policy on the first.

    Exactly twice the team-generalization bound. The measurement is
    V*_x - V^{pi*_y}_x, which can never fall below -2 * tol.
    """
    return _answer(certify_policy_transfer(spec_x, spec_y, settings), settings, solver)


def certify_policy_transfer(spec_x, spec_y, settings: SolveSettings = SolveSettings()):
    """Calculator of bound_policy_transfer; requests (x, y)."""
    _require_shared_frame(spec_x, spec_y)
    mmdp_x = assemble_linear_mmdp(spec_x)
    (vt_x, _), (vt_y, policy_y) = yield mmdp_x, assemble_linear_mmdp(spec_y)
    value_optimal, value_transferred, actual, state_max = _transfer_regret(
        mmdp_x, vt_x, policy_y, spec_x.rho, settings, "transferred"
    )
    psi_value, perm = psi_with_permutation(
        spec_x.team, spec_x.weights, spec_y.team, spec_y.weights,
        settings.psi_over_permutations,
    )
    smax = s_max(spec_x.reward_kernel, spec_x.states)
    vmid = v_mid(vt_y)
    gf, parts = _base_constituents(spec_x, psi_value, smax, vmid, perm)
    bound = 2.0 * _value_scale(gf, smax, spec_x, vmid) * psi_value
    parts.update(
        {
            "value_optimal": value_optimal,
            "value_transferred": value_transferred,
            "actual_state_max": state_max,
        }
    )
    return BoundReport.build("policy_transfer", parts, bound, actual)


def bound_out_of_distribution(
    distribution: TaskDistribution,
    query_spec: LinearMMDPSpec,
    settings: SolveSettings = SolveSettings(),
    solver: Solver | None = None,
) -> BoundReport:
    """Bound the regret of the closest-task policy on an unseen team.

    Requires identical influence weights across the support and the query.
    The selected task is the d_a-closest support member; the bound is the
    policy-transfer bound at distance d_a(query, support).
    """
    return _answer(
        certify_out_of_distribution(distribution, query_spec, settings), settings, solver
    )


def certify_out_of_distribution(
    distribution: TaskDistribution, query_spec, settings: SolveSettings = SolveSettings()
):
    """Calculator of bound_out_of_distribution; requests (query, selected)."""
    a = query_spec.weights.a
    for team, weights in distribution.support:
        if weights.a.shape != a.shape or not np.allclose(weights.a, a, atol=1e-12):
            raise ValueError("out-of-distribution bound needs fixed influence weights")
        if team.dim != query_spec.team.dim:
            raise ValueError("support teams must share the query's capability dimension")
    selected = oracle_policy_select(distribution, query_spec.team, query_spec.weights)
    selected_team, selected_weights = distribution.support[selected]
    spec_sel = query_spec.with_team(selected_team, selected_weights)
    mmdp_query = assemble_linear_mmdp(query_spec)
    (vt_query, _), (vt_sel, policy_sel) = yield mmdp_query, assemble_linear_mmdp(spec_sel)
    value_optimal, value_transferred, actual, state_max = _transfer_regret(
        mmdp_query, vt_query, policy_sel, query_spec.rho, settings, "selected"
    )
    distance = d_a_set_distance(
        query_spec.team, [team for team, _ in distribution.support], query_spec.weights
    )
    smax = s_max(query_spec.reward_kernel, query_spec.states)
    vmid = v_mid(vt_sel)
    gf = gamma_factor(query_spec.gamma)
    bound = 2.0 * _value_scale(gf, smax, query_spec, vmid) * distance
    parts = {
        "d_a": distance,
        "selected_index": float(selected),
        "s_max": smax,
        "v_mid": vmid,
        "gamma_factor": gf,
        "gamma": query_spec.gamma,
        "capability_dim": float(query_spec.capability_dim),
        "value_optimal": value_optimal,
        "value_transferred": value_transferred,
        "actual_state_max": state_max,
    }
    return BoundReport.build("out_of_distribution", parts, bound, actual)


def bound_population_change(
    spec: LinearMMDPSpec,
    mode: str,
    new_capability=None,
    new_weight: float | None = None,
    settings: SolveSettings = SolveSettings(),
    solver: Solver | None = None,
) -> BoundReport:
    """Bound the optimal-value shift when the team loses or gains a member.

    remove-last drops the final member and renormalizes the remaining
    influence weights; add-member appends a capability with a given weight
    and scales the old weights down. Either way the bound is the changed
    weight times the sup-norm gap between the unchanged mixture and the
    changed member's capabilities.
    """
    return _answer(
        certify_population_change(spec, mode, new_capability, new_weight, settings),
        settings,
        solver,
    )


def certify_population_change(
    spec: LinearMMDPSpec,
    mode: str,
    new_capability=None,
    new_weight: float | None = None,
    settings: SolveSettings = SolveSettings(),
):
    """Calculator of bound_population_change; requests (before, after)."""
    if mode == "remove-last":
        if spec.team.num_agents < 2:
            raise ValueError("removing a member needs at least two members")
        a = spec.weights.a
        last_weight = float(a[-1])
        if last_weight >= 1.0 - 1e-12:
            raise ValueError("the last member carries all influence; removal is degenerate")
        reduced_weights = a[:-1] / (1.0 - last_weight)
        reduced_team = spec.team.drop_last()
        mixture_gap = float(
            np.max(np.abs(reduced_weights @ reduced_team.matrix() - spec.team.members[-1].c))
        )
        changed = spec.with_team(reduced_team, InfluenceWeights(reduced_weights))
        changed_weight = last_weight
        name = "population_decrease"
    elif mode == "add-member":
        if new_capability is None or new_weight is None:
            raise ValueError("add-member needs new_capability and new_weight")
        new_weight = float(new_weight)
        if not (0.0 <= new_weight < 1.0):
            raise ValueError("the new member's weight must lie in [0, 1)")
        if not isinstance(new_capability, CapabilityVector):
            new_capability = CapabilityVector(np.asarray(new_capability, dtype=float))
        enlarged_team = spec.team.append_member(new_capability)
        if enlarged_team.members[-1].dim != spec.team.dim:
            raise ValueError("the new capability must match the team's dimension")
        mixture_gap = float(
            np.max(np.abs(spec.weights.a @ spec.team.matrix() - enlarged_team.members[-1].c))
        )
        enlarged_weights = np.concatenate(
            [spec.weights.a * (1.0 - new_weight), [new_weight]]
        )
        changed = spec.with_team(enlarged_team, InfluenceWeights(enlarged_weights))
        changed_weight = new_weight
        name = "population_increase"
    else:
        raise ValueError(f"unknown population-change mode {mode!r}")

    (vt_before, _), (vt_after, _) = yield (
        assemble_linear_mmdp(spec), assemble_linear_mmdp(changed)
    )
    smax = s_max(spec.reward_kernel, spec.states)
    vmid = v_mid(vt_after)
    gf = gamma_factor(spec.gamma)
    bound = _value_scale(gf, smax, spec, vmid) * changed_weight * mixture_gap
    value_before, value_after, actual, state_max = _value_gap(
        vt_before, vt_after, spec.rho, spec.rho
    )
    parts = {
        "changed_weight": changed_weight,
        "mixture_gap": mixture_gap,
        "s_max": smax,
        "v_mid": vmid,
        "gamma_factor": gf,
        "gamma": spec.gamma,
        "capability_dim": float(spec.capability_dim),
        "value_before": value_before,
        "value_after": value_after,
        "actual_state_max": state_max,
    }
    return BoundReport.build(name, parts, bound, actual)


def bound_approx_dynamics(
    spec_x: LinearMMDPSpec,
    spec_y: LinearMMDPSpec,
    mmdp_x_actual: TabularMMDP,
    mmdp_y_actual: TabularMMDP,
    settings: SolveSettings = SolveSettings(),
    solver: Solver | None = None,
) -> BoundReport:
    """Team-generalization bound when the real dynamics are only nearly linear.

    Measures the worst reward deviation eps_hat_r and transition-entry
    deviation eps_hat_p between each actual MDP and its assembled linear
    form, then adds 2 * gamma_factor * (eps_hat_r + gamma * eps_hat_p * v_mid)
    to the exact-linear bound. With zero deviations it reduces to the
    team-generalization report exactly.
    """
    return _answer(
        certify_approx_dynamics(spec_x, spec_y, mmdp_x_actual, mmdp_y_actual, settings),
        settings,
        solver,
    )


def certify_approx_dynamics(
    spec_x, spec_y, mmdp_x_actual, mmdp_y_actual, settings: SolveSettings = SolveSettings()
):
    """Calculator of bound_approx_dynamics; requests the two actual MDPs."""
    _require_shared_frame(spec_x, spec_y)
    linear_x = assemble_linear_mmdp(spec_x)
    linear_y = assemble_linear_mmdp(spec_y)
    for actual, linear, label in (
        (mmdp_x_actual, linear_x, "x"),
        (mmdp_y_actual, linear_y, "y"),
    ):
        if not actual.states.equals(linear.states):
            raise ValueError(f"actual MDP {label} does not share the spec's state space")
        if actual.num_joint_actions != linear.num_joint_actions:
            raise ValueError(f"actual MDP {label} does not share the spec's action space")
        if actual.gamma != linear.gamma:
            raise ValueError(f"actual MDP {label} does not share the spec's discount")
    eps_hat_r = max(
        float(np.max(np.abs(mmdp_x_actual.rewards - linear_x.rewards))),
        float(np.max(np.abs(mmdp_y_actual.rewards - linear_y.rewards))),
    )
    eps_hat_p = max(
        mmdp_x_actual.transition_gaps(linear_x)[0],
        mmdp_y_actual.transition_gaps(linear_y)[0],
    )
    (vt_x, _), (vt_y, _) = yield mmdp_x_actual, mmdp_y_actual
    psi_value, perm = psi_with_permutation(
        spec_x.team, spec_x.weights, spec_y.team, spec_y.weights,
        settings.psi_over_permutations,
    )
    smax = s_max(spec_x.reward_kernel, spec_x.states)
    vmid = v_mid(vt_y)
    gf, parts = _base_constituents(spec_x, psi_value, smax, vmid, perm)
    bound = _value_scale(gf, smax, spec_x, vmid) * psi_value + (
        2.0 * gf * (eps_hat_r + spec_x.gamma * eps_hat_p * vmid)
    )
    value_x, value_y, actual, state_max = _value_gap(vt_x, vt_y, spec_x.rho, spec_y.rho)
    parts.update(
        {
            "eps_hat_r": eps_hat_r,
            "eps_hat_p": eps_hat_p,
            "value_x": value_x,
            "value_y": value_y,
            "actual_state_max": state_max,
        }
    )
    return BoundReport.build("approx_dynamics", parts, bound, actual)


def bound_capability_estimation(
    spec_true: LinearMMDPSpec,
    spec_inferred: LinearMMDPSpec,
    settings: SolveSettings = SolveSettings(),
    solver: Solver | None = None,
) -> BoundReport:
    """Bound the regret of planning with estimated capabilities.

    Both specs must carry identical influence weights. eps_t is the largest
    member-wise sup-norm estimation error; the bound is the policy-transfer
    bound with psi replaced by eps_t, using v_mid from the inferred task.
    """
    return _answer(
        certify_capability_estimation(spec_true, spec_inferred, settings), settings, solver
    )


def certify_capability_estimation(
    spec_true, spec_inferred, settings: SolveSettings = SolveSettings()
):
    """Calculator of bound_capability_estimation; requests (true, inferred)."""
    _require_shared_frame(spec_true, spec_inferred)
    if spec_true.team.num_agents != spec_inferred.team.num_agents:
        raise ValueError("true and inferred teams must have the same size")
    if not np.allclose(spec_true.weights.a, spec_inferred.weights.a, atol=1e-12):
        raise ValueError("capability estimation assumes identical influence weights")
    eps_t = float(
        np.max(np.abs(spec_true.team.matrix() - spec_inferred.team.matrix()))
    )
    mmdp_true = assemble_linear_mmdp(spec_true)
    (vt_true, _), (vt_inferred, policy_inferred) = yield (
        mmdp_true, assemble_linear_mmdp(spec_inferred)
    )
    value_optimal, value_executed, actual, state_max = _transfer_regret(
        mmdp_true, vt_true, policy_inferred, spec_true.rho, settings, "inferred"
    )
    smax = s_max(spec_true.reward_kernel, spec_true.states)
    vmid = v_mid(vt_inferred)
    gf = gamma_factor(spec_true.gamma)
    bound = 2.0 * _value_scale(gf, smax, spec_true, vmid) * eps_t
    parts = {
        "eps_t": eps_t,
        "s_max": smax,
        "v_mid": vmid,
        "gamma_factor": gf,
        "gamma": spec_true.gamma,
        "capability_dim": float(spec_true.capability_dim),
        "value_optimal": value_optimal,
        "value_executed": value_executed,
        "actual_state_max": state_max,
    }
    return BoundReport.build("capability_estimation", parts, bound, actual)


def bound_lipschitz(
    reward_map: LipschitzRewardSpec,
    team_x: TeamComposition,
    team_y: TeamComposition,
    mmdp_x: TabularMMDP,
    mmdp_y: TabularMMDP,
    reward_kernel: RewardKernel,
    settings: SolveSettings = SolveSettings(),
    solver: Solver | None = None,
) -> BoundReport:
    """Bound |V*_x - V*_y| when rewards come from a Lipschitz capability map.

    Transitions must be identical between the two tasks (reward-only
    variation); the bound is gamma_factor * s_max times the Lipschitz-weighted
    sum of member capability differences.
    """
    return _answer(
        certify_lipschitz(reward_map, team_x, team_y, mmdp_x, mmdp_y, reward_kernel, settings),
        settings,
        solver,
    )


def certify_lipschitz(
    reward_map: LipschitzRewardSpec,
    team_x: TeamComposition,
    team_y: TeamComposition,
    mmdp_x: TabularMMDP,
    mmdp_y: TabularMMDP,
    reward_kernel: RewardKernel,
    settings: SolveSettings = SolveSettings(),
):
    """Calculator of bound_lipschitz; requests (mmdp_x, mmdp_y)."""
    if team_x.num_agents != team_y.num_agents or team_x.dim != team_y.dim:
        raise ValueError("the two teams must have matching shapes")
    if reward_map.lipschitz_constants.shape[0] != team_x.num_agents:
        raise ValueError("one Lipschitz constant per member is required")
    if mmdp_x.gamma != mmdp_y.gamma or not mmdp_x.states.equals(mmdp_y.states):
        raise ValueError("the two tasks must share discount and state space")
    if (
        mmdp_x.num_joint_actions != mmdp_y.num_joint_actions
        or mmdp_x.transition_gaps(mmdp_y)[0] != 0.0
    ):
        raise ValueError("the Lipschitz bound requires identical transition dynamics")
    member_gaps = np.abs(team_x.matrix() - team_y.matrix()).max(axis=1)
    weighted_diff = float(reward_map.lipschitz_constants @ member_gaps)
    (vt_x, _), (vt_y, _) = yield mmdp_x, mmdp_y
    smax = s_max(reward_kernel, mmdp_x.states)
    gf = gamma_factor(mmdp_x.gamma)
    bound = gf * smax * weighted_diff
    value_x, value_y, actual, state_max = _value_gap(vt_x, vt_y, mmdp_x.rho, mmdp_y.rho)
    parts = {
        "lipschitz_weighted_diff": weighted_diff,
        "s_max": smax,
        "gamma_factor": gf,
        "gamma": mmdp_x.gamma,
        "value_x": value_x,
        "value_y": value_y,
        "actual_state_max": state_max,
    }
    return BoundReport.build("lipschitz", parts, bound, actual)


def bound_polynomial_deviation(alpha: float, degree: int, smax: float, delta: float) -> float:
    """Worst reward shift when one member's capabilities move by at most delta.

    Applies to polynomial reward specs with coefficients bounded by alpha and
    capabilities inside [0, 1]: alpha * delta * s_max * sum_j j * 2^(j-1)
    over degrees j up to the spec's degree.
    """
    if alpha < 0 or degree < 0 or smax < 0 or delta < 0:
        raise ValueError("all inputs must be non-negative")
    series = sum(j * 2 ** (j - 1) for j in range(degree + 1))
    return float(alpha * delta * smax * series)
