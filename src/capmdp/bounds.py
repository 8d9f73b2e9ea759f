"""Certified value-difference bounds between capability-parameterized teams.

Every calculator assembles the tasks it compares, gets their exact optimal
solves, computes a closed-form bound from team-level quantities, and returns
a BoundReport pairing the bound with the measured value difference. A report
is satisfied when the measurement does not exceed the bound beyond a fixed
additive tolerance; the certification harness treats any unsatisfied report
as a violation worth archiving.

Each calculator is written once, as a generator (certify_*) called with its
inputs and the solve tolerance, and holds only its validation, its distance
and its bound. It takes only the inputs its bound reads: the
out-of-distribution check takes the training support as bare teams, acting
with the query's influence weights, since its bound depends on the support
only through the team distance d_a. Requests are written once, in the two
measurements calculators delegate to with yield from: _optimal_gap solves
two tasks and measures the gap between their optimal values, and
_transfer_regret also evaluates the second's optimal policy on the first and
measures its regret. A Solver runs calculators: it holds the one solve
tolerance and memoizes optimal solves and policy evaluations by content.
Solver.run drives calculators in two rounds. Round one sends every
calculator on; each yields the tuple of MDPs it needs solved, and one
Solver.solve_all answers the union of those requests with (ValueTable,
JointPolicy) pairs. Round two sends each calculator still running its
answers; one that evaluates a policy yields the (mmdp, policy) pairs it
needs evaluated, and one Solver.evaluate_all answers their union with
ValueTables. A calculator returns its report in either round, or before it
makes any request (one that compares optimal values returns after its
solves). A round in which no calculator makes a request calls neither
method, and a third request raises RuntimeError. Solver.report runs one
calculator; the certification harness runs every check of an instance
together. Calculators comparing tasks of one instance share most of their
MDPs, so running them on one Solver solves each distinct MDP once and
evaluates each distinct policy on it once; a cached answer is the same
arrays a fresh one would be, made read-only. A Solver is not locked, so it
must not be shared between threads.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from ._digests import blake2b
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
    _backing,
    _once,
    policy_evaluation_stack,
    stack_key,
    value_iteration_stack,
)

BOUND_TOLERANCE = 1e-7
GAMMA_CROSSOVER = (math.sqrt(5.0) - 1.0) / 2.0
# Largest members x states x joint actions of one stacked dense solve or of
# one stacked evaluation: the entries of a dense value-iteration stack's
# expected-value buffer, and a dense stack's kernel copy holds states times
# as many. Past it a sweep's arithmetic outweighs its per-call overhead, so a
# bigger stack saves no time and only holds more memory; a policy on the
# 1024-state, 25-action foraging desk evaluates alone.
STACK_ENTRIES = 2**15
# Largest members x states of one indexed value-iteration stack, whose
# members hold one successor-index object (Solver.solve_all). Its answers are
# 16 bytes per state per member (4 MB at this cap), its value buffers
# mdp._BLOCK + 1 kept iterates (36 MB). On sure one-successor rows, as on
# every desk, it takes the blocked sweep, whose members share each gather,
# so a bigger stack saves time at any size; that adds one gather block of
# mdp.SCRATCH_ENTRIES entries and a joint-action-major copy of the rows it
# sweeps (the quotient's successor-class sets, or the index), and keeps no
# (S, A) table. Any other indexed stack takes the generic path and holds a
# (B, S, A) table of joint-action values, 8 bytes per member, state and joint
# action, and with K > 1 one member's (S, A, K) gather. Desk teams add no
# (S, A) array: they hold their layout's index, 8 bytes per state and joint
# action, checked once for all, and one broadcast probability each. The four
# desk MDPs of a 1024-state desk solve as one stack, and so do those of three
# agents on grid 5 (62,500 states each).
INDEXED_STACK_STATES = 2**18


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
        """The fields in declaration order, constituents spread after slack."""
        row = dict(vars(self))
        row.update(row.pop("constituents"))
        return row

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def psi(
    team_x: TeamComposition,
    weights_x: InfluenceWeights,
    team_y: TeamComposition,
    weights_y: InfluenceWeights,
) -> float:
    """Two-term capability discrepancy between weighted teams.

    First term: sup-norm of the x-weighted member-by-member capability
    difference. Second term: sup-norm of the weight-difference mixture of the
    y capabilities.
    """
    n = team_x.num_agents
    if team_y.num_agents != n or weights_x.num_agents != n or weights_y.num_agents != n:
        raise ValueError("both teams and weight vectors must have the same size")
    term_members = d_a_metric(team_x, team_y, weights_x)
    term_weights = float(np.max(np.abs((weights_x.a - weights_y.a) @ team_y.matrix())))
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
    """Runs calculators at one solve tolerance, memoizing solves and evaluations.

    tol is the convergence tolerance of every value iteration and policy
    evaluation the solver's calculators run. The solve memo key holds a
    BLAKE2b digest of the rewards, of the transitions and of the successor
    index (shape, dtype and stored bytes of each, _array_digest) and the
    discount's repr: with tol, the whole input of value_iteration. So a key
    depends on content and on which axes are broadcast: an indexed kernel
    and its dense twin never share an entry, nor do broadcast probabilities
    and their materialized twin. Every request is keyed from its MDP's
    content alone, so an array changed in place between two requests gets
    a fresh solve. An array that is read-only and owns its data cannot
    change, so it is digested once in the whole process (mdp._once): MDPs
    that share one successor index (the desk teams of one foraging layout)
    hash it once. An evaluation's key is its MDP's solve key and the
    policy's actions. Cached arrays are
    read-only, since every caller of a hit shares them. solve_all and
    evaluate_all answer many requests at once and run the uncached ones in
    stacks; each answer is bit for bit the one a stack of that request
    alone gives.
    """

    def __init__(self, tol: float = 1e-9):
        if isinstance(tol, bool) or not math.isfinite(tol) or tol <= 0:
            raise ValueError(f"tol must be positive and finite, got {tol!r}")
        self.tol = tol
        self._solved = {}
        self._evaluated = {}
        self.solves = 0
        self.hits = 0
        self.sweeps = 0
        self.max_sweeps = 0
        self.evaluations = 0
        self.evaluation_hits = 0
        self.evaluation_sweeps = 0

    def report(self, calculator, *args, **kwargs) -> BoundReport:
        """Report of calculator(*args, tol=self.tol, **kwargs), run here."""
        [(report, _)] = self.run([calculator(*args, tol=self.tol, **kwargs)])
        return report

    def run(self, calculators) -> list:
        """(report, seconds) of each started calculator, in order, run in two rounds.

        The rounds are those of the module docstring. seconds is the time
        spent inside a calculator's own sends, outside the shared solves and
        evaluations.
        """
        calculators = list(calculators)
        reports = [None] * len(calculators)
        seconds = [0.0] * len(calculators)
        sending = dict.fromkeys(range(len(calculators)))  # index -> what it is sent next
        for answer_all in (self.solve_all, self.evaluate_all, None):
            requests = {}
            for index, answers in sending.items():
                start = time.perf_counter()
                try:
                    requests[index] = calculators[index].send(answers)
                except StopIteration as done:
                    reports[index] = done.value
                seconds[index] += time.perf_counter() - start
            if not requests:
                break
            if answer_all is None:
                raise RuntimeError(
                    "a calculator makes at most two requests: solves, then evaluations"
                )
            answered = iter(answer_all([item for wanted in requests.values() for item in wanted]))
            sending = {index: [next(answered) for _ in wanted] for index, wanted in requests.items()}
        return list(zip(reports, seconds))

    def solve_all(self, mmdps) -> list:
        """(ValueTable, JointPolicy) of value_iteration on each of mmdps, in order.

        Requests with one content key are solved once; the MDPs not cached
        yet are solved together, one value_iteration_stack per (layout,
        kernel shape, discount) and, for indexed MDPs, per successor-index
        object, split so that no dense stack passes STACK_ENTRIES and no
        indexed one INDEXED_STACK_STATES. The first request of a key not
        cached yet counts as a solve, every other request as a hit.
        """
        mmdps = list(mmdps)
        keys = [_solve_key(mmdp) for mmdp in mmdps]
        solutions, hits, sweeps = self._answer_all(
            keys, mmdps, mmdps, self._solved, _solve_stack, _solve_stacking
        )
        self.solves += len(sweeps)
        self.hits += hits
        self.sweeps += sum(sweeps)
        self.max_sweeps = max([self.max_sweeps, *sweeps])
        return solutions

    def evaluate_all(self, requests) -> list:
        """ValueTable of policy_evaluation_stack on each (mmdp, policy) of requests, in order.

        Requests with one key (the MDP's solve key and the policy's actions)
        are evaluated once, and the rest are stacked as solve_all stacks its
        MDPs, one policy_evaluation_stack per stack. The first request of a
        key not cached yet counts as an evaluation, every other request as
        an evaluation hit.
        """
        requests = list(requests)
        keys = [(_solve_key(mmdp), policy.actions.tobytes()) for mmdp, policy in requests]
        mmdps = [mmdp for mmdp, _ in requests]
        values, hits, sweeps = self._answer_all(
            keys, requests, mmdps, self._evaluated, _evaluate_stack, _entries_stacking
        )
        self.evaluations += len(sweeps)
        self.evaluation_hits += hits
        self.evaluation_sweeps += sum(sweeps)
        return values

    def _answer_all(self, keys, requests, mmdps, cache, run_stack, stacking):
        """Answer each keyed request from cache, running the uncached ones in stacks.

        stacking(mmdp) gives (group, size): a stack holds requests whose
        MDPs (mmdps, one per request) are of one group, in the order their
        keys first appear, at most size of them. run_stack(requests, tol)
        returns a stack's answers and their sweep counts. Returns (answers
        in request order, hits, sweeps of each request run).
        """
        todo = {}
        hits = 0
        for key, request, mmdp in zip(keys, requests, mmdps):
            if key in cache or key in todo:
                hits += 1
            else:
                todo[key] = request, mmdp
        groups = {}
        for key, (_, mmdp) in todo.items():
            group, size = stacking(mmdp)
            groups.setdefault(group, (size, []))[1].append(key)
        sweeps = []
        for size, group in groups.values():
            for start in range(0, len(group), size):
                stack = group[start : start + size]
                answers, stack_sweeps = run_stack([todo[key][0] for key in stack], self.tol)
                cache.update(zip(stack, answers))
                sweeps.extend(stack_sweeps)
        return [cache[key] for key in keys], hits, sweeps

    def counts(self) -> dict:
        """Solves, cache hits and their sweeps (total and most); evaluations, hits and sweeps."""
        return {
            "value_iteration_solves": self.solves,
            "cache_hits": self.hits,
            "sweeps": self.sweeps,
            "max_sweeps": self.max_sweeps,
            "policy_evaluations": self.evaluations,
            "evaluation_hits": self.evaluation_hits,
            "evaluation_sweeps": self.evaluation_sweeps,
        }


def _entries_stacking(mmdp: TabularMMDP) -> tuple:
    """(mdp.stack_key, members per stack) of an evaluation or a dense solve, by STACK_ENTRIES."""
    return stack_key(mmdp), max(1, STACK_ENTRIES // (mmdp.num_states * mmdp.num_joint_actions))


def _solve_stacking(mmdp: TabularMMDP) -> tuple:
    """(group, members per stack) of a solve.

    An indexed MDP stacks only with MDPs that hold the same successor-index
    object, so a stack copies one index, at most INDEXED_STACK_STATES
    members x states per stack.
    """
    if mmdp.next_states is None:
        return _entries_stacking(mmdp)
    return (stack_key(mmdp), id(mmdp.next_states)), max(
        1, INDEXED_STACK_STATES // mmdp.num_states
    )


def _solve_stack(mmdps, tol: float):
    """value_iteration_stack, its solutions made read-only for the cache."""
    solutions, sweeps = value_iteration_stack(mmdps, tol)
    for values, policy in solutions:
        for arr in (values.v, policy.actions):
            arr.flags.writeable = False
    return solutions, sweeps


def _evaluate_stack(pairs, tol: float):
    """policy_evaluation_stack, its values made read-only for the cache."""
    values, sweeps = policy_evaluation_stack(pairs, tol)
    for table in values:
        table.v.flags.writeable = False
    return values, sweeps


def _solve_key(mmdp: TabularMMDP) -> tuple:
    """The BLAKE2b digests of the rewards, transitions and successor index, and repr(gamma).

    The index digest is None for a dense MDP. A read-only array that owns
    its data is digested once (mdp._once).
    """
    index = mmdp.next_states
    return (
        _once(_array_digest, mmdp.rewards),
        _once(_array_digest, mmdp.transitions),
        None if index is None else _once(_array_digest, index),
        repr(mmdp.gamma),
    )


def _array_digest(arr: np.ndarray) -> bytes:
    """BLAKE2b of an array's shape, its stored shape and dtype, and its stored bytes.

    The stored entries are mdp._backing's. With both shapes the header says
    which axes broadcast, so a broadcast array and its materialized twin get
    different digests, and equal arrays broadcast alike get one.
    """
    stored = _backing(arr)
    digest = blake2b(f"{arr.shape}{stored.shape}{arr.dtype.str};".encode())
    digest.update(memoryview(np.ascontiguousarray(stored)).cast("B"))
    return digest.digest()


def _optimal_gap(mmdp_x, mmdp_y, rho_x, rho_y, names=("value_x", "value_y")):
    """Request the optimal solves of (x, y) and measure the gap between their values.

    Returns (y's optimal ValueTable, |value_x - value_y|, columns): the
    columns hold the rho-weighted optimal values under names and the
    per-state max gap as actual_state_max.
    """
    (vt_x, _), (vt_y, _) = yield mmdp_x, mmdp_y
    value_x = vt_x.scalar(rho_x)
    value_y = vt_y.scalar(rho_y)
    columns = {
        names[0]: value_x,
        names[1]: value_y,
        "actual_state_max": float(np.max(np.abs(vt_x.v - vt_y.v))),
    }
    return vt_y, abs(value_x - value_y), columns


def _transfer_regret(mmdp, source, tol: float, label, executed_name="value_transferred"):
    """Request the solves of (mmdp, source), then source's optimal policy run on mmdp.

    Returns (source's optimal ValueTable, the regret V*_mmdp - V^{pi*_source}_mmdp,
    columns): the columns hold the rho-weighted optimal value as
    value_optimal, the executed policy's as executed_name, and the per-state
    max regret as actual_state_max. A regret below -2 * tol means the solver
    contradicted itself.
    """
    (optimal, _), (vt_source, policy) = yield mmdp, source
    [executed] = yield ((mmdp, policy),)
    value_optimal = optimal.scalar(mmdp.rho)
    value_executed = executed.scalar(mmdp.rho)
    actual = value_optimal - value_executed
    if actual < -2.0 * tol:
        raise RuntimeError(
            f"{label} policy beat the optimal value by {-actual:.3e}; solver inconsistency"
        )
    columns = {
        "value_optimal": value_optimal,
        executed_name: value_executed,
        "actual_state_max": float(np.max(optimal.v - executed.v)),
    }
    return vt_source, actual, columns


def _linear_scale(spec: LinearMMDPSpec, reference: ValueTable, leading: dict):
    """gamma_factor * (s_max + gamma * d * v_mid), the factor every linear bound shares.

    v_mid comes from the reference task's optimal values. Returns the scale
    and the report constituents: leading's entries, then s_max, v_mid,
    gamma_factor, gamma and capability_dim.
    """
    smax = s_max(spec.reward_kernel, spec.states)
    vmid = v_mid(reference)
    gf = gamma_factor(spec.gamma)
    parts = {
        **leading,
        "s_max": smax,
        "v_mid": vmid,
        "gamma_factor": gf,
        "gamma": spec.gamma,
        "capability_dim": float(spec.capability_dim),
    }
    return gf * (smax + spec.gamma * spec.capability_dim * vmid), parts


def _psi_scale(spec_x: LinearMMDPSpec, spec_y: LinearMMDPSpec, reference: ValueTable):
    """_linear_scale of spec_x, led by psi between the two specs' teams."""
    psi_value = psi(spec_x.team, spec_x.weights, spec_y.team, spec_y.weights)
    scale, parts = _linear_scale(spec_x, reference, {"psi": psi_value})
    # psi compares the teams member by member, so this is always the
    # identity's code; the column stays because dropping it would change
    # every row's determinism_hash
    n = spec_x.team.num_agents
    parts["psi_permutation_code"] = float(sum(d * 10 ** (n - 1 - d) for d in range(n)))
    return scale, parts


def certify_team_generalization(spec_x, spec_y, *, tol: float):
    """Bound |V*_x - V*_y| for two teams sharing every kernel.

    The bound is gamma_factor * (s_max + gamma * d * v_mid) * psi with v_mid
    taken from the second (reference) task's optimal values. The measurement
    is the absolute difference of rho-weighted optimal values; the per-state
    max difference is reported alongside. Requests (x, y).
    """
    _require_shared_frame(spec_x, spec_y)
    vt_y, actual, columns = yield from _optimal_gap(
        assemble_linear_mmdp(spec_x), assemble_linear_mmdp(spec_y), spec_x.rho, spec_y.rho
    )
    scale, parts = _psi_scale(spec_x, spec_y, vt_y)
    bound = scale * parts["psi"]
    return BoundReport.build("team_generalization", {**parts, **columns}, bound, actual)


def certify_policy_transfer(spec_x, spec_y, *, tol: float):
    """Bound the regret of running the second team's optimal policy on the first.

    Exactly twice the team-generalization bound. The measurement is
    V*_x - V^{pi*_y}_x, which can never fall below -2 * tol. Requests (x, y),
    then the evaluation of pi*_y on x.
    """
    _require_shared_frame(spec_x, spec_y)
    vt_y, actual, columns = yield from _transfer_regret(
        assemble_linear_mmdp(spec_x), assemble_linear_mmdp(spec_y), tol, "transferred"
    )
    scale, parts = _psi_scale(spec_x, spec_y, vt_y)
    bound = 2.0 * scale * parts["psi"]
    return BoundReport.build("policy_transfer", {**parts, **columns}, bound, actual)


def certify_out_of_distribution(support_teams, query_spec, *, tol: float):
    """Bound the regret of the closest support team's policy on an unseen team.

    Every support team acts with the query's influence weights. The selected
    task is the d_a-closest support team (the lowest index on ties), and the
    bound is the policy-transfer bound at that distance d_a. Requests (query,
    selected), then the evaluation of the selected policy on the query.
    """
    if not support_teams:
        raise ValueError("the support must hold at least one team")
    distances = [d_a_metric(query_spec.team, team, query_spec.weights) for team in support_teams]
    selected = int(np.argmin(distances))
    distance = distances[selected]
    spec_sel = query_spec.with_team(support_teams[selected], query_spec.weights)
    vt_sel, actual, columns = yield from _transfer_regret(
        assemble_linear_mmdp(query_spec), assemble_linear_mmdp(spec_sel), tol, "selected"
    )
    scale, parts = _linear_scale(
        query_spec, vt_sel, {"d_a": distance, "selected_index": float(selected)}
    )
    bound = 2.0 * scale * distance
    return BoundReport.build("out_of_distribution", {**parts, **columns}, bound, actual)


def certify_population_change(
    spec: LinearMMDPSpec,
    mode: str,
    new_capability=None,
    new_weight: float | None = None,
    *,
    tol: float,
):
    """Bound the optimal-value shift when the team loses or gains a member.

    remove-last drops the final member and renormalizes the remaining
    influence weights; add-member appends a capability with a given weight
    and scales the old weights down. Either way the bound is the changed
    weight times the sup-norm gap between the unchanged mixture and the
    changed member's capabilities. Requests (before, after).
    """
    if mode == "remove-last":
        if spec.team.num_agents < 2:
            raise ValueError("removing a member needs at least two members")
        a = spec.weights.a
        last_weight = float(a[-1])
        if last_weight >= 1.0 - 1e-12:
            raise ValueError("the last member carries all influence; removal is degenerate")
        reduced_weights = a[:-1] / (1.0 - last_weight)
        reduced_team = spec.team.drop_last()
        mixture = reduced_weights @ reduced_team.matrix()
        changed_member = spec.team.members[-1]
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
        mixture = spec.weights.a @ spec.team.matrix()
        changed_member = enlarged_team.members[-1]
        enlarged_weights = np.concatenate(
            [spec.weights.a * (1.0 - new_weight), [new_weight]]
        )
        changed = spec.with_team(enlarged_team, InfluenceWeights(enlarged_weights))
        changed_weight = new_weight
        name = "population_increase"
    else:
        raise ValueError(f"unknown population-change mode {mode!r}")
    mixture_gap = float(np.max(np.abs(mixture - changed_member.c)))
    vt_after, actual, columns = yield from _optimal_gap(
        assemble_linear_mmdp(spec),
        assemble_linear_mmdp(changed),
        spec.rho,
        spec.rho,
        names=("value_before", "value_after"),
    )
    scale, parts = _linear_scale(
        spec, vt_after, {"changed_weight": changed_weight, "mixture_gap": mixture_gap}
    )
    bound = scale * changed_weight * mixture_gap
    return BoundReport.build(name, {**parts, **columns}, bound, actual)


def certify_approx_dynamics(
    spec_x: LinearMMDPSpec,
    spec_y: LinearMMDPSpec,
    mmdp_x_actual: TabularMMDP,
    mmdp_y_actual: TabularMMDP,
    *,
    tol: float,
):
    """Team-generalization bound when the real dynamics are only nearly linear.

    Measures the worst reward deviation eps_hat_r and transition-entry
    deviation eps_hat_p between each actual MDP and its assembled linear
    form, then adds 2 * gamma_factor * (eps_hat_r + gamma * eps_hat_p * v_mid)
    to the exact-linear bound. With zero deviations it reduces to the
    team-generalization report exactly. Requests the two actual MDPs.
    """
    _require_shared_frame(spec_x, spec_y)
    eps_hat_r = eps_hat_p = 0.0
    for actual, spec, label in ((mmdp_x_actual, spec_x, "x"), (mmdp_y_actual, spec_y, "y")):
        linear = assemble_linear_mmdp(spec)
        if not actual.states.equals(linear.states):
            raise ValueError(f"actual MDP {label} does not share the spec's state space")
        if actual.num_joint_actions != linear.num_joint_actions:
            raise ValueError(f"actual MDP {label} does not share the spec's action space")
        if actual.gamma != linear.gamma:
            raise ValueError(f"actual MDP {label} does not share the spec's discount")
        eps_hat_r = max(eps_hat_r, float(np.max(np.abs(actual.rewards - linear.rewards))))
        eps_hat_p = max(eps_hat_p, actual.transition_gaps(linear)[0])
    vt_y, actual, columns = yield from _optimal_gap(
        mmdp_x_actual, mmdp_y_actual, spec_x.rho, spec_y.rho
    )
    scale, parts = _psi_scale(spec_x, spec_y, vt_y)
    bound = scale * parts["psi"] + (
        2.0 * parts["gamma_factor"] * (eps_hat_r + spec_x.gamma * eps_hat_p * parts["v_mid"])
    )
    parts.update({"eps_hat_r": eps_hat_r, "eps_hat_p": eps_hat_p, **columns})
    return BoundReport.build("approx_dynamics", parts, bound, actual)


def certify_capability_estimation(spec_true, spec_inferred, *, tol: float):
    """Bound the regret of planning with estimated capabilities.

    Both specs must carry identical influence weights. eps_t is the largest
    member-wise sup-norm estimation error; the bound is the policy-transfer
    bound with psi replaced by eps_t, using v_mid from the inferred task.
    Requests (true, inferred), then the evaluation of the inferred policy on
    the true task.
    """
    _require_shared_frame(spec_true, spec_inferred)
    if spec_true.team.num_agents != spec_inferred.team.num_agents:
        raise ValueError("true and inferred teams must have the same size")
    if not np.allclose(spec_true.weights.a, spec_inferred.weights.a, rtol=0.0, atol=1e-12):
        raise ValueError("capability estimation assumes identical influence weights")
    eps_t = float(
        np.max(np.abs(spec_true.team.matrix() - spec_inferred.team.matrix()))
    )
    vt_inferred, actual, columns = yield from _transfer_regret(
        assemble_linear_mmdp(spec_true),
        assemble_linear_mmdp(spec_inferred),
        tol,
        "inferred",
        executed_name="value_executed",
    )
    scale, parts = _linear_scale(spec_true, vt_inferred, {"eps_t": eps_t})
    bound = 2.0 * scale * eps_t
    return BoundReport.build("capability_estimation", {**parts, **columns}, bound, actual)


def certify_lipschitz(
    reward_map: LipschitzRewardSpec,
    team_x: TeamComposition,
    team_y: TeamComposition,
    mmdp_x: TabularMMDP,
    mmdp_y: TabularMMDP,
    reward_kernel: RewardKernel,
    *,
    tol: float,
):
    """Bound |V*_x - V*_y| when rewards come from a Lipschitz capability map.

    Transitions must be identical between the two tasks (reward-only
    variation); the bound is gamma_factor * s_max times the Lipschitz-weighted
    sum of member capability differences. Requests (mmdp_x, mmdp_y).
    """
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
    _, actual, columns = yield from _optimal_gap(mmdp_x, mmdp_y, mmdp_x.rho, mmdp_y.rho)
    smax = s_max(reward_kernel, mmdp_x.states)
    gf = gamma_factor(mmdp_x.gamma)
    bound = gf * smax * weighted_diff
    parts = {
        "lipschitz_weighted_diff": weighted_diff,
        "s_max": smax,
        "gamma_factor": gf,
        "gamma": mmdp_x.gamma,
        **columns,
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
