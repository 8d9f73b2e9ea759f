"""Finite cooperative multi-agent MDPs and exact dynamic-programming solvers.

States are feature vectors in [0, 1]^k. All agents act simultaneously and
share one team reward, so planning reduces to a single-agent MDP over the
joint action space. Joint actions are indexed row-major over the per-agent
action digits with agent 0 as the slowest-varying digit.

A transition kernel has one of two layouts. Dense, it is an (S, A, S)
tensor of next-state probabilities. Indexed, an (S, A, K) integer array
names each row's K successors and an (S, A, K) array holds their
probabilities, so a sparse kernel such as a deterministic gridworld stores
one entry per row instead of S. Every solver reads either layout through
one expected-next-value map; with one sure successor per row, an indexed
kernel solves bit for bit like its dense twin. These are exact desk-scale
solvers, not large-scale approximate ones.

Every solver runs one successive-approximation loop, _fixed_point, in
place over preallocated buffers. Its sweep is the backup base + gamma * E[x]
for policy evaluation and successor features. Value iteration takes the max
of E[v] over joint actions first and then scales and adds the reward on the
per-state maxima only: for gamma >= 0, x -> fl(r + fl(gamma * x)) is
monotone under round-to-nearest, so it commutes with the max and the bits
are those of max(r + gamma * E[v]). An indexed kernel is read
joint-action-major for that max, from an (A, S, K) copy made per solve, and
rows with one successor skip the sum over successors. The loop checks
convergence once per block of sweeps, from the kept iterates of the block,
so each member still stops on its own first sweep within tol. It runs a
stack of MDPs of one layout, shape and discount at once
(value_iteration_stack, policy_evaluation_stack): dense kernels are stacked
once, so a sweep makes one batched kernel product and a handful of
whole-stack array calls however many members it backs up, which removes
most of the per-call overhead of small solves. Each member gets exactly the
arrays value_iteration or policy_evaluation, each a stack of one, gives it.
"""

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

DISTRIBUTION_ATOL = 1e-9
VALUE_TABLE_ATOL = 1e-6


class SolverConvergenceError(RuntimeError):
    """A fixed-point solve stopped before reaching its tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(
            f"{message}: residual {residual:.6e} after {iterations} iterations"
        )
        self.residual = float(residual)
        self.iterations = int(iterations)


def check_distribution(vec, name: str, atol: float = DISTRIBUTION_ATOL) -> np.ndarray:
    """Validate a 1-d probability vector and return it as float64."""
    arr = np.asarray(vec, dtype=float)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector")
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name} sums to {total!r}, expected 1 within {atol}")
    return arr


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Finite state set, one k-dimensional feature vector per state."""

    features: np.ndarray  # (num_states, feature_dim), components in [0, 1]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] == 0 or feats.shape[1] == 0:
            raise ValueError("features must be a non-empty (num_states, feature_dim) matrix")
        if np.any(feats < -1e-12) or np.any(feats > 1.0 + 1e-12):
            raise ValueError("state feature components must lie in [0, 1]")
        object.__setattr__(self, "features", feats)

    @property
    def num_states(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def equals(self, other: "StateSpace") -> bool:
        return np.array_equal(self.features, other.features)


def check_next_states(next_states, num_states: int, num_joint_actions: int) -> np.ndarray:
    """Validate an (S, A, K) successor index and return it as int64.

    Raises ValueError naming the first (s, u) row that points outside the
    state space.
    """
    idx = np.asarray(next_states)
    if (
        idx.ndim != 3
        or idx.shape[:2] != (num_states, num_joint_actions)
        or idx.shape[2] == 0
        or not np.issubdtype(idx.dtype, np.integer)
    ):
        raise ValueError(
            f"next_states must be an integer ({num_states}, {num_joint_actions}, K) array "
            f"with K >= 1, got {idx.dtype} {idx.shape}"
        )
    outside = (idx < 0) | (idx >= num_states)
    if np.any(outside):
        s, u = np.argwhere(outside.any(axis=2))[0]
        raise ValueError(
            f"successor row (s={s}, u={u}) names a state outside [0, {num_states})"
        )
    return idx.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class TabularMMDP:
    """Cooperative MDP: shared team reward, joint-action transitions.

    Dense layout (next_states None): transitions[s, u, s'] is the probability
    of moving from state s to s' under joint action index u. Indexed layout:
    transitions[s, u, k] is the probability of moving to next_states[s, u, k];
    a successor may repeat within a row. The reward depends on the state only.
    """

    states: StateSpace
    num_agents: int
    actions_per_agent: int
    rewards: np.ndarray      # (num_states,)
    transitions: np.ndarray  # (S, A, S) dense, or (S, A, K) beside next_states
    gamma: float
    rho: np.ndarray          # initial state distribution, (num_states,)
    next_states: np.ndarray | None = None  # (S, A, K) successor index, or None

    def __post_init__(self):
        if self.num_agents < 1 or self.actions_per_agent < 1:
            raise ValueError("need at least one agent and one action per agent")
        s = self.states.num_states
        a = self.actions_per_agent ** self.num_agents
        rewards = np.asarray(self.rewards, dtype=float)
        if rewards.shape != (s,):
            raise ValueError(f"rewards must have shape ({s},), got {rewards.shape}")
        if not np.all(np.isfinite(rewards)):
            raise ValueError("rewards must be finite")
        trans = np.asarray(self.transitions, dtype=float)
        if self.next_states is None:
            if trans.shape != (s, a, s):
                raise ValueError(
                    f"transitions must have shape ({s}, {a}, {s}), got {trans.shape}"
                )
        else:
            next_states = check_next_states(self.next_states, s, a)
            if trans.shape != next_states.shape:
                raise ValueError(
                    f"transitions must match next_states' shape {next_states.shape}, "
                    f"got {trans.shape}"
                )
            object.__setattr__(self, "next_states", next_states)
        _check_transition_rows(trans)
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        rho = check_distribution(self.rho, "rho")
        if rho.shape != (s,):
            raise ValueError(f"rho must have shape ({s},), got {rho.shape}")
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "rho", rho)

    @property
    def num_states(self) -> int:
        return self.states.num_states

    @property
    def num_joint_actions(self) -> int:
        return self.actions_per_agent ** self.num_agents

    def joint_action_index(self, actions) -> int:
        """Row-major joint index of a per-agent action tuple (agent 0 slowest)."""
        dims = (self.actions_per_agent,) * self.num_agents
        return int(np.ravel_multi_index(tuple(int(a) for a in actions), dims))

    def joint_action_tuple(self, index: int) -> tuple:
        dims = (self.actions_per_agent,) * self.num_agents
        return tuple(int(x) for x in np.unravel_index(int(index), dims))

    def to_json(self) -> str:
        doc = {
            "features": self.states.features.tolist(),
            "num_agents": self.num_agents,
            "actions_per_agent": self.actions_per_agent,
            "rewards": self.rewards.tolist(),
            "transitions": self.transitions.tolist(),
            "gamma": self.gamma,
            "rho": self.rho.tolist(),
        }
        if self.next_states is not None:
            doc["next_states"] = self.next_states.tolist()
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "TabularMMDP":
        doc = json.loads(text)
        return cls(
            states=StateSpace(np.asarray(doc["features"], dtype=float)),
            num_agents=int(doc["num_agents"]),
            actions_per_agent=int(doc["actions_per_agent"]),
            rewards=np.asarray(doc["rewards"], dtype=float),
            transitions=np.asarray(doc["transitions"], dtype=float),
            gamma=float(doc["gamma"]),
            rho=np.asarray(doc["rho"], dtype=float),
            next_states=(
                np.asarray(doc["next_states"], dtype=np.int64) if "next_states" in doc else None
            ),
        )

    def equals(self, other: "TabularMMDP") -> bool:
        """Same contents in the same layout (array_equal(None, None) is True)."""
        return (
            self.states.equals(other.states)
            and self.num_agents == other.num_agents
            and self.actions_per_agent == other.actions_per_agent
            and np.array_equal(self.rewards, other.rewards)
            and np.array_equal(self.transitions, other.transitions)
            and np.array_equal(self.next_states, other.next_states)
            and self.gamma == other.gamma
            and np.array_equal(self.rho, other.rho)
        )

    def transition_gaps(self, other: "TabularMMDP") -> tuple[float, float]:
        """Largest per-successor and largest L1 row gap between two kernels.

        Compares the distributions the kernels represent, whatever their
        layouts: indexed rows are first merged by successor state. Both MDPs
        must have the same numbers of states and joint actions.
        """
        if (
            self.num_states != other.num_states
            or self.num_joint_actions != other.num_joint_actions
        ):
            raise ValueError("transition gaps need matching state and joint-action counts")
        if self.next_states is None and other.next_states is None:
            gap = np.abs(self.transitions - other.transitions)
            return float(gap.max()), float(gap.sum(axis=2).max())
        num_states = self.num_states

        def successors(mmdp):
            if mmdp.next_states is not None:
                return mmdp.next_states
            return np.broadcast_to(np.arange(num_states), mmdp.transitions.shape)

        index = np.concatenate([successors(self), successors(other)], axis=2)
        signed = np.concatenate([self.transitions, -other.transitions], axis=2)
        num_rows = num_states * self.num_joint_actions
        row = np.arange(num_rows).repeat(index.shape[2])
        keys, slot = np.unique(row * num_states + index.ravel(), return_inverse=True)
        gap = np.abs(np.bincount(slot, weights=signed.ravel()))
        row_l1 = np.bincount(keys // num_states, weights=gap, minlength=num_rows)
        return float(gap.max()), float(row_l1.max())


def _check_transition_rows(trans: np.ndarray, atol: float = DISTRIBUTION_ATOL):
    """Reject (S, A, ...) transition rows that are not distributions, naming (s, u)."""
    neg = trans < 0
    if np.any(neg):
        s, u = np.argwhere(neg.any(axis=2))[0]
        raise ValueError(f"transition row (s={s}, u={u}) has a negative entry")
    sums = trans.sum(axis=2)
    bad = np.abs(sums - 1.0) > atol
    if np.any(bad):
        s, u = np.argwhere(bad)[0]
        raise ValueError(
            f"transition row (s={s}, u={u}) sums to {sums[s, u]!r}, expected 1 within {atol}"
        )


@dataclass(frozen=True, eq=False)
class JointPolicy:
    """Deterministic map from state index to joint action index."""

    actions: np.ndarray  # (num_states,), int

    def __post_init__(self):
        acts = np.asarray(self.actions)
        if acts.ndim != 1 or not np.issubdtype(acts.dtype, np.integer):
            raise ValueError("policy actions must be a 1-d integer array")
        if np.any(acts < 0):
            raise ValueError("policy actions must be non-negative")
        object.__setattr__(self, "actions", acts.astype(np.int64))

    def validate_for(self, mmdp: TabularMMDP):
        if self.actions.shape != (mmdp.num_states,):
            raise ValueError("policy length does not match the state space")
        if np.any(self.actions >= mmdp.num_joint_actions):
            raise ValueError("policy selects an out-of-range joint action")


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Per-state values, optionally with the joint-action value table.

    When q is present, v must equal the per-state max of q (the greedy
    consistency the optimal solver guarantees by construction).
    """

    v: np.ndarray                # (num_states,)
    q: np.ndarray | None = None  # (num_states, num_joint_actions)

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 1:
            raise ValueError("v must be a 1-d vector")
        object.__setattr__(self, "v", v)
        if self.q is not None:
            q = np.asarray(self.q, dtype=float)
            if q.ndim != 2 or q.shape[0] != v.shape[0]:
                raise ValueError("q must be (num_states, num_joint_actions)")
            if np.max(np.abs(q.max(axis=1) - v)) > VALUE_TABLE_ATOL:
                raise ValueError("v is not the per-state max of q")
            object.__setattr__(self, "q", q)

    def scalar(self, rho: np.ndarray) -> float:
        """Expected value under an initial state distribution."""
        return float(np.asarray(rho, dtype=float) @ self.v)


@dataclass(frozen=True, eq=False)
class SuccessorFeatures:
    """Discounted feature occupancies of a fixed policy.

    mu_per_state[s] = E[sum_t gamma^t phi(s_t) | s_0 = s]; mu_scalar is the
    rho-weighted average of the per-state rows.
    """

    mu_per_state: np.ndarray  # (num_states, feature_dim)
    mu_scalar: np.ndarray     # (feature_dim,)

    def __post_init__(self):
        m = np.asarray(self.mu_per_state, dtype=float)
        s = np.asarray(self.mu_scalar, dtype=float)
        if m.ndim != 2 or s.shape != (m.shape[1],):
            raise ValueError("mu_scalar must match the feature dimension of mu_per_state")
        object.__setattr__(self, "mu_per_state", m)
        object.__setattr__(self, "mu_scalar", s)


def _next_value(kernels, num_states: int, columns: int):
    """The in-place map (v, out) -> expected v at the next state, per kernel row.

    kernels lists the (transitions, next_states) pairs of B members of one
    layout and shape: transitions is (*rows, S) with next_states None, or
    (*rows, K) beside a successor index of the same shape. v is
    (B, S, columns), one value column per state or one per feature, and out
    receives the (B, *rows, columns) result. The layout is chosen here once,
    so a solve's sweeps run without re-checking it. Dense kernels are copied
    once into one (B, *rows, S) stack (a lone kernel is viewed, not copied),
    so a sweep makes one matmul for the whole stack; indexed kernels are read
    where they lie, member by member.
    """
    if kernels[0][1] is None:
        # matmul loops over the stack and runs the same product per (member,
        # row block) that it runs on one member alone, so no bit depends on
        # the rest of the stack
        if len(kernels) == 1:
            stacked = kernels[0][0][None]
        else:
            stacked = np.stack([trans for trans, _ in kernels])
        vector = (len(kernels),) + (1,) * (stacked.ndim - 3) + (num_states, columns)

        def expect(v, out):
            np.matmul(stacked, v.reshape(vector), out=out)

        return expect
    if kernels[0][1].shape[-1] == 1:
        # a one-term sum is that term, and 1 * x is x: rows with one successor
        # skip the sum over successors, and sure ones the product as well
        probs = [None if np.all(trans == 1.0) else trans for trans, _ in kernels]
        successors = [succ[..., 0] for _, succ in kernels]

        def expect(v, out):
            for member, (prob, succ) in enumerate(zip(probs, successors)):
                # successors were range-checked when the MDP was built
                np.take(v[member], succ, axis=0, out=out[member], mode="clip")
                if prob is not None:
                    np.multiply(out[member], prob, out=out[member])

        return expect
    probs = [trans[..., None] for trans, _ in kernels]
    successors = [succ for _, succ in kernels]
    gathered = np.empty(successors[0].shape + (columns,))

    def expect(v, out):
        for member, (prob, succ) in enumerate(zip(probs, successors)):
            # successors were range-checked when the MDP was built
            np.take(v[member], succ, axis=0, out=gathered, mode="clip")
            np.multiply(gathered, prob, out=gathered)
            np.sum(gathered, axis=-2, out=out[member])

    return expect


def stack_key(mmdp: TabularMMDP) -> tuple:
    """(dense layout?, kernel shape, discount): MDPs stack together only when these match."""
    return mmdp.next_states is None, mmdp.transitions.shape, mmdp.gamma


def _check_stack(mmdps):
    """Reject a stack whose MDPs differ in layout, kernel shape or discount."""
    shared = stack_key(mmdps[0])
    if any(stack_key(m) != shared for m in mmdps):
        raise ValueError("stacked MDPs must share one layout, kernel shape and discount")


def _backup(expect, base, gamma: float, v, out):
    """out <- base + gamma * E[v], in place: the one backup every solver makes."""
    expect(v, out)
    np.multiply(out, gamma, out=out)
    np.add(out, base, out=out)


# sweeps run between two convergence checks; a member's stop and sweep count
# do not depend on it, only how many sweeps past the last stop a solve makes
_BLOCK = 16


def _fixed_point(sweep, x, tol: float, max_iters: int, what: str):
    """Iterate sweep(x, out), out <- F(x), from the zero (B, S, columns) stack x.

    Each member stops at its own first sweep that moves it by <= tol; every
    operation acts on each member's entries alone. The iterates of a block of
    _BLOCK sweeps are kept, and the residuals of the whole block are taken in
    one pass, so a member may be swept past its stop but always returns the
    iterate and count of its first sweep within tol. Returns (its
    (S, columns) fixed point, its sweep count) per member.

    Raises:
        SolverConvergenceError: if some member does not reach tol within
            max_iters sweeps, with the worst residual among those members.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = x.shape[0]
    history = np.empty((_BLOCK + 1,) + x.shape)
    history[0] = x
    change = np.empty((_BLOCK,) + x.shape)
    residual = np.full((_BLOCK, b), np.inf)
    short = np.ones(b, dtype=bool)  # members whose sweeps have not reached tol
    points = [None] * b
    sweeps = [0] * b
    done = size = 0
    while done < max_iters:
        size = min(_BLOCK, max_iters - done)
        for step in range(size):
            sweep(history[step], history[step + 1])
        np.subtract(history[1 : size + 1], history[:size], out=change[:size])
        np.abs(change[:size], out=change[:size])
        np.maximum.reduce(change[:size], axis=(2, 3), out=residual[:size])
        hit = (residual[:size] <= tol) & short
        for i in np.flatnonzero(hit.any(axis=0)):
            step = int(hit[:, i].argmax())
            points[i] = history[step + 1, i].copy()
            sweeps[i] = done + step + 1
            short[i] = False
        done += size
        if not short.any():
            return points, sweeps
        history[0] = history[size]
    # with no sweep at all (max_iters < 1), residual[-1] is still inf
    worst = residual[size - 1][short].max()
    raise SolverConvergenceError(f"{what} did not converge", worst, max_iters)


def value_iteration_stack(mmdps, tol: float = 1e-9, max_iters: int = 10**6):
    """value_iteration on several MDPs at once, in the one stacked sweep loop.

    The MDPs must share one layout, kernel shape and discount. A sweep takes
    every member's expected next values E[v] for all joint actions at once
    (one batched kernel product for a dense stack) and their max over joint
    actions, and only then scales and adds the reward on the (B, S) maxima.
    That gives the bits of max(r + gamma * E[v]): for gamma >= 0, x ->
    fl(r + fl(gamma * x)) is monotone under round-to-nearest, so it commutes
    with the max. An indexed stack is read joint-action-major: each member's
    successor index and probabilities are copied once, per solve, into
    (A, S, K) order, so the max reduces over the outer axis; max is exact in
    any order. Each member stops at its own first sweep whose change is
    <= tol (the loop checks a block of sweeps at once; see _fixed_point);
    one more stacked backup of the stopped values then builds each member's
    full q, its v and its greedy policy. Every operation acts on each
    member's entries alone, so each result is bit for bit the one
    value_iteration gives that MDP.

    Returns:
        (solutions, sweeps): one (ValueTable, JointPolicy) per MDP in input
        order, and the number of sweeps each took to reach tol.

    Raises:
        SolverConvergenceError: if some member does not reach tol within
            max_iters sweeps, with the worst residual among those members.
    """
    mmdps = list(mmdps)
    if not mmdps:
        return [], []
    _check_stack(mmdps)
    first = mmdps[0]
    b, s = len(mmdps), first.num_states
    r = np.stack([m.rewards for m in mmdps]).reshape(b, s, 1)
    if first.next_states is None:
        kernels = [(m.transitions, None) for m in mmdps]
        joint = 2
    else:
        # joint-action-major copies, so the max reduces over the outer axis
        kernels = [
            (m.transitions.swapaxes(0, 1).copy(), m.next_states.swapaxes(0, 1).copy())
            for m in mmdps
        ]
        joint = 1
    expect = _next_value(kernels, s, 1)
    # q[..., 0] is (B, S, A) dense and (B, A, S) indexed; joint is its joint-action axis
    q = np.empty((b,) + kernels[0][0].shape[:2] + (1,))
    del kernels  # expect keeps what its sweeps read, so unread copies go now

    def best_next_value(v, out):
        expect(v, q)
        np.maximum.reduce(q, axis=joint, out=out)

    points, sweeps = _fixed_point(
        partial(_backup, best_next_value, r, first.gamma),
        np.zeros((b, s, 1)), tol, max_iters, "value iteration",
    )
    # one more backup keeps v, q, and the greedy policy exactly consistent
    _backup(expect, np.expand_dims(r, joint), first.gamma, np.stack(points), q)
    solutions = []
    for q_i in np.moveaxis(q[..., 0], joint, 2):
        q_i = q_i.copy()
        solutions.append((ValueTable(v=q_i.max(axis=1), q=q_i), JointPolicy(q_i.argmax(axis=1))))
    return solutions, sweeps


def value_iteration(
    mmdp: TabularMMDP, tol: float = 1e-9, max_iters: int = 10**6
) -> tuple[ValueTable, JointPolicy]:
    """Solve for the optimal value function by Bellman backups.

    Stops once the sup-norm change between sweeps is <= tol, which bounds the
    Bellman residual of the returned values by gamma * tol. Greedy ties break
    toward the lowest joint action index. A stack of one in
    value_iteration_stack.

    Returns:
        (ValueTable with v and q, greedy JointPolicy).

    Raises:
        SolverConvergenceError: if max_iters sweeps do not reach tol.
    """
    [solution], _ = value_iteration_stack([mmdp], tol, max_iters)
    return solution


def _policy_kernels(pairs):
    """(transitions, next_states) of the rows each (mmdp, policy) pair's policy selects."""
    kernels = []
    for mmdp, policy in pairs:
        policy.validate_for(mmdp)
        rows = (np.arange(mmdp.num_states), policy.actions)
        next_states = None if mmdp.next_states is None else mmdp.next_states[rows]
        kernels.append((mmdp.transitions[rows], next_states))
    return kernels


def policy_evaluation_stack(pairs, tol: float = 1e-9, max_iters: int = 10**6):
    """policy_evaluation of several (mmdp, policy) pairs at once, in the one stacked sweep loop.

    The MDPs must share one layout, kernel shape and discount; the policies
    may differ. Each member stops at its own first sweep whose change is
    <= tol, and every operation acts on each member's entries alone, so each
    result is bit for bit the one policy_evaluation gives that pair.

    Returns:
        (values, sweeps): one ValueTable per pair in input order, and the
        number of sweeps each took to reach tol.

    Raises:
        SolverConvergenceError: if some member does not reach tol within
            max_iters sweeps, with the worst residual among those members.
    """
    pairs = list(pairs)
    if not pairs:
        return [], []
    mmdps = [mmdp for mmdp, _ in pairs]
    _check_stack(mmdps)
    expect = _next_value(_policy_kernels(pairs), mmdps[0].num_states, 1)
    base = np.stack([mmdp.rewards for mmdp in mmdps])[:, :, None]
    points, sweeps = _fixed_point(
        partial(_backup, expect, base, mmdps[0].gamma),
        np.zeros_like(base), tol, max_iters, "policy evaluation",
    )
    return [ValueTable(v=v[:, 0]) for v in points], sweeps


def policy_evaluation(
    mmdp: TabularMMDP, policy: JointPolicy, tol: float = 1e-9, max_iters: int = 10**6
) -> ValueTable:
    """Fixed-point evaluation of a deterministic joint policy.

    Returns a ValueTable whose scalar(rho) gives the policy's expected value
    from the initial distribution. A stack of one in policy_evaluation_stack.
    """
    [values], _ = policy_evaluation_stack([(mmdp, policy)], tol, max_iters)
    return values


def successor_features(
    mmdp: TabularMMDP, policy: JointPolicy, tol: float = 1e-9, max_iters: int = 10**6
) -> SuccessorFeatures:
    """Discounted feature occupancies of a policy by fixed-point iteration.

    Satisfies mu(s) = phi(s) + gamma * sum_s' P_pi(s'|s) mu(s'), so any reward
    that is linear in phi has value <w, mu(s)> for the matching weight vector.
    """
    phi = mmdp.states.features[None]
    expect = _next_value(_policy_kernels([(mmdp, policy)]), mmdp.num_states, phi.shape[2])
    [mu], _ = _fixed_point(
        partial(_backup, expect, phi, mmdp.gamma),
        np.zeros_like(phi), tol, max_iters, "successor features",
    )
    return SuccessorFeatures(mu_per_state=mu, mu_scalar=mmdp.rho @ mu)
