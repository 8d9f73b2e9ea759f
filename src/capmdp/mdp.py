"""Finite cooperative multi-agent MDPs and exact dynamic-programming solvers.

States are feature vectors in [0, 1]^k. All agents act simultaneously and
share one team reward, so planning reduces to a single-agent MDP over the
joint action space. Joint actions are indexed row-major over the per-agent
action digits with agent 0 as the slowest-varying digit.

A transition kernel has one of two layouts. Dense, it is an (S, A, S)
tensor of next-state probabilities. Indexed, an (S, A, K) integer array
names each row's K successors and an (S, A, K) array holds their
probabilities, so a sparse kernel such as a deterministic gridworld stores
one entry per row instead of S. Every solver reads either layout; with one
sure successor per row, an indexed kernel solves bit for bit like its dense
twin. These are exact desk-scale
solvers, not large-scale approximate ones.

Every solver runs one successive-approximation loop, _fixed_point, in
place over preallocated buffers. Its sweep is the backup base + gamma * E[x]
for policy evaluation and successor features. Value iteration takes the max
of E[v] over joint actions first and then scales and adds the reward on the
per-state maxima only: for gamma >= 0, x -> fl(r + fl(gamma * x)) is
monotone under round-to-nearest, so it commutes with the max and the bits
are those of max(r + gamma * E[v]). The loop checks convergence once per
block of sweeps, from the kept iterates of the block, so each member still
stops on its own first sweep within tol; the check reads the kept iterates
member-major, so each member's largest change is a reduction over
contiguous entries. It runs a stack of MDPs of one layout, shape and
discount at once (value_iteration_stack, policy_evaluation_stack), which
removes most of the per-call overhead of small solves. Evaluations, and
value iteration on its generic path, read every kernel through one
expected-next-value map, _next_value: a dense stack makes one batched
kernel product per sweep, an indexed one a gather per member. A
value-iteration stack whose members all hold one successor index of sure
one-successor rows, such as teams that differ in their rewards only, takes
the blocked sweep instead: its values are member-minor, (S, B), so one
np.take fetches all members' values at each successor, and wherever that
keeps every bit it sweeps its exact quotient, one state per class of
bisimilar states (Givan, Dean & Greig 2003). Each member gets exactly the
bits a stack of that member alone gives it; value_iteration is such a
stack of one.
"""

import math
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

DISTRIBUTION_ATOL = 1e-9


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
    # negated, so that a NaN entry (whose comparisons are all False) fails too
    if not abs(total - 1.0) <= atol:
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
        if not np.all((feats >= -1e-12) & (feats <= 1.0 + 1e-12)):  # NaN fails too
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
    state space. Rows are read in blocks of at most SCRATCH_ENTRIES entries,
    so the check holds no index-sized temporary.
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
    n = max(1, SCRATCH_ENTRIES // (idx.shape[1] * idx.shape[2]))
    for lo in range(0, len(idx), n):
        block = idx[lo : lo + n]
        outside = (block < 0) | (block >= num_states)
        if outside.any():
            s, u = np.argwhere(outside.any(axis=2))[0]
            raise ValueError(
                f"successor row (s={lo + s}, u={u}) names a state outside [0, {num_states})"
            )
    return idx.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class TabularMMDP:
    """Cooperative MDP: shared team reward, joint-action transitions.

    Dense layout (next_states None): transitions[s, u, s'] is the probability
    of moving from state s to s' under joint action index u. Indexed layout:
    transitions[s, u, k] is the probability of moving to next_states[s, u, k];
    a successor may repeat within a row. The reward depends on the state only.
    transitions may broadcast over states and joint actions (stride 0), as
    the desk teams' sure rows do; its rows are then checked, and read for
    sure rows, in the entries it stores only.
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
            next_states = _once(check_next_states, np.asarray(self.next_states), s, a)
            if trans.shape != next_states.shape:
                raise ValueError(
                    f"transitions must match next_states' shape {next_states.shape}, "
                    f"got {trans.shape}"
                )
            object.__setattr__(self, "next_states", next_states)
        _once(_check_transition_rows, trans)
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


# (fn, id of an array, fn's other arguments) -> (a weak reference to that
# array, read-only and owning its data; fn's result, or _SELF for the array)
_ONCE = {}
_SELF = object()  # so that the memo does not keep its arrays alive


def _once(fn, arr: np.ndarray, *args):
    """fn(arr, *args), computed once per read-only array that owns its data.

    Such an array cannot change, so MDPs that share one, such as the desk
    teams' successor index, check and digest it once in the whole process.
    Any other array, and a result that is another array, which may change,
    is computed on every call; a call that raises keeps nothing. fn is part
    of the key, so a rebound function is called afresh.
    """
    if arr.flags.writeable or not arr.flags.owndata:
        return fn(arr, *args)
    key = fn, id(arr), args
    ref, result = _ONCE.get(key, (None, None))
    # a dead array's id may have been reused; its reference then no longer resolves to arr
    if ref is not None and ref() is arr:
        return arr if result is _SELF else result
    result = fn(arr, *args)
    if result is arr or not isinstance(result, np.ndarray):
        ref = weakref.ref(arr, partial(_forget, _ONCE, key))
        _ONCE[key] = ref, _SELF if result is arr else result
    return result


def _forget(memo, key, ref):
    """Drop a dead array's entry, unless a new array has taken its id since.

    memo is bound in: at interpreter exit the module's globals may be gone.
    """
    if memo.get(key, (None,))[0] is ref:
        del memo[key]


def _backing(arr: np.ndarray) -> np.ndarray:
    """arr with each axis but the last that it broadcasts (stride 0) cut to one entry.

    A view of the entries arr stores. The last axis, a row's successors, is
    kept whole, so the view's rows are whole rows of arr. An array that
    broadcasts no other axis keeps its shape, as every dense kernel does.
    """
    return arr[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in arr.strides[:-1])]


def _check_transition_rows(trans: np.ndarray) -> np.ndarray:
    """Reject transition rows that are not distributions, naming the first bad (s, u).

    trans holds an MDP's (S, A, X) rows, or a kernel's (d, S, A, X)
    components, whose errors also name component j. Only the stored rows
    (_backing) are read, so an axis broadcast at stride 0 is checked at its
    first entry: components broadcast along their first axis are checked
    once, as component 0. Rows are read in blocks of at most SCRATCH_ENTRIES
    entries, so the check holds no (S, A)-sized temporary. Returns trans.
    """
    components = _backing(trans if trans.ndim == 4 else trans[None])
    n = max(1, SCRATCH_ENTRIES // (components.shape[-2] * components.shape[-1]))
    for j, rows in enumerate(components):
        what = f"kernel component {j} row" if trans.ndim == 4 else "transition row"
        for lo in range(0, len(rows), n):
            block = rows[lo : lo + n]
            negative = block < 0
            if negative.any():
                s, u = np.argwhere(negative.any(axis=2))[0]
                raise ValueError(f"{what} (s={lo + s}, u={u}) has a negative entry")
            sums = block.sum(axis=2)
            bad = ~(np.abs(sums - 1.0) <= DISTRIBUTION_ATOL)  # NaN rows fail too
            if bad.any():
                s, u = np.argwhere(bad)[0]
                raise ValueError(
                    f"{what} (s={lo + s}, u={u}) sums to {sums[s, u]!r}, "
                    f"expected 1 within {DISTRIBUTION_ATOL}"
                )
    return trans


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
    """Per-state values: optimal ones from value iteration, or a policy's own."""

    v: np.ndarray  # (num_states,)

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 1:
            raise ValueError("v must be a 1-d vector")
        object.__setattr__(self, "v", v)

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
    where they lie, member by member. It serves every solve but value
    iteration's blocked sweep (see value_iteration_stack).
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
        probs = [None if np.all(_backing(trans) == 1.0) else trans for trans, _ in kernels]
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
# entries of one scratch block of the sweep loops: a block of gathered next
# values in a blocked value-iteration sweep, and a block of sweep-to-sweep
# changes in _fixed_point; blocking changes no bit, only how much a solve
# holds beyond its iterates
SCRATCH_ENTRIES = 2**15


def _fixed_point(sweep, x, tol: float, max_iters: int, what: str, members: int = 0):
    """Iterate sweep(x, out), out <- F(x), from the zero stack x.

    x holds one iterate per member along its axis members: (B, S, columns)
    with members 0, or member-minor (S, B) with members 1. Each member stops
    at its own first sweep that moves it by <= tol; every operation acts on
    each member's entries alone. The iterates of a block of _BLOCK sweeps are
    kept, and their residuals taken a few sweeps per pass (SCRATCH_ENTRIES
    bounds the changes held), so a member may be swept past its stop but
    always returns the iterate and count of its first sweep within tol. The
    changes are taken member-major; a max of exact differences does not
    depend on their order.
    Returns each member's fixed point (its slice of x along the member axis)
    and sweep count, as two lists in member order.

    Raises:
        SolverConvergenceError: if some member does not reach tol within
            max_iters sweeps, with the worst residual among those members.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = x.shape[members]
    history = np.empty((_BLOCK + 1,) + x.shape)
    history[0] = x
    # the kept iterates member-major, a view: each member's changes are then
    # contiguous, and their max a reduction over the last axis
    by_member = np.moveaxis(history, members + 1, 1)
    rows = max(1, min(_BLOCK, SCRATCH_ENTRIES // x.size))
    change = np.empty((rows, b, x.size // b))
    residual = np.full((_BLOCK, b), np.inf)
    short = np.ones(b, dtype=bool)  # members whose sweeps have not reached tol
    points = [None] * b
    sweeps = [0] * b
    done = size = 0
    while done < max_iters:
        size = min(_BLOCK, max_iters - done)
        for step in range(size):
            sweep(history[step], history[step + 1])
        for lo in range(0, size, rows):
            n = min(rows, size - lo)
            part = change[:n]
            np.subtract(
                by_member[lo + 1 : lo + 1 + n], by_member[lo : lo + n],
                out=part.reshape(by_member[:n].shape),
            )
            np.abs(part, out=part)
            np.maximum.reduce(part, axis=2, out=residual[lo : lo + n])
        hit = (residual[:size] <= tol) & short
        for i in np.flatnonzero(hit.any(axis=0)):
            step = int(hit[:, i].argmax())
            points[i] = np.take(history[step + 1], i, axis=members)
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
    every member's expected next values E[v] for all joint actions and their
    max over joint actions, and only then scales and adds the reward on the
    per-state maxima. That gives the bits of max(r + gamma * E[v]): for
    gamma >= 0, x -> fl(r + fl(gamma * x)) is monotone under round-to-nearest,
    so it commutes with the max. A stack whose members all hold one
    successor index of sure one-successor rows takes the blocked sweep
    (_blocked_value_iteration); every other one, dense, of several or unsure
    successors per row, or of several kernels, the generic path
    (_generic_value_iteration). Each member stops at its own first sweep
    whose change is <= tol (see _fixed_point); one more backup of the stopped
    values then gives each member's v and greedy policy, the max and argmax
    of each state's joint-action values over the member's own contiguous
    row. Every operation acts on each member's entries alone, and either
    path gives the textbook loop's bits, so each result is bit for bit the
    one value_iteration gives that MDP.

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
    solve = _blocked_value_iteration if _on_one_sure_index(mmdps) else _generic_value_iteration
    answers, sweeps = solve(mmdps, tol, max_iters)
    return [(ValueTable(v), JointPolicy(actions)) for v, actions in answers], sweeps


def _generic_value_iteration(mmdps, tol: float, max_iters: int):
    """((v, greedy actions) per member, its sweeps) of any stack, from a (B, S, A) table.

    Each sweep fills the table through _next_value and takes its max over
    joint actions in their order.
    """
    b, s = len(mmdps), mmdps[0].num_states
    r = np.stack([m.rewards for m in mmdps]).reshape(b, s, 1)
    expect = _next_value([(m.transitions, m.next_states) for m in mmdps], s, 1)
    q = np.empty((b,) + mmdps[0].transitions.shape[:2] + (1,))  # (B, S, A, 1)

    def best_next_value(v, out):
        expect(v, q)
        np.maximum.reduce(q, axis=2, out=out)

    points, sweeps = _fixed_point(
        partial(_backup, best_next_value, r, mmdps[0].gamma),
        np.zeros((b, s, 1)), tol, max_iters, "value iteration",
    )
    # one more backup gives v and the greedy policy, each member's (S, A) rows contiguous
    _backup(expect, r[:, :, None], mmdps[0].gamma, np.stack(points), q)
    q = q[..., 0]
    return list(zip(q.max(axis=2), q.argmax(axis=2))), sweeps


def _on_one_sure_index(mmdps) -> bool:
    """Whether the members all hold the first's successor index, of sure K = 1 rows."""
    index = mmdps[0].next_states
    return index is not None and index.shape[2] == 1 and all(
        (m.next_states is index or np.array_equal(m.next_states, index))
        and bool(np.all(_backing(m.transitions) == 1.0))
        for m in mmdps
    )


def _class_keys(count: int) -> np.ndarray:
    """count fixed 64-bit keys, one per class: splitmix64's first count outputs, mixed again.

    The finalizer is a bijection, so distinct classes get distinct keys. Mixed
    once, the keys are not random enough for sums: of the 263,169 sums of an
    own-class key and twice a successor-class key over 513 classes, 18 repeat
    another, and a chain of states met such a collision. The arithmetic wraps
    on uint64 arrays, which numpy does without a warning.
    """
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for _ in range(2):
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(factor)
        z ^= z >> np.uint64(31)
    return z


def _distinct_sorted(rows: np.ndarray, sentinel: int) -> np.ndarray:
    """Each row's distinct entries, ascending, padded with sentinel (above every entry).

    Sorts rows, a fresh (n, A) array, in place and returns it.
    """
    rows.sort(axis=1)
    np.copyto(rows[:, 1:], sentinel, where=rows[:, 1:] == rows[:, :-1])
    rows.sort(axis=1)
    return rows


def _refine(successors: np.ndarray, classes: np.ndarray, distinct: bool, passes: int):
    """classes, of the (n, A) rows' n states, split until a pass splits none.

    A pass signs each state with the fixed keys (_class_keys) of its own class
    and of its successors' classes, each distinct class once when distinct
    and each entry once otherwise, summed in wrapping uint64, and reads the
    rows in blocks of at most SCRATCH_ENTRIES entries. Two signatures that
    collide may merge classes, so the result needs an exact check. Returns
    None when passes passes all split some class.
    """
    s, a = successors.shape
    n = max(1, SCRATCH_ENTRIES // a)
    count = int(classes.max()) + 1
    signature = np.empty(s, dtype=np.uint64)
    for _ in range(passes):
        if count == s:
            return classes.reshape(s)
        keys = _class_keys(2 * count)  # a state's own class takes a key of its own range
        np.take(keys, classes + count, out=signature)
        state_keys = keys[classes]
        for lo in range(0, s, n):
            block = state_keys[successors[lo : lo + n]]
            if distinct:
                block.sort(axis=1)
                np.copyto(block[:, 1:], 0, where=block[:, 1:] == block[:, :-1])
            signature[lo : lo + n] += block.sum(axis=1)
        signed, classes = np.unique(signature, return_inverse=True)
        if len(signed) <= count:
            return classes.reshape(s)
        count = len(signed)
    return None


def _numbered(classes: np.ndarray):
    """(classes renumbered in the order of their first states, each class's first state)."""
    _, firsts, classes = np.unique(classes, return_index=True, return_inverse=True)
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    return rank[classes.reshape(-1)], np.sort(firsts)


def _bisimulation(successors: np.ndarray, rewards: np.ndarray, passes: int):
    """(class of each state, first state of each class, successor sets) of a sure K = 1 index.

    Two states share a class when their rewards, (S, B), are bit-identical in
    every member and their sets of successor classes, successors (S, A)
    renamed to classes, are equal: the coarsest such partition (Givan, Dean &
    Greig 2003), refined from the classes of equal rewards (_refine). The
    first refinement counts each successor once per joint action, which needs
    no sort; the partition it settles on is stable, since equal multisets
    have equal sets, but can be finer than the coarsest. The second refines
    the classes of equal rewards on its quotient, one row per class with each
    successor renamed to its class, counting each distinct class once, and so
    reaches the coarsest partition while sorting only the quotient's rows. A
    refinement that still splits classes after passes passes, as a long
    chain of states would, gives way to the trivial partition below.

    The partition is then checked exactly, class ids against class ids:
    every state's rewards must equal its class's first state's, and so must
    its set of successor classes. A partition that fails, as colliding
    signatures might give, is replaced by the trivial one, every state its
    own class. Classes are numbered in the order of their first states, so
    the trivial partition is the identity. The successor sets are the
    checked (classes, A) rows, each class's distinct successor classes
    ascending and padded with the class count; they are None for the
    trivial partition.
    """
    s = len(successors)
    trivial = np.arange(s), np.arange(s), None
    equal_rewards = np.zeros(s, dtype=np.int64)
    for bits in rewards.view(np.int64).T:
        _, bits = np.unique(bits, return_inverse=True)
        _, equal_rewards = np.unique(equal_rewards * s + bits, return_inverse=True)
    coarse = _refine(successors, equal_rewards.reshape(s), False, passes)
    if coarse is None:
        return trivial
    classes, firsts = _numbered(coarse)
    if len(firsts) == s:
        return trivial
    lumped = _refine(classes[successors[firsts]], equal_rewards[firsts], True, passes)
    if lumped is None:
        return trivial
    classes, firsts = _numbered(lumped[classes])
    count = len(firsts)
    if not np.array_equal(rewards.view(np.int64), rewards[firsts][classes].view(np.int64)):
        return trivial
    first_rows = _distinct_sorted(classes[successors[firsts]], count)
    n = max(1, SCRATCH_ENTRIES // successors.shape[1])
    for lo in range(0, s, n):
        states = slice(lo, lo + n)
        if not np.array_equal(
            _distinct_sorted(classes[successors[states]], count), first_rows[classes[states]]
        ):
            return trivial
    return classes, firsts, first_rows


def _blocked_value_iteration(mmdps, tol: float, max_iters: int):
    """((v, greedy actions) per member, its sweeps) of a stack on one index of sure K = 1 rows.

    With no -0.0 reward the sweeps run on the stack's exact quotient, one
    first state per class of bisimilar states, whose rows are the sets of
    successor classes _bisimulation checked. Lumping keeps every bit: the
    iterates start at +0 and fl(r + fl(gamma * m)) is -0.0 only when r is, so
    no iterate holds -0.0 and a max of values depends only on their set, not
    on their order or repeats. By induction the states of a class hold the
    same bits after every sweep, so each member stops on the sweep, and with
    the residual, it has unlumped. Otherwise, and where the partition takes
    more passes than value iteration can need sweeps or fails its exact
    check, every state is its own class and sweeps its own A rows in
    joint-action order, as the textbook max does, so np.maximum's choice
    between tied +0.0 and -0.0 falls as it does there.

    The values are member-minor, (classes, B). A sweep reads the rows in
    blocks of classes, copied once joint-action-major: one np.take fetches
    every member's values at every successor of a block, (rows, classes, B),
    at most SCRATCH_ENTRIES entries, and one max over the outer row axis
    follows. A block of the quotient's sets is trimmed to its widest set,
    each shorter set padded with repeats of its first class. The final
    backup reads every row of the index, block by block, each state's value
    taken from its class, into a member-major (B, states, A) block, so each
    member's v and greedy policy are a max and an argmax over its own
    contiguous rows, as for a member alone. No (S, A) table is kept.
    """
    first = mmdps[0]
    successors = first.next_states[:, :, 0]
    s, a = successors.shape
    b = len(mmdps)
    r = np.stack([m.rewards for m in mmdps], axis=1)  # (S, B)
    classes, firsts, quotient = np.arange(s), np.arange(s), None
    if not np.any(np.signbit(r) & (r == 0.0)):
        # a pass of the partition reads the index as a sweep does, so one still
        # splitting after as many passes as value iteration can need sweeps
        # (the first n with gamma^(n - 1) * max|r| <= tol, in exact arithmetic)
        # costs more than it saves; with gamma 0, or every reward within tol,
        # the second sweep repeats the first
        top = float(np.abs(r).max())
        passes = 2
        if top > tol and first.gamma > 0.0:
            passes = 1 + math.ceil(math.log(tol / top) / math.log(first.gamma))
        classes, firsts, quotient = _bisimulation(successors, r, passes)
    count = len(firsts)
    # a block of one state passes SCRATCH_ENTRIES when A * B does
    n = min(s, max(1, SCRATCH_ENTRIES // (a * b)))
    scratch = np.empty(a * n * b)
    blocks = []
    # unlumped, each state's own rows stand for its set, in joint-action order
    rows = successors if quotient is None else quotient
    for lo in range(0, count, n):
        # a shorter set's padding, the class count, becomes its first class
        sets = rows[lo : lo + n, : np.count_nonzero(rows[lo : lo + n] < count, axis=1).max()]
        index = np.where(sets == count, sets[:, :1], sets).T.copy()
        gathered = scratch[: index.size * b].reshape(index.shape + (b,))
        blocks.append((slice(lo, lo + n), index, gathered))

    def best_next_value(v, out):
        for block_classes, index, gathered in blocks:
            # successors were range-checked when the MDP was built
            v.take(index, axis=0, out=gathered, mode="clip")
            np.maximum.reduce(gathered, axis=0, out=out[block_classes])

    points, sweeps = _fixed_point(
        partial(_backup, best_next_value, r[firsts], first.gamma),
        np.zeros((count, b)), tol, max_iters, "value iteration", members=1,
    )
    # one more backup gives v and the greedy policy, gathered member-major, (B, S)
    v = np.stack(points).take(classes, axis=1)
    best = np.empty((b, s))
    greedy = np.empty((b, s), dtype=np.intp)
    for lo in range(0, s, n):
        states = slice(lo, lo + n)
        own = scratch[: successors[states].size * b].reshape((b,) + successors[states].shape)
        v.take(successors[states], axis=1, out=own, mode="clip")  # (B, states, A)
        np.multiply(own, first.gamma, out=own)
        np.add(own, r[states].T[:, :, None], out=own)
        np.maximum.reduce(own, axis=2, out=best[:, states])
        np.argmax(own, axis=2, out=greedy[:, states])
    return list(zip(best, greedy)), sweeps


def value_iteration(
    mmdp: TabularMMDP, tol: float = 1e-9, max_iters: int = 10**6
) -> tuple[ValueTable, JointPolicy]:
    """Solve for the optimal value function by Bellman backups.

    Stops once the sup-norm change between sweeps is <= tol, which bounds the
    Bellman residual of the returned values by gamma * tol. Greedy ties break
    toward the lowest joint action index. A stack of one in
    value_iteration_stack.

    Returns:
        (ValueTable of the optimal values, greedy JointPolicy).

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
    """Fixed-point evaluation of deterministic joint policies, one per (mmdp, policy) pair.

    Runs every pair at once, in the one stacked sweep loop. The MDPs must
    share one layout, kernel shape and discount; the policies may differ.
    Each member stops at its own first sweep whose change is <= tol, and
    every operation acts on each member's entries alone, so each result is
    bit for bit the one a stack of that pair alone gives.

    Returns:
        (values, sweeps): one ValueTable per pair in input order, whose
        scalar(rho) is the policy's expected value from the initial
        distribution, and the number of sweeps each took to reach tol.

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
