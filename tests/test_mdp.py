"""Exact-solver tests against independent linear-algebra oracles."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capmdp import (
    InfluenceWeights,
    JointPolicy,
    SolverConvergenceError,
    StateSpace,
    SuccessorFeatures,
    TabularMMDP,
    TransitionKernel,
    assemble_linear_mmdp,
    check_distribution,
    policy_evaluation_stack,
    successor_features,
    value_iteration,
    value_iteration_stack,
)
import capmdp.mdp
from capmdp.envs.fruit_forage import build_fruit_forage, desk_config, fruit_forage_layout


def make_mmdp(rng, num_states=4, num_agents=2, actions_per_agent=2, feature_dim=3, gamma=0.9):
    num_joint = actions_per_agent**num_agents
    return TabularMMDP(
        states=StateSpace(rng.uniform(0.0, 1.0, (num_states, feature_dim))),
        num_agents=num_agents,
        actions_per_agent=actions_per_agent,
        rewards=rng.uniform(0.0, 1.0, num_states),
        transitions=rng.dirichlet(np.ones(num_states), size=(num_states, num_joint)),
        gamma=gamma,
        rho=rng.dirichlet(np.ones(num_states)),
    )


def solve_policy_linear(mmdp, actions):
    """Independent oracle: V^pi from the exact linear system."""
    p_pi = mmdp.transitions[np.arange(mmdp.num_states), list(actions)]
    lhs = np.eye(mmdp.num_states) - mmdp.gamma * p_pi
    return np.linalg.solve(lhs, mmdp.rewards)


def optimal_values_by_enumeration(mmdp):
    """Independent oracle: elementwise max of V^pi over every deterministic policy."""
    best = np.full(mmdp.num_states, -np.inf)
    for assignment in itertools.product(range(mmdp.num_joint_actions), repeat=mmdp.num_states):
        best = np.maximum(best, solve_policy_linear(mmdp, assignment))
    return best


def test_value_iteration_matches_policy_enumeration():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        mmdp = make_mmdp(rng, num_states=3, num_agents=2, actions_per_agent=2)
        table, policy = value_iteration(mmdp, tol=1e-10)
        oracle = optimal_values_by_enumeration(mmdp)
        assert np.max(np.abs(table.v - oracle)) < 1e-7
        # the greedy policy must itself attain the optimal values
        assert np.max(np.abs(solve_policy_linear(mmdp, policy.actions) - oracle)) < 1e-7


def test_value_iteration_single_agent_three_actions():
    rng = np.random.default_rng(11)
    mmdp = make_mmdp(rng, num_states=4, num_agents=1, actions_per_agent=3, gamma=0.7)
    table, _ = value_iteration(mmdp, tol=1e-10)
    oracle = optimal_values_by_enumeration(mmdp)
    assert np.max(np.abs(table.v - oracle)) < 1e-7


def test_policy_evaluation_matches_linear_solve():
    rng = np.random.default_rng(3)
    mmdp = make_mmdp(rng, num_states=6, num_agents=2, actions_per_agent=3)
    actions = rng.integers(0, mmdp.num_joint_actions, mmdp.num_states)
    [table], _ = policy_evaluation_stack([(mmdp, JointPolicy(actions=actions))], tol=1e-11)
    oracle = solve_policy_linear(mmdp, actions)
    assert np.max(np.abs(table.v - oracle)) < 1e-7
    assert table.scalar(mmdp.rho) == pytest.approx(float(mmdp.rho @ oracle), abs=1e-7)


def test_value_iteration_bellman_residual_and_greedy_consistency():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        mmdp = make_mmdp(rng, num_states=7, actions_per_agent=3, gamma=0.9)
        table, policy = value_iteration(mmdp, tol=1e-10)
        backup = (mmdp.rewards[:, None] + mmdp.gamma * (mmdp.transitions @ table.v)).max(axis=1)
        assert np.max(np.abs(backup - table.v)) < 1e-9
        q, _ = textbook_value_iteration(mmdp, tol=1e-10)
        assert np.array_equal(policy.actions, q.argmax(axis=1))
        assert np.array_equal(bits(table.v), bits(q.max(axis=1)))


def test_single_state_value_is_reward_over_one_minus_gamma():
    mmdp = TabularMMDP(
        states=StateSpace([[0.5]]),
        num_agents=1,
        actions_per_agent=2,
        rewards=[0.3],
        transitions=[[[1.0], [1.0]]],
        gamma=0.9,
        rho=[1.0],
    )
    table, _ = value_iteration(mmdp)
    assert table.v[0] == pytest.approx(0.3 / 0.1, abs=1e-7)


def test_golden_fixture_two_state_chain(two_state_chain):
    mmdp = two_state_chain
    table, policy = value_iteration(mmdp, tol=1e-12)
    # hand solved: stay on the rewarding state, walk toward it from the other
    assert table.v == pytest.approx([1.0, 2.0], abs=1e-9)
    assert list(policy.actions) == [1, 1]
    assert table.scalar(mmdp.rho) == pytest.approx(1.0, abs=1e-9)


def test_transition_row_errors_name_the_offending_pair():
    rng = np.random.default_rng(2)
    mmdp = make_mmdp(rng, num_states=3)
    bad = mmdp.transitions.copy()
    bad[1, 2] = 0.0
    with pytest.raises(ValueError, match=r"s=1.*u=2"):
        TabularMMDP(
            states=mmdp.states,
            num_agents=mmdp.num_agents,
            actions_per_agent=mmdp.actions_per_agent,
            rewards=mmdp.rewards,
            transitions=bad,
            gamma=mmdp.gamma,
            rho=mmdp.rho,
        )


def test_constructor_validation():
    states = StateSpace([[0.0], [1.0]])
    eye = np.stack([np.eye(2), np.eye(2)], axis=1)
    good = dict(
        states=states, num_agents=1, actions_per_agent=2,
        rewards=[0.0, 1.0], transitions=eye, gamma=0.9, rho=[0.5, 0.5],
    )
    TabularMMDP(**good)
    with pytest.raises(ValueError, match="rewards"):
        TabularMMDP(**{**good, "rewards": [0.0, 1.0, 2.0]})
    with pytest.raises(ValueError, match="gamma"):
        TabularMMDP(**{**good, "gamma": 1.0})
    with pytest.raises(ValueError, match="rho"):
        TabularMMDP(**{**good, "rho": [0.9, 0.3]})
    with pytest.raises(ValueError, match="finite"):
        TabularMMDP(**{**good, "rewards": [np.nan, 1.0]})
    with pytest.raises(ValueError):
        TabularMMDP(**{**good, "num_agents": 0})
    with pytest.raises(ValueError, match="shape"):
        TabularMMDP(**{**good, "transitions": np.eye(2)[None]})


def nan_entry(where):
    """Build the object named by where with one NaN entry in place of a valid one."""
    halves = np.full((2, 2, 2), 0.5)
    halves[1, 0] = [np.nan, 1.0]
    index = np.zeros((2, 2, 2), dtype=np.int64)
    good = dict(
        states=StateSpace([[0.0], [1.0]]), num_agents=1, actions_per_agent=2,
        rewards=[0.0, 1.0], transitions=np.full((2, 2, 2), 0.5), gamma=0.9, rho=[0.5, 0.5],
    )
    if where == "dense transitions":
        return TabularMMDP(**{**good, "transitions": halves})
    if where == "indexed probabilities":
        return TabularMMDP(**{**good, "transitions": halves, "next_states": index})
    if where == "kernel":
        return TransitionKernel(np.stack([good["transitions"], halves]), next_states=index)
    if where == "rho":
        return TabularMMDP(**{**good, "rho": [np.nan, 1.0]})
    if where == "influence weights":
        return InfluenceWeights([np.nan, 1.0])
    return StateSpace([[0.5], [np.nan]])


NAN_MESSAGES = {
    "dense transitions": r"^transition row \(s=1, u=0\) sums to .*nan",
    "indexed probabilities": r"^transition row \(s=1, u=0\) sums to .*nan",
    "kernel": r"^kernel component 1 row \(s=1, u=0\) sums to .*nan",
    "rho": "^rho sums to nan",
    "influence weights": "^influence weights sums to nan",
    "features": r"\[0, 1\]",
}


# every comparison with NaN is False, so a check passes NaN unless it asks that a
# comparison hold
@pytest.mark.parametrize("where", list(NAN_MESSAGES))
def test_a_nan_entry_is_rejected(where):
    with pytest.raises(ValueError, match=NAN_MESSAGES[where]):
        nan_entry(where)


def test_state_space_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        StateSpace([[1.5]])
    with pytest.raises(ValueError, match="non-empty"):
        StateSpace(np.zeros((0, 2)))
    a = StateSpace([[0.1, 0.2]])
    b = StateSpace([[0.1, 0.2]])
    assert a.equals(b)
    assert a.num_states == 1 and a.feature_dim == 2


def test_joint_policy_validation():
    with pytest.raises(ValueError, match="integer"):
        JointPolicy(actions=np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        JointPolicy(actions=np.array([-1, 0]))
    rng = np.random.default_rng(4)
    mmdp = make_mmdp(rng, num_states=3)
    with pytest.raises(ValueError, match="length"):
        JointPolicy(actions=np.zeros(2, dtype=np.int64)).validate_for(mmdp)
    with pytest.raises(ValueError, match="out-of-range"):
        JointPolicy(actions=np.full(3, 99, dtype=np.int64)).validate_for(mmdp)


def test_successor_features_value_identity():
    # reward linear in the state features -> value is <w, mu> everywhere
    rng = np.random.default_rng(7)
    base = make_mmdp(rng, num_states=5, feature_dim=3)
    w = rng.uniform(-1.0, 1.0, 3)
    mmdp = TabularMMDP(
        states=base.states,
        num_agents=base.num_agents,
        actions_per_agent=base.actions_per_agent,
        rewards=base.states.features @ w,
        transitions=base.transitions,
        gamma=base.gamma,
        rho=base.rho,
    )
    policy = JointPolicy(actions=rng.integers(0, mmdp.num_joint_actions, 5))
    [values], _ = policy_evaluation_stack([(mmdp, policy)], tol=1e-11)
    sf = successor_features(mmdp, policy, tol=1e-11)
    assert np.max(np.abs(sf.mu_per_state @ w - values.v)) < 1e-7
    assert float(sf.mu_scalar @ w) == pytest.approx(values.scalar(mmdp.rho), abs=1e-7)


def test_successor_features_fixed_point():
    rng = np.random.default_rng(8)
    mmdp = make_mmdp(rng, num_states=4, feature_dim=2)
    policy = JointPolicy(actions=np.zeros(4, dtype=np.int64))
    sf = successor_features(mmdp, policy, tol=1e-11)
    p_pi = mmdp.transitions[np.arange(4), policy.actions]
    recovered = mmdp.states.features + mmdp.gamma * (p_pi @ sf.mu_per_state)
    assert np.max(np.abs(recovered - sf.mu_per_state)) < 1e-9
    assert np.allclose(sf.mu_scalar, mmdp.rho @ sf.mu_per_state)


def test_successor_features_shape_validation():
    with pytest.raises(ValueError):
        SuccessorFeatures(mu_per_state=np.zeros((2, 3)), mu_scalar=np.zeros(2))


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6))
def test_check_distribution_normalized_vectors_pass(raw):
    vec = np.asarray(raw) / np.sum(raw)
    out = check_distribution(vec, "probs")
    assert out.shape == vec.shape


def test_check_distribution_errors():
    with pytest.raises(ValueError, match="probs"):
        check_distribution([0.5, 0.6], "probs")
    with pytest.raises(ValueError, match="negative"):
        check_distribution([-0.1, 1.1], "probs")


def test_solver_convergence_error_carries_diagnostics():
    rng = np.random.default_rng(5)
    mmdp = make_mmdp(rng, gamma=0.99)
    with pytest.raises(SolverConvergenceError) as info:
        value_iteration(mmdp, tol=1e-12, max_iters=3)
    assert info.value.iterations == 3
    assert info.value.residual > 0
    with pytest.raises(ValueError, match="tol"):
        value_iteration(mmdp, tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        policy_evaluation_stack(
            [(mmdp, JointPolicy(actions=np.zeros(4, dtype=np.int64)))], tol=-1.0
        )


# ---- stacked solves ------------------------------------------------------------------


def textbook_value_iteration(mmdp, tol=1e-9, max_iters=10**6):
    """The plain one-MDP sweep loop: (final q, sweeps to tol), or (None, last residual)."""
    r, g = mmdp.rewards, mmdp.gamma
    if mmdp.next_states is None:
        def expect(v):
            return mmdp.transitions @ v
    elif mmdp.next_states.shape[2] == 1:
        # a one-term sum is that term; np.sum would add it to +0.0 and so turn -0.0 into +0.0
        def expect(v):
            return mmdp.transitions[:, :, 0] * v[mmdp.next_states[:, :, 0]]
    else:
        def expect(v):
            return (mmdp.transitions * v[mmdp.next_states]).sum(axis=2)
    v = np.zeros(mmdp.num_states)
    residual = np.inf
    for sweep in range(1, max_iters + 1):
        v_new = (r[:, None] + g * expect(v)).max(axis=1)
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual <= tol:
            return r[:, None] + g * expect(v), sweep
    return None, residual


def stack_members(rng, layout, count, num_states=6, num_joint=4):
    """count MDPs of one layout, shape and discount whose reward scales span 1e4.

    layout is "dense", "indexed-K" (K successors per row, a kernel per
    member), "shared-K" (one successor index and one set of probabilities
    for every member), "mixed-K" (members alternate between two shared
    kernels, and the last has its own) or "near-K" (a shared kernel, but
    the last member's index differs in one entry) or "reweighted-K" (a
    shared kernel, but the last member's probabilities are reversed along
    each row) or "broadcast-1" (a shared index, each member's probabilities
    one entry 1.0 broadcast over states and joint actions, but the last
    member's one entry per state broadcast over joint actions, its last
    state's 0.9999999999999999). Every other K = 1 layout holds unit
    probabilities, so its rows are sure. The scales make the members reach
    tol on different sweeps.
    """
    shape = (num_states, num_joint)
    if layout == "dense":
        def kernel():
            return rng.dirichlet(np.ones(num_states), size=shape), None
    else:
        width = int(layout.split("-")[1])

        def kernel():
            if width == 1:
                transitions = np.ones(shape + (1,))
            else:
                transitions = rng.dirichlet(np.ones(width), size=shape)
            return transitions, rng.integers(0, num_states, shape + (width,))
    shared = [kernel(), kernel()]
    kernels = []
    for i in range(count):
        last = i == count - 1
        if layout.startswith("shared") or (layout.split("-")[0] in ("near", "reweighted") and not last):
            kernels.append(shared[0])
        elif layout.startswith("broadcast"):
            entries = np.ones((num_states, 1, 1) if last else (1, 1, 1))
            entries[-1] = 0.9999999999999999 if last else 1.0
            kernels.append((np.broadcast_to(entries, shape + (1,)), shared[0][1]))
        elif layout.startswith("mixed") and not last:
            kernels.append(shared[i % 2])
        elif layout.startswith("near"):
            transitions, next_states = shared[0]
            moved = next_states.copy()
            moved[2, 1, 0] = (moved[2, 1, 0] + 1) % num_states
            kernels.append((transitions, moved))
        elif layout.startswith("reweighted"):
            transitions, next_states = shared[0]
            kernels.append((transitions[..., ::-1].copy(), next_states))
        else:
            kernels.append(kernel())
    members = []
    for scale, (transitions, next_states) in zip(np.geomspace(0.01, 100.0, count), kernels):
        members.append(
            TabularMMDP(
                states=StateSpace(rng.uniform(0.0, 1.0, (num_states, 2))),
                num_agents=1,
                actions_per_agent=num_joint,
                rewards=scale * rng.uniform(0.0, 1.0, num_states),
                transitions=transitions,
                gamma=0.9,
                rho=rng.dirichlet(np.ones(num_states)),
                next_states=next_states,
            )
        )
    return members


STACK_LAYOUTS = [
    "dense", "indexed-1", "indexed-3", "shared-1", "shared-3", "shared-9", "mixed-1", "mixed-3",
    "near-1", "reweighted-3", "broadcast-1",
]


@pytest.mark.parametrize("layout", STACK_LAYOUTS)
@pytest.mark.parametrize("count", [1, 3, 9])
def test_a_stacked_solve_matches_each_member_alone_bit_for_bit(layout, count):
    members = stack_members(np.random.default_rng(count), layout, count)
    solutions, sweeps = value_iteration_stack(members)
    for mmdp, stacked, stacked_sweeps in zip(members, solutions, sweeps):
        q, textbook_sweeps = textbook_value_iteration(mmdp)
        assert stacked_sweeps == textbook_sweeps
        for values, policy in (stacked, value_iteration(mmdp)):
            assert np.array_equal(bits(values.v), bits(q.max(axis=1)))
            assert np.array_equal(policy.actions, q.argmax(axis=1))
    # the members stop on their own sweeps
    assert len(set(sweeps)) == count


@pytest.mark.parametrize("layout", STACK_LAYOUTS)
def test_a_stack_takes_the_blocked_sweep_only_on_one_sure_index(monkeypatch, layout):
    paths = []
    for name in ("_blocked_value_iteration", "_generic_value_iteration"):
        def spy(mmdps, tol, max_iters, name=name, solve=getattr(capmdp.mdp, name)):
            paths.append(name)
            return solve(mmdps, tol, max_iters)

        monkeypatch.setattr(capmdp.mdp, name, spy)
    members = stack_members(np.random.default_rng(2), layout, 5)
    value_iteration_stack(members)
    # equal copies take the path the same arrays do
    copies = [
        replace(m, transitions=m.transitions.copy(),
                next_states=None if m.next_states is None else m.next_states.copy())
        for m in members
    ]
    value_iteration_stack(copies)
    # only members that all hold one index of sure one-successor rows share the blocked sweep
    path = "_blocked_value_iteration" if layout == "shared-1" else "_generic_value_iteration"
    assert paths == [path, path]
    # a lone member of any one-successor layout holds one sure index of its own
    value_iteration_stack(members[:1])
    lone = "_blocked_value_iteration" if layout.endswith("-1") else "_generic_value_iteration"
    assert paths[2:] == [lone]


def test_a_stack_out_of_sweeps_reports_the_worst_unconverged_residual():
    members = stack_members(np.random.default_rng(7), "dense", 4)
    _, sweeps = value_iteration_stack(members)
    limit = sorted(sweeps)[1]
    with pytest.raises(SolverConvergenceError) as info:
        value_iteration_stack(members, max_iters=limit)
    unconverged = [m for m, n in zip(members, sweeps) if n > limit]
    assert len(unconverged) == 2
    assert info.value.iterations == limit
    assert info.value.residual == max(
        textbook_value_iteration(m, max_iters=limit)[1] for m in unconverged
    )
    # the slowest member's own sweep count is enough for the whole stack
    assert value_iteration_stack(members, max_iters=max(sweeps))[1] == sweeps


def textbook_policy_evaluation(mmdp, actions, tol=1e-9, max_iters=10**6):
    """The plain one-policy sweep loop: (v, sweeps to tol), or (None, last residual)."""
    rows = (np.arange(mmdp.num_states), actions)
    probs = mmdp.transitions[rows]
    if mmdp.next_states is None:
        def expect(v):
            return probs @ v
    else:
        successors = mmdp.next_states[rows]

        def expect(v):
            return (probs * v[successors]).sum(axis=1)
    v = np.zeros(mmdp.num_states)
    residual = np.inf
    for sweep in range(1, max_iters + 1):
        v_new = mmdp.rewards + mmdp.gamma * expect(v)
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual <= tol:
            return v, sweep
    return None, residual


def random_policies(rng, members):
    return [
        JointPolicy(rng.integers(0, m.num_joint_actions, m.num_states)) for m in members
    ]


@pytest.mark.parametrize("layout", ["dense", "indexed-1", "indexed-3"])
@pytest.mark.parametrize("count", [1, 3, 9])
def test_a_stacked_evaluation_matches_each_policy_alone_bit_for_bit(layout, count):
    rng = np.random.default_rng(count)
    members = stack_members(rng, layout, count)
    policies = random_policies(rng, members)
    values, sweeps = policy_evaluation_stack(list(zip(members, policies)))
    for mmdp, policy, stacked, stacked_sweeps in zip(members, policies, values, sweeps):
        v, textbook_sweeps = textbook_policy_evaluation(mmdp, policy.actions)
        assert stacked_sweeps == textbook_sweeps
        assert np.array_equal(stacked.v, v)
        assert np.array_equal(policy_evaluation_stack([(mmdp, policy)])[0][0].v, v)
    # the members stop on their own sweeps (two random policies may tie)
    assert len(set(sweeps)) == 1 if count == 1 else len(set(sweeps)) > count // 2


def test_a_stacked_evaluation_out_of_sweeps_reports_the_worst_unconverged_residual():
    rng = np.random.default_rng(7)
    members = stack_members(rng, "dense", 4)
    pairs = list(zip(members, random_policies(rng, members)))
    _, sweeps = policy_evaluation_stack(pairs)
    limit = sorted(sweeps)[1]
    with pytest.raises(SolverConvergenceError, match="policy evaluation") as info:
        policy_evaluation_stack(pairs, max_iters=limit)
    unconverged = [pair for pair, n in zip(pairs, sweeps) if n > limit]
    assert len(unconverged) == 2
    assert info.value.iterations == limit
    assert info.value.residual == max(
        textbook_policy_evaluation(m, p.actions, max_iters=limit)[1] for m, p in unconverged
    )
    # the slowest member's own sweep count is enough for the whole stack
    assert policy_evaluation_stack(pairs, max_iters=max(sweeps))[1] == sweeps


def test_a_stack_needs_one_layout_shape_and_discount():
    rng = np.random.default_rng(3)
    [dense] = stack_members(rng, "dense", 1)
    [indexed] = stack_members(rng, "indexed-1", 1)
    [wider] = stack_members(rng, "dense", 1, num_states=7)
    for other in (indexed, wider, replace(dense, gamma=0.8)):
        with pytest.raises(ValueError, match="share one layout"):
            value_iteration_stack([dense, other])
        with pytest.raises(ValueError, match="share one layout"):
            policy_evaluation_stack(
                [(mmdp, JointPolicy(np.zeros(mmdp.num_states, dtype=np.int64)))
                 for mmdp in (dense, other)]
            )
    assert value_iteration_stack([]) == ([], [])
    assert policy_evaluation_stack([]) == ([], [])


# ---- the sweep's arithmetic ----------------------------------------------------------
# value iteration takes the max over joint actions before the scale and the reward,
# reads indexed kernels joint-action-major, skips the one-term sum of K = 1 rows, and
# checks convergence once per block of sweeps; each must keep the textbook loop's bits


def assert_textbook_solve(members, tol=1e-9, max_iters=10**6):
    """Stacked and lone value iteration and evaluation give the textbook loops' bits."""
    solutions, sweeps = value_iteration_stack(members, tol, max_iters)
    policies = random_policies(np.random.default_rng(0), members)
    values, evaluation_sweeps = policy_evaluation_stack(
        list(zip(members, policies)), tol, max_iters
    )
    for mmdp, stacked, n, policy, value, m in zip(
        members, solutions, sweeps, policies, values, evaluation_sweeps
    ):
        q, textbook_sweeps = textbook_value_iteration(mmdp, tol, max_iters)
        assert n == textbook_sweeps
        for table, greedy in (stacked, value_iteration(mmdp, tol, max_iters)):
            assert np.array_equal(bits(table.v), bits(q.max(axis=1)))
            assert np.array_equal(greedy.actions, q.argmax(axis=1))
        v, textbook_sweeps = textbook_policy_evaluation(mmdp, policy.actions, tol, max_iters)
        assert m == textbook_sweeps
        assert np.array_equal(value.v, v)
    return solutions, sweeps


@pytest.mark.parametrize("layout", ["dense", "indexed-1", "indexed-3"])
@pytest.mark.parametrize("sign", ["negative", "zero", "mixed"])
@pytest.mark.parametrize("gamma", [0.0, 0.9])
def test_the_sweep_keeps_the_textbook_bits_for_any_reward_sign(layout, sign, gamma):
    rng = np.random.default_rng(11)
    members = []
    for mmdp in stack_members(rng, layout, 4):
        rewards = {
            "negative": -mmdp.rewards,
            "zero": np.zeros(mmdp.num_states),
            "mixed": mmdp.rewards - mmdp.rewards.mean(),
        }[sign]
        members.append(replace(mmdp, rewards=rewards, gamma=gamma))
    _, sweeps = assert_textbook_solve(members)
    if gamma == 0.0 or sign == "zero":
        # the second sweep repeats the first
        assert set(sweeps) == {1 if sign == "zero" else 2}


def with_duplicate_actions(mmdp):
    """mmdp with joint action 3 a copy of 1 and action 2 a copy of 0: exact q ties."""
    order = np.array([0, 1, 0, 1])
    next_states = None if mmdp.next_states is None else mmdp.next_states[:, order]
    return replace(mmdp, transitions=mmdp.transitions[:, order], next_states=next_states)


@pytest.mark.parametrize("layout", ["dense", "indexed-1", "indexed-3"])
def test_tied_joint_actions_keep_the_lowest_index(layout):
    rng = np.random.default_rng(4)
    members = [with_duplicate_actions(m) for m in stack_members(rng, layout, 3)]
    solutions, _ = assert_textbook_solve(members)
    for mmdp, (_, policy) in zip(members, solutions):
        q, _ = textbook_value_iteration(mmdp)
        assert np.array_equal(q[:, 2:], q[:, :2])
        assert np.all(policy.actions < 2)


def test_sure_and_unsure_single_successors_keep_the_textbook_bits():
    rng = np.random.default_rng(6)
    members = []
    for mmdp in stack_members(rng, "indexed-1", 4):
        # probabilities below 1 by up to 9e-10 still sum to 1 within the row check
        shape = mmdp.transitions.shape
        short = rng.uniform(0.0, 9e-10, shape) * (rng.random(shape) < 0.5)
        members.append(replace(mmdp, transitions=1.0 - short))
    assert not np.all(members[0].transitions == 1.0)
    # a sure member beside unsure ones, and one sharing the first's unsure kernel
    members.append(stack_members(rng, "indexed-1", 1)[0])
    assert np.all(members[-1].transitions == 1.0)
    members.append(replace(members[0], rewards=rng.uniform(0.0, 3.0, members[0].num_states)))
    assert_textbook_solve(members)
    for mmdp in members:
        policy = random_policies(rng, [mmdp])[0]
        rows = (np.arange(mmdp.num_states), policy.actions)
        probs, successors = mmdp.transitions[rows][:, 0, None], mmdp.next_states[rows][:, 0]
        phi = mmdp.states.features
        mu = np.zeros_like(phi)
        while True:
            mu_new = phi + mmdp.gamma * (probs * mu[successors])
            residual = np.max(np.abs(mu_new - mu))
            mu = mu_new
            if residual <= 1e-9:
                break
        assert np.array_equal(successor_features(mmdp, policy).mu_per_state, mu)


@pytest.mark.parametrize("layout", ["dense", "indexed-1"])
def test_a_member_reaching_tol_on_a_block_boundary_stops_there(layout):
    block = capmdp.mdp._BLOCK
    members = stack_members(np.random.default_rng(9), layout, 3)
    # the tol the first member first reaches on the block's last sweep
    _, tol = textbook_value_iteration(members[0], max_iters=block)
    assert textbook_value_iteration(members[0], tol)[1] == block
    _, sweeps = assert_textbook_solve(members, tol)
    assert sweeps[0] == block and max(sweeps) > block
    for boundary in (block, 2 * block):
        policy = random_policies(np.random.default_rng(0), members[:1])[0]
        _, tol = textbook_policy_evaluation(members[0], policy.actions, max_iters=boundary)
        [value], [n] = policy_evaluation_stack([(members[0], policy)], tol)
        assert n == boundary
        assert np.array_equal(
            value.v, textbook_policy_evaluation(members[0], policy.actions, tol)[0]
        )


@pytest.mark.parametrize("max_iters", [0, 1, 5, 17, 35])
def test_a_sweep_limit_off_the_block_reports_the_textbook_residual(max_iters):
    assert max_iters % capmdp.mdp._BLOCK != 0 or max_iters == 0
    members = stack_members(np.random.default_rng(8), "indexed-1", 3)
    with pytest.raises(SolverConvergenceError, match="value iteration") as info:
        value_iteration_stack(members, max_iters=max_iters)
    assert info.value.iterations == max_iters
    assert info.value.residual == max(
        textbook_value_iteration(m, max_iters=max_iters)[1] for m in members
    )
    # a limit that is just enough ends inside a block, with the textbook answers
    _, sweeps = value_iteration_stack(members)
    assert_textbook_solve(members, max_iters=max(sweeps))
    assert max(sweeps) % capmdp.mdp._BLOCK != 0


# ---- repeated action rows ------------------------------------------------------------
# on a grid many joint moves end in the same cell, so most rows repeat; a stack that
# does not lump sweeps them all, on the blocked sweep a block of states at a time


def repeated_rows_members(rng, width, count, num_states=30, num_joint=12):
    """count MDPs whose A rows per state are drawn from a pool of 1 to 6 rows of that state.

    The distinct counts so differ from state to state. With width 1 every row
    has one sure successor. With width > 1 a pool holds rows with the same
    successors and other probabilities, rows with the same probabilities and
    other successors, and rows that name one successor twice. With width 1
    every member shares one index, as the blocked sweep needs; with width > 1
    the last member has a kernel of its own, and the others share one.
    """
    def kernel():
        next_states = np.empty((num_states, num_joint, width), dtype=np.int64)
        transitions = np.ones((num_states, num_joint, width))
        for s in range(num_states):
            size = rng.integers(1, 7)
            successors = rng.integers(0, num_states, (size, width))
            probs = np.ones((size, 1)) if width == 1 else rng.dirichlet(np.ones(width), size)
            if width > 1:
                successors[1::3] = successors[0]
                probs[2::3] = probs[0]
                successors[::2, 1] = successors[::2, 0]
            pick = rng.integers(0, size, num_joint)
            next_states[s], transitions[s] = successors[pick], probs[pick]
        return transitions, next_states

    shared = kernel()
    members = []
    for i, scale in enumerate(np.geomspace(0.01, 100.0, count)):
        transitions, next_states = shared if i < count - 1 or width == 1 else kernel()
        members.append(
            TabularMMDP(
                states=StateSpace(rng.uniform(0.0, 1.0, (num_states, 2))),
                num_agents=1,
                actions_per_agent=num_joint,
                rewards=scale * rng.uniform(0.0, 1.0, num_states),
                transitions=transitions,
                gamma=0.9,
                rho=rng.dirichlet(np.ones(num_states)),
                next_states=next_states,
            )
        )
    return members


def distinct_counts(mmdp):
    """Each state's number of distinct (successors, probabilities) rows."""
    return [
        len({(succ.tobytes(), prob.tobytes()) for succ, prob in zip(*rows)})
        for rows in zip(mmdp.next_states, mmdp.transitions)
    ]


@pytest.mark.parametrize("width", [1, 3])
def test_a_stack_over_repeated_rows_keeps_the_textbook_bits_across_state_blocks(
    monkeypatch, width
):
    members = repeated_rows_members(np.random.default_rng(width), width, 4)
    counts = distinct_counts(members[0])
    assert len(set(counts)) > 3 and max(counts) < members[0].num_joint_actions
    if width == 1:
        assert np.all(members[0].transitions == 1.0)
    assert capmdp.mdp._on_one_sure_index(members) == (width == 1)
    # the blocked sweep gathers blocks of 4 states for the four members, ending on a
    # block of 2; the generic path holds its (B, S, A) table whole
    monkeypatch.setattr(capmdp.mdp, "SCRATCH_ENTRIES", 12 * 4 * 4)
    _, sweeps = assert_textbook_solve(members)
    assert len(set(sweeps)) == len(members)


# ---- the exact quotient --------------------------------------------------------------
# an indexed stack of sure K = 1 rows sweeps one state per class of bisimilar states
# (mdp._bisimulation), each successor renamed to its class; every answer must keep the
# textbook loop's bits


@pytest.fixture
def swept(monkeypatch):
    """The states (one per class) that each value-iteration solve sweeps, in order."""
    sizes = []
    fixed_point = capmdp.mdp._fixed_point

    def spy(sweep, x, tol, max_iters, what, members=0):
        if what == "value iteration":
            # the blocked sweep's member-minor (classes, B) iterates, or the generic (B, S, 1)
            sizes.append(x.shape[1 - members])
        return fixed_point(sweep, x, tol, max_iters, what, members)

    monkeypatch.setattr(capmdp.mdp, "_fixed_point", spy)
    return sizes


def sure_members(rng, successors, rewards, gamma=0.9):
    """One sure K = 1 MDP per row of rewards, (B, S), all on the (S, A) successors."""
    num_states, num_joint = successors.shape
    return [
        TabularMMDP(
            states=StateSpace(rng.uniform(0.0, 1.0, (num_states, 2))),
            num_agents=1,
            actions_per_agent=num_joint,
            rewards=row,
            transitions=np.ones((num_states, num_joint, 1)),
            gamma=gamma,
            rho=rng.dirichlet(np.ones(num_states)),
            next_states=successors[:, :, None],
        )
        for row in rewards
    ]


def planted_members(rng, count, values=None, num_states=10, copies=6, num_joint=4):
    """count sure K = 1 MDPs on one index whose last copies states copy others.

    A copy has its original's rewards in every member and its original's
    successors in another joint-action order, and any successor, in any row,
    that has a copy is swapped for it at random: each copy is bisimilar to
    its original. Rewards are drawn from values when given, uniformly
    otherwise; scales spanning 1e4 make the members stop on different sweeps.
    """
    originals = rng.choice(num_states, copies, replace=False)
    base = rng.integers(0, num_states, (num_states, num_joint))
    shuffled = np.stack([row[rng.permutation(num_joint)] for row in base[originals]])
    successors = np.concatenate([base, shuffled])
    twin = np.arange(num_states)
    twin[originals] = np.arange(num_states, num_states + copies)
    swap = (twin[successors] != successors) & (rng.random(successors.shape) < 0.5)
    successors = np.where(swap, twin[successors], successors)
    scales = np.geomspace(0.01, 100.0, count)[:, None]
    if values is None:
        rewards = scales * rng.uniform(0.0, 1.0, (1, num_states))
    else:
        rewards = scales * rng.choice(values, (1, num_states))
    return sure_members(rng, successors, np.concatenate([rewards, rewards[:, originals]], 1))


def swap_symmetric_members(rng, count, cells=6):
    """count sure K = 1 MDPs of two agents on a ring of cells, rewarded symmetrically.

    A state is a pair of cells, agent 0's the slower digit; each agent steps
    one cell either way or stays. The reward depends on the unordered pair
    only, so each state is bisimilar to its agents' swap.
    """
    step = np.array([-1, 0, 1])
    first, second = np.divmod(np.arange(cells**2), cells)
    move_first, move_second = np.divmod(np.arange(9), 3)
    successors = (first[:, None] + step[move_first]) % cells * cells + (
        second[:, None] + step[move_second]
    ) % cells
    table = rng.uniform(0.0, 1.0, (count, cells, cells))
    symmetric = table + table.swapaxes(1, 2)  # a sum does not depend on its order
    scales = np.geomspace(0.01, 100.0, count)[:, None]
    return sure_members(rng, successors, scales * symmetric[:, first, second])


@pytest.mark.parametrize("layout", ["planted", "swapped"])
def test_a_stack_with_bisimilar_states_sweeps_one_per_class_with_the_textbook_bits(
    swept, layout
):
    rng = np.random.default_rng(12)
    if layout == "planted":
        members, classes = planted_members(rng, 3), 10
    else:
        members, classes = swap_symmetric_members(rng, 3), 6 * 7 // 2
    _, sweeps = assert_textbook_solve(members)
    assert len(set(sweeps)) == len(members)
    # the stack, then each member alone
    assert swept == [classes] * (1 + len(members))
    assert classes < members[0].num_states


def test_a_stack_on_two_indexes_sweeps_every_state(swept):
    rng = np.random.default_rng(13)
    members = planted_members(rng, 3)
    # the same successor sets in another order: bisimilar states still, but another index
    last = members[-1]
    reordered = last.next_states[:, rng.permutation(last.num_joint_actions)]
    members[-1] = replace(last, next_states=reordered)
    assert not np.array_equal(reordered, members[0].next_states)
    assert_textbook_solve(members)
    assert swept[0] == last.num_states


def bits(arr):
    """arr's bit patterns, so that +0.0 and -0.0 differ."""
    return np.asarray(arr, dtype=float).view(np.int64)


@pytest.mark.parametrize("gamma", [0.0, 0.9])
def test_a_stack_with_a_negative_zero_reward_sweeps_every_state_with_the_textbook_signs(
    swept, gamma
):
    # state 0 pays -1 and loops; 1 pays -0.0 and 2 pays +0.0, both moving to 0; 3 and 4
    # pay -0.0 and move to 1 or 2, in opposite joint-action orders. At gamma 0 states 1
    # and 2 are worth -0.0 and +0.0, and 3 and 4 take the max of a -0.0/+0.0 tie in
    # opposite orders, so only the order of the tie tells their signed zeros apart.
    successors = np.array([[0, 0], [0, 0], [0, 0], [1, 2], [2, 1]])
    rewards = np.array([[-1.0, -0.0, 0.0, -0.0, -0.0]]) * np.array([[1.0], [3.0]])
    members = sure_members(np.random.default_rng(14), successors, rewards, gamma)
    # np.maximum returns its second operand on a tie of +0.0 and -0.0, so a max over
    # rows in joint-action order, the sweep's and the textbook's, ends on the last tied row
    assert np.signbit(np.maximum(0.0, -0.0)) and not np.signbit(np.maximum(-0.0, 0.0))
    solutions, sweeps = value_iteration_stack(members)
    for mmdp, (values, policy), n in zip(members, solutions, sweeps):
        q, textbook_sweeps = textbook_value_iteration(mmdp)
        assert n == textbook_sweeps
        assert np.array_equal(bits(values.v), bits(q.max(axis=1)))
        assert np.array_equal(policy.actions, q.argmax(axis=1))
    if gamma == 0.0:
        assert np.array_equal(bits(solutions[0][0].v[1:]), bits([-0.0, 0.0, 0.0, -0.0]))
    assert swept == [len(successors)]


@pytest.mark.parametrize("collision", ["keys", "passes"])
def test_a_stack_whose_signatures_collide_fails_the_exact_check_and_sweeps_every_state(
    monkeypatch, swept, collision
):
    rng = np.random.default_rng(15)
    # three reward values: the classes of equal rewards are coarser than the partition
    members = planted_members(rng, 3, values=[0.25, 0.5, 0.75])
    successors = members[0].next_states[:, :, 0]
    rewards = np.stack([m.rewards for m in members], axis=1)
    passes = len(successors)  # enough for any partition to settle
    lumped, _, sets = capmdp.mdp._bisimulation(successors, rewards, passes)
    assert sets.shape == (lumped.max() + 1, successors.shape[1])
    assert len(set(rewards[:, 0])) < lumped.max() + 1 < len(successors)
    if collision == "keys":
        # every class signs alike: the passes merge the whole stack into one class
        monkeypatch.setattr(
            capmdp.mdp, "_class_keys", lambda count: np.full(count, 7, dtype=np.uint64)
        )
    else:
        # no pass splits a class: the classes of equal rewards, whose successor sets differ
        monkeypatch.setattr(capmdp.mdp, "_refine", lambda rows, classes, distinct, passes: classes)
    classes, firsts, sets = capmdp.mdp._bisimulation(successors, rewards, passes)
    assert np.array_equal(classes, np.arange(len(successors)))
    assert np.array_equal(firsts, classes) and sets is None
    assert_textbook_solve(members)
    assert set(swept) == {len(successors)}


def test_a_stack_partition_signs_classes_with_keys_whose_sums_do_not_collide():
    # a pass sums a state's own key and its successors' keys, an entry per joint
    # action; with splitmix64 mixed once, own + 2 * successor collides 18 times here
    count = 513
    keys = capmdp.mdp._class_keys(2 * count)
    assert keys.dtype == np.uint64 and len(np.unique(keys)) == 2 * count
    for repeats in (1, 2, 3):
        sums = keys[count:, None] + keys[None, :count] * np.uint64(repeats)
        assert len(np.unique(sums)) == count * count


@pytest.mark.parametrize("length, classes", [(20, 20), (60, 120)])
def test_a_stack_whose_partition_outlasts_the_sweeps_it_needs_sweeps_every_state(
    swept, length, classes
):
    # two equal chains: each state steps to the next, the last loops and pays. A pass
    # tells one more state of each chain from the rest, so the partition settles
    # after about length passes, while gamma 0.5 needs at most 38 sweeps to reach tol
    step = np.minimum(np.arange(length) + 1, length - 1)
    successors = np.concatenate([step, step + length])[:, None].repeat(2, axis=1)
    rewards = np.tile((np.arange(length) == length - 1) * 1.0, 2) * np.array([[1.0], [100.0]])
    members = sure_members(np.random.default_rng(16), successors, rewards, gamma=0.5)
    _, sweeps = assert_textbook_solve(members)
    assert max(sweeps) <= 38
    assert swept[0] == classes


def test_the_default_desk_stack_sweeps_fewer_classes_than_states(swept):
    layout = fruit_forage_layout(desk_config("x"))
    members = [assemble_linear_mmdp(build_fruit_forage(desk_config(t), layout)) for t in "xyz"]
    assert members[0].next_states.shape == (1024, 25, 1)
    assert_textbook_solve(members)
    # the stack lumps 1,024 states into 151 classes; each team alone lumps too
    assert swept[0] == 151
    assert all(size < 1024 for size in swept)


def test_the_default_desk_stack_sweeps_its_classes_in_blocks_of_different_widths(
    monkeypatch, swept
):
    layout = fruit_forage_layout(desk_config("x"))
    members = [assemble_linear_mmdp(build_fruit_forage(desk_config(t), layout)) for t in "xyz"]
    successors = members[0].next_states[:, :, 0]
    rewards = np.stack([m.rewards for m in members], axis=1)
    _, firsts, sets = capmdp.mdp._bisimulation(successors, rewards, len(successors))
    count = len(firsts)
    # blocks of 40 classes for the three members' 25 joint actions: four blocks, each
    # trimmed to its own widest set of successor classes
    per_block = 40
    monkeypatch.setattr(capmdp.mdp, "SCRATCH_ENTRIES", 25 * 3 * per_block)
    widths = [
        np.count_nonzero(sets[lo : lo + per_block] < count, axis=1).max()
        for lo in range(0, count, per_block)
    ]
    assert count == 151 and len(widths) == 4 and len(set(widths)) > 1
    assert_textbook_solve(members)
    assert swept[0] == 151
