"""Successor-index transition layout checked against its densified twin."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capmdp import (
    InfluenceWeights,
    LinearMMDPSpec,
    MMDPEnvironment,
    Solver,
    SolverConvergenceError,
    StateSpace,
    TabularMMDP,
    TransitionKernel,
    assemble_linear_mmdp,
    certify_approx_dynamics,
    certify_team_generalization,
    perturb_dynamics,
    policy_evaluation_stack,
    successor_features,
    transition_deviation_exact,
    value_iteration,
    value_iteration_stack,
)
import capmdp.bounds
import capmdp.linear
import capmdp.mdp
from capmdp.envs.fruit_forage import build_fruit_forage, desk_config, fruit_forage_layout
from capmdp.harness import ExperimentConfig, run_fruit_forage


def densify(mmdp: TabularMMDP) -> TabularMMDP:
    """The dense (S, A, S) twin of an indexed MDP; repeated successors add up."""
    dense = np.zeros((mmdp.num_states, mmdp.num_joint_actions, mmdp.num_states))
    s, u = np.indices(dense.shape[:2])
    for k in range(mmdp.next_states.shape[2]):
        np.add.at(dense, (s, u, mmdp.next_states[:, :, k]), mmdp.transitions[:, :, k])
    return TabularMMDP(
        states=mmdp.states,
        num_agents=mmdp.num_agents,
        actions_per_agent=mmdp.actions_per_agent,
        rewards=mmdp.rewards,
        transitions=dense,
        gamma=mmdp.gamma,
        rho=mmdp.rho,
    )


def random_indexed(rng, num_states, num_joint, width, feature_dim=3, gamma=0.9):
    """One agent with num_joint actions; width successors per row, repeats allowed."""
    shape = (num_states, num_joint)
    probs = rng.dirichlet(np.ones(width), size=shape) if width > 1 else np.ones(shape + (1,))
    return TabularMMDP(
        states=StateSpace(rng.uniform(0.0, 1.0, (num_states, feature_dim))),
        num_agents=1,
        actions_per_agent=num_joint,
        rewards=rng.uniform(0.0, 1.0, num_states),
        transitions=probs,
        gamma=gamma,
        rho=rng.dirichlet(np.ones(num_states)),
        next_states=rng.integers(0, num_states, shape + (width,)),
    )


def solve_both(mmdp, policy):
    values, greedy = value_iteration(mmdp)
    [evaluated], _ = policy_evaluation_stack([(mmdp, policy)])
    features = successor_features(mmdp, policy)
    return values, greedy, evaluated, features


twin_sizes = dict(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(1, 12),
    num_joint=st.integers(1, 9),
)


@given(**twin_sizes)
def test_deterministic_index_solves_bit_identically_to_dense(seed, num_states, num_joint):
    indexed = random_indexed(np.random.default_rng(seed), num_states, num_joint, width=1)
    assert np.all(indexed.transitions == 1.0)
    dense = densify(indexed)
    policy = value_iteration(dense)[1]
    vt_i, greedy_i, ev_i, sf_i = solve_both(indexed, policy)
    vt_d, greedy_d, ev_d, sf_d = solve_both(dense, policy)
    assert np.array_equal(vt_i.v.view(np.int64), vt_d.v.view(np.int64))
    assert np.array_equal(greedy_i.actions, greedy_d.actions)
    assert np.array_equal(ev_i.v, ev_d.v)
    assert np.array_equal(sf_i.mu_per_state, sf_d.mu_per_state)
    assert np.array_equal(sf_i.mu_scalar, sf_d.mu_scalar)


@given(**twin_sizes)
def test_stochastic_index_agrees_with_dense_to_1e12(seed, num_states, num_joint):
    indexed = random_indexed(np.random.default_rng(seed), num_states, num_joint, width=3)
    dense = densify(indexed)
    policy = value_iteration(dense)[1]
    vt_i, _, ev_i, sf_i = solve_both(indexed, policy)
    vt_d, _, ev_d, sf_d = solve_both(dense, policy)
    np.testing.assert_allclose(vt_i.v, vt_d.v, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(ev_i.v, ev_d.v, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(sf_i.mu_per_state, sf_d.mu_per_state, rtol=1e-12, atol=0.0)


def indexed_fields(rng):
    mmdp = random_indexed(rng, num_states=4, num_joint=3, width=2)
    return {
        "states": mmdp.states, "num_agents": 1, "actions_per_agent": 3,
        "rewards": mmdp.rewards, "transitions": mmdp.transitions, "gamma": 0.9,
        "rho": mmdp.rho, "next_states": mmdp.next_states,
    }


def test_indexed_validation_names_the_offending_pair():
    fields = indexed_fields(np.random.default_rng(3))
    TabularMMDP(**fields)

    negative = fields["transitions"].copy()
    negative[1, 2] = [1.5, -0.5]
    with pytest.raises(ValueError, match=r"\(s=1, u=2\) has a negative entry"):
        TabularMMDP(**{**fields, "transitions": negative})

    short = fields["transitions"].copy()
    short[2, 0] = [0.3, 0.3]
    with pytest.raises(ValueError, match=r"\(s=2, u=0\) sums to"):
        TabularMMDP(**{**fields, "transitions": short})

    for bad_state in (4, -1):
        outside = fields["next_states"].copy()
        outside[3, 1, 1] = bad_state
        with pytest.raises(ValueError, match=r"\(s=3, u=1\) names a state outside"):
            TabularMMDP(**{**fields, "next_states": outside})

    with pytest.raises(ValueError, match="integer"):
        TabularMMDP(**{**fields, "next_states": fields["next_states"].astype(float)})
    with pytest.raises(ValueError, match="match next_states"):
        TabularMMDP(**{**fields, "transitions": fields["transitions"][:, :, :1]})


def test_indexed_kernel_validation_names_the_offending_pair():
    next_states = np.zeros((2, 3, 1), dtype=np.int64)
    ones = np.ones((2, 2, 3, 1))
    kernel = TransitionKernel(ones, next_states=next_states)
    assert (kernel.num_states, kernel.num_joint_actions) == (2, 3)
    outside = next_states.copy()
    outside[1, 2, 0] = 2
    with pytest.raises(ValueError, match=r"\(s=1, u=2\) names a state outside"):
        TransitionKernel(ones, next_states=outside)
    halves = ones.copy()
    halves[1, 0, 1] = 0.5
    with pytest.raises(ValueError, match=r"component 1 row \(s=0, u=1\)"):
        TransitionKernel(halves, next_states=next_states)
    # one array broadcast to every component is checked once, and named as component 0,
    # read-only (checked through mdp._once) or not
    for entry, message in ((0.5, "sums to"), (-1.0, "has a negative entry")):
        for frozen in (False, True):
            bad = np.ones((2, 3, 1))
            bad[1, 2, 0] = entry
            bad.flags.writeable = not frozen
            with pytest.raises(ValueError, match=rf"^kernel component 0 row \(s=1, u=2\) {message}"):
                TransitionKernel(np.broadcast_to(bad, (2, 2, 3, 1)), next_states=next_states)
    with pytest.raises(ValueError, match="shape"):
        TransitionKernel(np.ones((2, 2, 3, 2)) / 2, next_states=next_states)


def test_a_bad_row_in_a_later_block_is_named_by_its_global_pair(monkeypatch):
    fields = indexed_fields(np.random.default_rng(8))
    # blocks of two states' (3, 2) rows: state 3's rows are read in the second block
    monkeypatch.setattr(capmdp.mdp, "SCRATCH_ENTRIES", 2 * 3 * 2)
    components = np.stack([fields["transitions"]] * 2)
    TransitionKernel(components, next_states=fields["next_states"])
    for entries, message in (([0.3, 0.3], "sums to"), ([1.5, -0.5], "has a negative entry")):
        rows = fields["transitions"].copy()
        rows[3, 1] = entries
        with pytest.raises(ValueError, match=rf"^transition row \(s=3, u=1\) {message}"):
            TabularMMDP(**{**fields, "transitions": rows})
        bad = components.copy()
        bad[1, 3, 1] = entries
        with pytest.raises(ValueError, match=rf"^kernel component 1 row \(s=3, u=1\) {message}"):
            TransitionKernel(bad, next_states=fields["next_states"])
    for bad_state in (4, -1):
        outside = fields["next_states"].copy()
        outside[3, 1, 1] = outside[3, 2, 0] = bad_state
        with pytest.raises(ValueError, match=r"^successor row \(s=3, u=1\) names a state outside"):
            TabularMMDP(**{**fields, "next_states": outside})
        with pytest.raises(ValueError, match=r"^successor row \(s=3, u=1\) names a state outside"):
            TransitionKernel(components, next_states=outside)


def test_the_successor_check_holds_about_one_block():
    # the three-agent grid-5 desk's index shape, broadcast so that the index holds nothing
    num_states, num_joint = 62_500, 125
    index = np.broadcast_to(np.arange(num_joint)[None, :, None], (num_states, num_joint, 1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert capmdp.mdp.check_next_states(index, num_states, num_joint) is index
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the rows are read in blocks of mdp.SCRATCH_ENTRIES entries, so the check
    # holds a few blocks of bools; a check of the whole index held 14.9 MiB here
    assert peak <= 8 * capmdp.mdp.SCRATCH_ENTRIES


@pytest.mark.parametrize("rows", ["mdp", "kernel"])
def test_the_row_check_holds_less_than_one_state_action_array(rows):
    num_states, num_joint = 4096, 64
    unit = np.ones((num_states, num_joint, 1))
    index = np.zeros(unit.shape, dtype=np.int64)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        if rows == "mdp":
            TabularMMDP(
                states=StateSpace(np.zeros((num_states, 1))),
                num_agents=1,
                actions_per_agent=num_joint,
                rewards=np.zeros(num_states),
                transitions=unit,
                gamma=0.9,
                rho=np.full(num_states, 1.0 / num_states),
                next_states=index,
            )
        else:
            TransitionKernel(np.broadcast_to(unit, (3,) + unit.shape), next_states=index)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the rows are read in blocks of mdp.SCRATCH_ENTRIES entries, so the check holds
    # less than one float per (s, u); a check of the whole array held three
    assert peak < num_states * num_joint * 8


def test_json_round_trips_keep_the_successor_index(same_mdp):
    spec = build_fruit_forage(desk_config("x", grid_size=2))
    spec_loaded = LinearMMDPSpec.from_json(spec.to_json())
    assert spec_loaded.transition_kernel.equals(spec.transition_kernel)
    assert same_mdp(assemble_linear_mmdp(spec_loaded), assemble_linear_mmdp(spec))


def test_perturb_dynamics_rejects_an_indexed_mdp():
    mmdp = TabularMMDP(**indexed_fields(np.random.default_rng(5)))
    with pytest.raises(ValueError, match="dense transition tensor"):
        perturb_dynamics(mmdp, 0.01, 0.01, seed=0)


def test_transition_gaps_compare_across_layouts():
    rng = np.random.default_rng(6)
    indexed = random_indexed(rng, num_states=5, num_joint=4, width=3)
    dense = densify(indexed)
    assert indexed.transition_gaps(dense) == (0.0, 0.0)
    other = densify(
        replace(
            indexed,
            transitions=rng.dirichlet(np.ones(2), size=(5, 4)),
            next_states=rng.integers(0, 5, (5, 4, 2)),
        )
    )
    assert transition_deviation_exact(indexed, other) == pytest.approx(
        transition_deviation_exact(dense, other), abs=1e-15
    )
    assert indexed.transition_gaps(other)[0] == pytest.approx(
        dense.transition_gaps(other)[0], abs=1e-15
    )


def test_approx_dynamics_accepts_dense_actuals_for_indexed_specs():
    spec_x = build_fruit_forage(desk_config("x", grid_size=2))
    spec_y = build_fruit_forage(desk_config("y", grid_size=2))
    actual_x = densify(assemble_linear_mmdp(spec_x))
    actual_y = densify(assemble_linear_mmdp(spec_y))
    report = Solver().report(certify_approx_dynamics, spec_x, spec_y, actual_x, actual_y)
    assert report.constituents["eps_hat_p"] == 0.0
    assert report.constituents["eps_hat_r"] == 0.0
    exact = Solver().report(certify_team_generalization, spec_x, spec_y)
    assert report.bound_value == exact.bound_value
    assert report.actual_value == exact.actual_value


def test_environment_steps_to_the_indexed_successors():
    mmdp = TabularMMDP(**indexed_fields(np.random.default_rng(7)))
    env = MMDPEnvironment(mmdp, episode_limit=50, seed=0)
    [state] = env.reset()
    for step in range(50):
        action = step % mmdp.num_joint_actions
        [next_state], _, _ = env.step([action])
        row = mmdp.next_states[state, action][mmdp.transitions[state, action] > 0]
        assert next_state in row
        state = next_state


# tracemalloc peaks of value iteration on one three-agent grid-4 desk team
# (16,384 states x 125 joint actions) alone, measured on the solver that held
# an (A, S) expected-value buffer and (A, S, K) copies of the successor index
# and probabilities per member: 47.0 MB while sweeping (stopped before its
# last backup), and 31.6 MB beyond its answer over the whole solve. The four
# desk teams stacked on one shared index measure 26.0 MB and 16.6 MB; the
# pins are the lone team's figures, with no margin added.
LONE_TEAM_SWEEPING_MB = 47.0
LONE_TEAM_BEYOND_ANSWERS_MB = 31.6


def test_desk_teams_hold_one_broadcast_unit_probability(monkeypatch):
    layout = fruit_forage_layout(desk_config())
    checked, digested = [], []
    for module, name, seen in (
        (capmdp.mdp, "_check_transition_rows", checked),
        (capmdp.bounds, "_array_digest", digested),
    ):
        def spy(arr, *args, fn=getattr(module, name), seen=seen):
            seen.append(arr)
            return fn(arr, *args)

        monkeypatch.setattr(module, name, spy)
    specs = [build_fruit_forage(desk_config(label), layout) for label in "xyz"]
    z = specs[2]
    a = z.weights.a
    specs.append(z.with_team(z.team.drop_last(), InfluenceWeights(a[:-1] / (1.0 - a[-1]))))
    mmdps = [assemble_linear_mmdp(spec) for spec in specs]
    Solver().solve_all(mmdps)
    # the layout stores one read-only unit probability for every component, state and joint action
    components = layout.transition_kernel.components
    assert capmdp.mdp._backing(components).shape == (1, 1, 1, 1)
    assert not components.flags.writeable and np.all(capmdp.mdp._backing(components) == 1.0)
    # and every team holds one mixed entry of it, broadcast the same way
    for mmdp in mmdps:
        assert mmdp.transitions.shape == mmdp.next_states.shape
        assert capmdp.mdp._backing(mmdp.transitions).shape == (1, 1, 1)
        assert not mmdp.transitions.flags.writeable and np.all(mmdp.transitions == 1.0)
    # so each team's row check and digest of its probabilities reads one entry
    probabilities = [arr for arr in checked + digested if arr.ndim > 1 and arr.dtype == float]
    assert len(probabilities) == 2 * len(mmdps)
    assert all(capmdp.mdp._backing(arr).size == 1 for arr in probabilities)


def test_the_desk_kernel_and_its_teams_check_the_shared_arrays_once(monkeypatch):
    calls = {"check_next_states": [], "_check_transition_rows": []}
    for name, seen in calls.items():
        def spy(arr, *args, fn=getattr(capmdp.mdp, name), seen=seen):
            seen.append(arr)
            return fn(arr, *args)

        # the kernel reaches the index check through capmdp.linear's own name for it
        for module in (capmdp.mdp, capmdp.linear):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    layout = fruit_forage_layout(desk_config())
    mmdps = [assemble_linear_mmdp(build_fruit_forage(desk_config(t), layout)) for t in "xyz"]
    index = mmdps[0].next_states
    assert index is layout.transition_kernel.next_states
    assert index.flags.owndata and not index.flags.writeable
    # the kernel checks the read-only index its teams hold, and the teams check it not again
    assert [arr is index for arr in calls["check_next_states"]] == [True]
    # the kernel's rows and each team's are checked in their one stored entry
    rows = calls["_check_transition_rows"]
    assert rows[0] is layout.transition_kernel.components
    assert [arr is mmdp.transitions for arr, mmdp in zip(rows[1:], mmdps)] == [True] * 3
    assert all(capmdp.mdp._backing(arr).size == 1 for arr in rows)


def test_a_large_desk_stack_holds_less_than_one_team_did_alone():
    layout = fruit_forage_layout(desk_config("x", 4, 3))
    specs = [build_fruit_forage(desk_config(label, 4, 3), layout) for label in "xyz"]
    # population_decrease's team: z without its last member, weights renormalized
    z = specs[2]
    a = z.weights.a
    specs.append(z.with_team(z.team.drop_last(), InfluenceWeights(a[:-1] / (1.0 - a[-1]))))
    mmdps = [assemble_linear_mmdp(spec) for spec in specs]
    assert mmdps[0].transitions.shape == (16384, 125, 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(SolverConvergenceError):
            value_iteration_stack(mmdps, max_iters=32)
        sweeping = tracemalloc.get_traced_memory()[1] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solutions, sweeps = value_iteration_stack(mmdps)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the answers hold each team's v and greedy actions, and no (S, A) table; a
    # few KB more are the answers' Python objects
    answers = sum(values.v.nbytes + policy.actions.nbytes for values, policy in solutions)
    assert answers == len(mmdps) * mmdps[0].num_states * (8 + 8)
    assert held - start <= answers + 2**14
    assert sweeping <= LONE_TEAM_SWEEPING_MB * 2**20
    assert peak - held <= LONE_TEAM_BEYOND_ANSWERS_MB * 2**20
    assert sweeps == [187, 166, 172, 171]
    for mmdp, (values, policy), n in zip(mmdps, solutions, sweeps):
        [(alone_values, alone_policy)], [alone_n] = value_iteration_stack([mmdp])
        assert n == alone_n
        assert np.array_equal(values.v.view(np.int64), alone_values.v.view(np.int64))
        assert np.array_equal(policy.actions, alone_policy.actions)


# tracemalloc peak of a whole fruit-forage run on the three-agent grid-4 desk,
# measured on the solver whose answers are each team's v and greedy actions,
# with rows checked, successors range-checked and the layout's successor
# index built in blocks, and the unit probabilities stored as one entry
# broadcast over every component, state and joint action: 21.19 MB (2**20
# bytes), reached in the stacked solve (the layout's build peaks at 17.85
# MB). Every team holding the layout's own (S, A, 1) array of ones peaked
# the run at 36.93 MB; teams that held a mixed copy of that array, beside a
# whole-index range check, at 52.55 MB; a layout built in one pass at 56.3
# MB inside it; a solver that kept each team's (S, A) q table, beside
# whole-array row checks and mixtures, at 115.0 MB. The pin is the measured
# figure, rounded up to 0.1.
DESK_RUN_MB = 21.2


def test_a_three_agent_desk_run_holds_no_more_than_its_pinned_peak():
    config = ExperimentConfig.from_doc(
        {"kind": "fruit-forage", "fruit_forage": {"num_agents": 3, "grid_size": 4}}
    )
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_fruit_forage(config)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= DESK_RUN_MB * 2**20
