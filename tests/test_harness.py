"""Experiment harness: configs, generators, runners, artifacts, CLI."""

import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from capmdp import (
    BoundReport,
    ConfigError,
    ExperimentConfig,
    GeneratorRanges,
    Solver,
    TrainSchedule,
    certify_instance,
    certify_policy_transfer,
    certify_team_generalization,
    default_config,
    determinism_hash,
    emit_results,
    generate_linear_pair,
    polynomial_deviation_report,
    polynomial_reward,
    replay_violations,
    run_experiment,
    run_output_dir,
    sample_polynomial_spec,
)
from capmdp import _digests
import capmdp.cli
from capmdp.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VIOLATION, main
from capmdp.envs import PredatorPreyConfig, desk_config
import capmdp.harness
from capmdp.harness import (
    CHECKS,
    CORE_COLUMNS,
    MAX_KERNEL_BYTES,
    Check,
    _instance_cases,
    run_fruit_forage,
    run_predator_prey,
    run_sweep,
    run_verify_bounds,
    rows_to_csv_text,
)

BOUND_NAMES = {
    "team_generalization",
    "policy_transfer",
    "population_decrease",
    "population_increase",
    "capability_estimation",
    "out_of_distribution",
    "approx_dynamics",
    "lipschitz",
    "polynomial_deviation",
}

SMALL_RANGES_DOC = {
    "num_states": [3, 5],
    "num_agents": [2, 2],
    "actions_per_agent": [2, 2],
    "capability_dim": [2, 2],
    "feature_dim": [2, 3],
}


def small_config(**overrides) -> ExperimentConfig:
    doc = {"kind": "verify-bounds", "num_instances": 2, "ranges": SMALL_RANGES_DOC}
    doc.update(overrides)
    return ExperimentConfig.from_doc(doc)


# ---- generator ranges ---------------------------------------------------------------


def test_ranges_round_trip_and_validation():
    ranges = GeneratorRanges(num_states=(2, 9), gamma=0.8)
    assert GeneratorRanges.from_doc(ranges.to_doc()) == ranges
    with pytest.raises(ConfigError, match="unknown ranges field"):
        GeneratorRanges.from_doc({"num_state": [2, 3]})
    with pytest.raises(ConfigError, match="num_states"):
        GeneratorRanges(num_states=(5, 2))
    with pytest.raises(ConfigError, match="actions_per_agent"):
        GeneratorRanges(actions_per_agent=(1, 2))
    with pytest.raises(ConfigError, match="max_joint_actions"):
        GeneratorRanges(num_agents=(2, 8), actions_per_agent=(3, 3))
    with pytest.raises(ConfigError, match="gamma"):
        GeneratorRanges(gamma=1.0)


def test_ranges_whose_largest_kernel_draw_cannot_be_allocated_are_rejected():
    # capability_dim[1] x num_states[1]^2 x joint actions float64 entries,
    # with the joint actions min(max_joint_actions, actions^agents) at the top
    assert MAX_KERNEL_BYTES == 2**28
    assert 4 * 20**2 * 81 * 8 == 1_036_800  # the default ranges
    GeneratorRanges()
    one_dim = dict(capability_dim=(1, 1), num_agents=(2, 2), actions_per_agent=(2, 2))
    GeneratorRanges(num_states=(2896, 2896), **one_dim)  # 2^28 - 57,344 bytes
    with pytest.raises(ConfigError, match="268563488 bytes, over MAX_KERNEL_BYTES"):
        GeneratorRanges(num_states=(2897, 2897), **one_dim)
    # the joint actions are capped by max_joint_actions
    GeneratorRanges(num_states=(2, 1000), capability_dim=(1, 1), max_joint_actions=27)
    with pytest.raises(ConfigError, match="MAX_KERNEL_BYTES"):
        GeneratorRanges(num_states=(2, 1000), capability_dim=(1, 1))
    # a 23.3 GB draw is refused when the config is read, and so is a sweep cell's
    with pytest.raises(ConfigError, match="23328000000 bytes"):
        ExperimentConfig.from_doc({"kind": "verify-bounds", "ranges": {"num_states": [3000, 3000]}})
    cell = {"num_agents": 2, "capability_dim": 2, "num_states": 3000}
    with pytest.raises(ConfigError, match="MAX_KERNEL_BYTES"):
        ExperimentConfig.from_doc({"kind": "sweep", "sweep_cells": [cell]})


def test_generated_pairs_share_a_frame_and_respect_ranges():
    ranges = GeneratorRanges(
        num_states=(3, 7), num_agents=(2, 3), actions_per_agent=(2, 3),
        capability_dim=(2, 4), feature_dim=(2, 5), max_joint_actions=27,
    )
    for seed in range(30):
        spec_x, spec_y = generate_linear_pair(ranges, np.random.default_rng(seed))
        assert 3 <= spec_x.states.num_states <= 7
        assert 2 <= spec_x.team.num_agents <= 3
        assert 2 <= spec_x.capability_dim <= 4
        assert spec_x.actions_per_agent ** spec_x.num_agents <= 27
        assert spec_x.states.equals(spec_y.states)
        assert np.array_equal(spec_x.reward_kernel.w, spec_y.reward_kernel.w)
        assert np.array_equal(spec_x.rho, spec_y.rho)
        assert spec_x.team.all_simplex() and spec_y.team.all_simplex()


def test_generation_is_deterministic_per_seed():
    ranges = GeneratorRanges()
    a = generate_linear_pair(ranges, np.random.default_rng(123))
    b = generate_linear_pair(ranges, np.random.default_rng(123))
    assert a[0].to_json() == b[0].to_json()
    assert a[1].to_json() == b[1].to_json()


def test_single_state_instances_still_certify():
    config = small_config(ranges={**SMALL_RANGES_DOC, "num_states": [1, 1]}, num_instances=1)
    rows, violations = run_verify_bounds(config)
    assert violations == []
    assert all(row["satisfied"] for row in rows)


def test_sampled_polynomials_respect_the_term_budget():
    rng = np.random.default_rng(0)
    for degree in (1, 2, 3):
        for _ in range(20):
            poly = sample_polynomial_spec(rng, num_agents=3, degree=degree, alpha=0.7)
            assert poly.degree == degree
            assert poly.alpha == 0.7
            assert len(poly.terms) <= 1 + sum(2 ** (j - 1) for j in range(1, degree + 1))
            assert all(abs(c) <= 0.7 for c in poly.terms.values())
            assert all(sum(idx) <= degree for idx in poly.terms)


# ---- experiment config ----------------------------------------------------------------


def test_config_parsing_and_errors():
    config = small_config()
    assert config.name == "verify-bounds"  # defaults to the kind
    assert ExperimentConfig.from_doc(config.to_doc()) == config
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_json("{nope")
    with pytest.raises(ConfigError, match="unknown config field"):
        ExperimentConfig.from_doc({"kind": "verify-bounds", "workers": 2})
    with pytest.raises(ConfigError, match="missing the required field 'kind'"):
        ExperimentConfig.from_doc({"seed": 1})
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig.from_doc({"kind": "bench"})
    with pytest.raises(ConfigError, match="unknown fruit_forage field"):
        ExperimentConfig.from_doc({"kind": "fruit-forage", "fruit_forage": {"speed": 1}})
    with pytest.raises(ConfigError, match="unknown predator_prey field"):
        ExperimentConfig.from_doc({"kind": "predator-prey", "predator_prey": {"lr": 0.1}})
    with pytest.raises(ConfigError, match="num_instances"):
        small_config(num_instances=0)
    with pytest.raises(ConfigError, match="eps_p"):
        small_config(eps_p=1.0)
    with pytest.raises(ConfigError, match="output format"):
        small_config(output_format="yaml")
    with pytest.raises(ConfigError, match="schema_version"):
        small_config(schema_version=99)
    with pytest.raises(ConfigError, match="at least one cell"):
        ExperimentConfig.from_doc({"kind": "sweep"})
    with pytest.raises(ConfigError, match="num_agents and capability_dim"):
        ExperimentConfig.from_doc({"kind": "sweep", "sweep_cells": [{"num_agents": 2}]})
    with pytest.raises(ConfigError, match="unknown sweep cell field"):
        ExperimentConfig.from_doc(
            {"kind": "sweep", "sweep_cells": [{"num_agents": 2, "capability_dim": 2, "x": 1}]}
        )


def with_ranges(**params):
    return {"kind": "verify-bounds", "ranges": params}


def forage(**params):
    return {"kind": "fruit-forage", "fruit_forage": params}


def pursuit(**params):
    return {"kind": "predator-prey", "predator_prey": params}


CELL = {"num_agents": 2, "capability_dim": 2}


def sweep(*cells):
    return {"kind": "sweep", "sweep_cells": list(cells)}


# id -> (config document, error message)
UNRUNNABLE_CONFIGS = {
    "tol-inf": ({"kind": "verify-bounds", "tol": float("inf")}, "tol"),
    "tol-nan": ({"kind": "verify-bounds", "tol": float("nan")}, "tol"),
    "tol-true": ({"kind": "verify-bounds", "tol": True}, "tol"),
    "eps_r-nan": ({"kind": "verify-bounds", "eps_r": float("nan")}, "eps_r"),
    "eps_r-inf": ({"kind": "verify-bounds", "eps_r": float("inf")}, "eps_r"),
    "seed-negative": ({"kind": "verify-bounds", "seed": -1}, "seed"),
    # the bad cell comes second: no cell runs before it is rejected
    "sweep-cell-agents-0": (sweep(dict(CELL), dict(CELL, num_agents=0)), "num_agents"),
    # the population checks remove a member: a one-agent team cannot run them
    "ranges-one-agent": (with_ranges(num_agents=[1, 1]), "num_agents"),
    "sweep-cell-agents-1": (sweep(dict(CELL), dict(CELL, num_agents=1)), "num_agents"),
    "sweep-cell-instances-0": (sweep(dict(CELL, num_instances=0)), "num_instances"),
    "forage-grid-0": (forage(grid_size=0), "grid_size"),
    "forage-agents-x": (forage(num_agents="x"), "fruit_forage"),
    "forage-agents-5": (forage(num_agents=5), "members"),
    "forage-agents-1": (forage(num_agents=1), "two agents"),
    "forage-over-cap": (forage(grid_size=16), "cap"),
    "pursuit-steps-0": (pursuit(total_steps=0), "total_steps"),
    "pursuit-episodes-0": (pursuit(eval_episodes=0), "eval_episodes"),
    "pursuit-grid-2": (pursuit(grid_size=2), "too small"),
    "pursuit-mode": (pursuit(mode="sideways"), "mode"),
    # int(True) is 1: a boolean is no number, and a string or pairs are no list or object
    "num_instances-true": ({"kind": "verify-bounds", "num_instances": True}, "num_instances"),
    "eps_r-true": ({"kind": "verify-bounds", "eps_r": True}, "eps_r"),
    "seed-false": ({"kind": "verify-bounds", "seed": False}, "seed"),
    "seed-inf": ({"kind": "verify-bounds", "seed": float("inf")}, "seed"),
    "ranges-item-true": (with_ranges(num_states=[True, 3]), "num_states"),
    "ranges-string": (with_ranges(num_states="45"), "num_states"),
    "sweep-cell-agents-true": (sweep(dict(CELL), dict(CELL, num_agents=True)), "num_agents"),
    "forage-agents-true": (forage(num_agents=True), "num_agents"),
    "forage-pairs": (
        {"kind": "fruit-forage", "fruit_forage": [["grid_size", 3]]}, "fruit_forage"
    ),
    "pursuit-steps-true": (pursuit(total_steps=True), "total_steps"),
    # int(2.7) is 2: an integer field takes no fraction, which would run another config
    "num_instances-fraction": ({"kind": "verify-bounds", "num_instances": 2.7}, "num_instances"),
    "ranges-item-fraction": (with_ranges(num_states=[4.9, 20.2]), "num_states"),
    "sweep-cell-fraction": (sweep(dict(CELL, num_instances=1.5)), "num_instances"),
    "forage-grid-fraction": (forage(grid_size=3.9), "grid_size"),
    "pursuit-steps-fraction": (pursuit(total_steps=300.5), "total_steps"),
    # a run writes under <out>/<name>/, so a name is one plain path component
    "name-parent": ({"kind": "verify-bounds", "name": "../escaped"}, "name"),
    "name-dotdot": ({"kind": "verify-bounds", "name": ".."}, "name"),
    "name-dot": ({"kind": "verify-bounds", "name": "."}, "name"),
    "name-nested": ({"kind": "verify-bounds", "name": "a/b"}, "name"),
    "name-absolute": ({"kind": "verify-bounds", "name": "/capmdp-escaped"}, "name"),
    "name-backslash": ({"kind": "verify-bounds", "name": "a\\b"}, "name"),
}


@pytest.mark.parametrize("case", UNRUNNABLE_CONFIGS)
def test_configs_that_cannot_run_exit_2_before_any_work(tmp_path, case):
    doc, message = UNRUNNABLE_CONFIGS[case]
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_doc(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "runs"
    # exit 1 would read as a violated bound
    assert main([doc["kind"], "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_config_fields_are_cast_by_their_declared_types():
    # a config built directly is checked as a document is
    with pytest.raises(ConfigError, match="tol"):
        ExperimentConfig(kind="verify-bounds", tol=True)
    with pytest.raises(ConfigError, match="ranges"):
        ExperimentConfig(kind="verify-bounds", ranges=[[4, 20]])
    built = ExperimentConfig(kind="verify-bounds", ranges=SMALL_RANGES_DOC, num_instances=2)
    assert built == small_config()
    # int() and float() still read numeric strings, and an integer field a whole float
    config = small_config(seed="5", tol="1e-8")
    assert (config.seed, config.tol) == (5, 1e-8)
    assert small_config(seed=5.0) == small_config(seed=5)
    assert type(small_config(seed=5.0).seed) is int
    pursuit_config = ExperimentConfig.from_doc(pursuit(alpha=1, total_steps="300"))
    assert pursuit_config.predator_prey["alpha"] == 1.0
    assert isinstance(pursuit_config.predator_prey["alpha"], float)
    assert pursuit_config.predator_prey["total_steps"] == 300


def test_section_defaults_come_from_the_classes_that_run_them():
    config = default_config("predator-prey")
    schedule = asdict(TrainSchedule())
    assert {name: config.predator_prey[name] for name in schedule} == schedule
    env = PredatorPreyConfig()
    for name in ("grid_size", "episode_limit", "prey_move_prob"):
        assert config.predator_prey[name] == getattr(env, name)
    desk = desk_config()
    assert config.fruit_forage == {"grid_size": desk.grid_size, "num_agents": desk.num_agents}


# config_hash of each default config and of two benchmark documents: the hash
# names every run directory and fills the config_hash column of every row
PINNED_CONFIG_HASHES = {
    "verify-bounds": "2a57f8097dd8",
    "fruit-forage": "0ee17babc5a3",
    "predator-prey": "b4ea79ee4e2b",
    "sweep": "e44b21e3995f",
}
PINNED_BENCHMARK_HASHES = {
    # pursuit-learn, config seed 0
    "3a2bf550aecf": {
        "kind": "predator-prey",
        "seed": 0,
        "predator_prey": {
            "suite": "unseen_team", "mode": "both", "grid_size": 8,
            "total_steps": 10_000, "epsilon_decay_steps": 2_500, "eval_episodes": 1,
        },
    },
    # certify-random, config seed 14
    "d8cdfa02de12": {"kind": "verify-bounds", "seed": 14, "num_instances": 50},
}


@pytest.mark.parametrize("kind", PINNED_CONFIG_HASHES)
def test_default_configs_keep_their_pinned_hash_and_round_trip(kind):
    config = default_config(kind)
    assert config.config_hash() == PINNED_CONFIG_HASHES[kind]
    assert ExperimentConfig.from_doc(config.to_doc()) == config


@pytest.mark.parametrize("expected", PINNED_BENCHMARK_HASHES)
def test_benchmark_configs_keep_their_pinned_hash(expected):
    assert ExperimentConfig.from_doc(PINNED_BENCHMARK_HASHES[expected]).config_hash() == expected


def test_config_hash_tracks_content():
    a = small_config()
    b = small_config()
    c = small_config(seed=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 12


def test_a_run_hashes_its_config_once(tmp_path, monkeypatch):
    config = small_config()
    documents = []
    to_doc = ExperimentConfig.to_doc
    monkeypatch.setattr(
        ExperimentConfig, "to_doc", lambda self: documents.append(self) or to_doc(self)
    )
    run_experiment(config, tmp_path)
    # the run directory, summary and every row read one hash; config.json writes the document
    assert documents == [config, config]


def test_default_configs_exist_for_every_kind():
    for kind in ("verify-bounds", "fruit-forage", "predator-prey", "sweep"):
        config = default_config(kind, seed=3)
        assert config.kind == kind and config.seed == 3
    assert default_config("sweep").sweep_cells
    with pytest.raises(ConfigError):
        default_config("nope")


# ---- certification runs ---------------------------------------------------------------


def test_certify_instance_emits_every_bound_kind():
    config = small_config()
    rows, violations = certify_instance(config, 0)
    assert violations == []
    assert {row["bound_name"] for row in rows} == BOUND_NAMES
    assert len(rows) == len(BOUND_NAMES)
    assert all(row["instance"] == 0 for row in rows)
    assert all(row["wall_time"] >= 0.0 for row in rows)
    again, _ = certify_instance(config, 0)
    assert determinism_hash(rows) == determinism_hash(again)
    other, _ = certify_instance(config, 1)
    assert determinism_hash(rows) != determinism_hash(other)


def test_each_instance_solves_on_its_own_solver(monkeypatch):
    real = capmdp.harness.certify_instance
    solvers = []

    def spy(config, index, solver):
        solvers.append(solver)
        return real(config, index, solver)

    monkeypatch.setattr(capmdp.harness, "certify_instance", spy)
    config = small_config(num_instances=6)
    counts = Counter()
    run_verify_bounds(config, solve_counts=counts)
    assert len({id(solver) for solver in solvers}) == 6
    assert counts["value_iteration_solves"] == sum(s.solves for s in solvers)
    assert counts["cache_hits"] == sum(s.hits for s in solvers)
    assert counts["sweeps"] == sum(s.sweeps for s in solvers)
    assert counts["max_sweeps"] == max(s.max_sweeps for s in solvers)
    assert counts["policy_evaluations"] == sum(s.evaluations for s in solvers)
    assert counts["evaluation_hits"] == sum(s.evaluation_hits for s in solvers)
    assert counts["evaluation_sweeps"] == sum(s.evaluation_sweeps for s in solvers)


def test_an_instance_solves_at_the_config_tol():
    config = small_config(tol=1e-6)
    fresh, _ = certify_instance(config, 0)
    given, _ = certify_instance(config, 0, Solver(1e-6))
    assert determinism_hash(given) == determinism_hash(fresh)
    assert determinism_hash(fresh) != determinism_hash(certify_instance(small_config(), 0)[0])
    # a solver at another tol would write rows the config does not describe
    with pytest.raises(ValueError, match="not the config's"):
        certify_instance(config, 0, Solver())


def spy_requests(monkeypatch):
    """Record every solve_all and evaluate_all request list, and the sweeps of every stack."""
    calls = {"solve_all": [], "evaluate_all": [], "solve_stacks": [], "evaluation_stacks": []}
    for method in ("solve_all", "evaluate_all"):
        real = getattr(Solver, method)

        def spy(self, requests, real=real, seen=calls[method]):
            seen.append(list(requests))
            return real(self, requests)

        monkeypatch.setattr(Solver, method, spy)
    for name, seen in (
        ("value_iteration_stack", calls["solve_stacks"]),
        ("policy_evaluation_stack", calls["evaluation_stacks"]),
    ):
        real = getattr(capmdp.bounds, name)

        def spy_stack(requests, *args, real=real, seen=seen):
            answers, sweeps = real(requests, *args)
            seen.append(sweeps)
            return answers, sweeps

        monkeypatch.setattr(capmdp.bounds, name, spy_stack)
    return calls


def answer_one_instance(monkeypatch, seed, index, distinct):
    """Certify one default instance; it makes one solve_all and one evaluate_all.

    distinct is the number of distinct transfer evaluations it needs.
    """
    calls = spy_requests(monkeypatch)
    solver = Solver()
    rows, _ = certify_instance(default_config("verify-bounds", seed), index, solver)
    assert len(rows) == len(BOUND_NAMES)
    [wanted] = calls["solve_all"]
    contents = {(m.rewards.tobytes(), m.transitions.tobytes()) for m in wanted}
    assert (len(wanted), len(contents)) == (16, 9)
    [sweeps] = calls["solve_stacks"]
    assert len(sweeps) == 9
    assert (solver.solves, solver.hits) == (9, 7)
    assert (solver.sweeps, solver.max_sweeps) == (sum(sweeps), max(sweeps))
    # policy transfer, capability estimation and out of distribution each
    # evaluate one policy on the x task, all three in one evaluate_all
    [evaluated] = calls["evaluate_all"]
    assert len(evaluated) == 3
    assert all(mmdp is wanted[0] for mmdp, _ in evaluated)
    assert len({policy.actions.tobytes() for _, policy in evaluated}) == distinct
    [evaluation_sweeps] = calls["evaluation_stacks"]
    assert len(evaluation_sweeps) == distinct
    assert (solver.evaluations, solver.evaluation_hits) == (distinct, 3 - distinct)
    assert solver.evaluation_sweeps == sum(evaluation_sweeps)


def test_an_instance_answers_every_check_with_one_stacked_solve(monkeypatch):
    answer_one_instance(monkeypatch, seed=0, index=0, distinct=3)


def test_an_instance_evaluates_a_repeated_transfer_policy_once(monkeypatch):
    # in instance 2 of config seed 59 two transfer checks evaluate one policy
    answer_one_instance(monkeypatch, seed=59, index=2, distinct=2)


def test_a_calculator_makes_at_most_two_requests(monkeypatch):
    def three_requests(case, tol):
        yield ()
        yield ()
        yield ()

    monkeypatch.setitem(CHECKS, "lipschitz", Check(CHECKS["lipschitz"].fields, three_requests))
    with pytest.raises(RuntimeError, match="at most two requests"):
        certify_instance(small_config(), 0)
    with pytest.raises(RuntimeError, match="at most two requests"):
        Solver().report(three_requests, {})


def test_a_calculator_that_requests_nothing_calls_no_solver_method(monkeypatch):
    calls = spy_requests(monkeypatch)
    case = dict(_instance_cases(small_config(), 0))["polynomial_deviation"]
    solver = Solver()
    report = solver.report(CHECKS["polynomial_deviation"].run, case)
    assert report.bound_name == "polynomial_deviation"
    assert calls == {"solve_all": [], "evaluate_all": [], "solve_stacks": [], "evaluation_stacks": []}
    assert set(solver.counts().values()) == {0}


def test_a_calculator_that_evaluates_nothing_returns_after_its_solves(monkeypatch):
    spec_x, spec_y = generate_linear_pair(GeneratorRanges(), np.random.default_rng(0))
    calls = spy_requests(monkeypatch)
    Solver().report(certify_team_generalization, spec_x, spec_y)
    assert [len(request) for request in calls["solve_all"]] == [2]
    assert calls["evaluate_all"] == []


def test_building_the_checks_of_an_instance_does_no_work(monkeypatch):
    # every check does its work in its sends, so a row's wall_time, the time
    # spent in those sends, covers all of it
    called = Counter()
    for name in ("perturb_dynamics", "assemble_lipschitz_mmdp", "assemble_linear_mmdp"):
        real = getattr(capmdp.harness, name)

        def counted(*args, name=name, real=real, **kwargs):
            called[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(capmdp.harness, name, counted)
    config = small_config()
    calculators = [CHECKS[name].run(case, config.tol) for name, case in _instance_cases(config, 0)]
    assert len(calculators) == len(CHECKS) and not called
    Solver(config.tol).run(calculators)
    assert called["perturb_dynamics"] == called["assemble_lipschitz_mmdp"] == 2


def test_the_readme_solver_counts_example():
    spec_x, spec_y = generate_linear_pair(GeneratorRanges(), np.random.default_rng(0))
    solver = Solver()
    solver.report(certify_team_generalization, spec_x, spec_y)
    solver.report(certify_policy_transfer, spec_x, spec_y)
    assert solver.counts() == {
        "value_iteration_solves": 2,
        "cache_hits": 2,
        "sweeps": 402,
        "max_sweeps": 201,
        "policy_evaluations": 1,
        "evaluation_hits": 0,
        "evaluation_sweeps": 201,
    }


def test_polynomial_deviation_matches_the_per_state_reference():
    config = small_config(ranges={**SMALL_RANGES_DOC, "num_agents": [2, 4], "num_states": [1, 9]})
    checked = 0
    for index in range(12):
        cases = dict(_instance_cases(config, index))
        case = cases["polynomial_deviation"]
        spec_x = case["spec_x"]
        poly, moved, kernel = case["poly"], case["team_perturbed"], spec_x.reward_kernel
        report = polynomial_deviation_report(
            poly, spec_x.team, moved, case["member_index"], case["delta"], kernel, spec_x.states
        )
        # the reward shift measured state by state, each weight vector rebuilt
        reference = max(
            abs(
                polynomial_reward(poly, spec_x.team, kernel, phi)
                - polynomial_reward(poly, moved, kernel, phi)
            )
            for phi in spec_x.states.features
        )
        assert report.actual_value == reference
        checked += reference > 0
    assert checked >= 6


def test_summary_counts_solves_and_cache_hits(tmp_path):
    # 9 distinct MDPs per instance; 7 of its 16 solve requests repeat one
    config = ExperimentConfig(kind="verify-bounds", num_instances=2)
    run_experiment(config, tmp_path)
    summary = json.loads((run_output_dir(config, tmp_path) / "summary.json").read_text())
    assert summary["solver"] == {
        "value_iteration_solves": 18, "cache_hits": 14, "sweeps": 3607, "max_sweeps": 201,
        "policy_evaluations": 6, "evaluation_hits": 0, "evaluation_sweeps": 1203,
    }
    # team x and y are shared by the first two reports, z by nothing
    forage = ExperimentConfig(kind="fruit-forage", fruit_forage={"grid_size": 2})
    run_experiment(forage, tmp_path)
    summary = json.loads((run_output_dir(forage, tmp_path) / "summary.json").read_text())
    assert summary["solver"] == {
        "value_iteration_solves": 4, "cache_hits": 2, "sweeps": 695, "max_sweeps": 187,
        "policy_evaluations": 1, "evaluation_hits": 0, "evaluation_sweeps": 187,
    }


# a short pursuit run on grid 8 (the window view), blind and aware: it pins
# the env's RNG streams and the trainer's table updates end to end
PINNED_PURSUIT_CONFIG = {
    "kind": "predator-prey",
    "predator_prey": {
        "mode": "both",
        "grid_size": 8,
        "total_steps": 2000,
        "epsilon_decay_steps": 500,
        "eval_episodes": 1,
    },
}
# the three-agent desk on grid 4: 16,384 states, 125 joint actions, and rows
# whose successors repeat far more than the default desk's
PINNED_FORAGE_CONFIG = {"kind": "fruit-forage", "fruit_forage": {"num_agents": 3}}
# the three-agent desk on grid 5: 62,500 states, the largest desk a test certifies
PINNED_FORAGE_GRID5_CONFIG = {
    "kind": "fruit-forage", "fruit_forage": {"num_agents": 3, "grid_size": 5},
}

# (determinism_hash, then solves, hits, sweeps, max sweeps, evaluations,
# evaluation hits and evaluation sweeps) of three default CLI runs and the
# pursuit and desk runs above. A change that keeps the arithmetic keeps all
# of them; one that reorders floating-point work re-records them with a
# CHANGES.md note.
PINNED_RUNS = {
    "verify-bounds --seed 5": (
        "ad49e7d6bad81dcc9a54d15aa970c7af3d4cf3bc15b6319ea791934767118962",
        (450, 350, 88609, 204, 139, 11, 27376),
    ),
    "sweep": (
        "ea3d80228b822777ed79e3643e1358897d4f9183207a26983097e60c7259e702",
        (360, 280, 70791, 204, 104, 16, 20437),
    ),
    "fruit-forage": (
        "74449fa1e454aaa0b7ab77384cc88dfb14610dd3798acd8934bce5b530dbda30",
        (4, 2, 695, 187, 1, 0, 187),
    ),
    "fruit-forage --config forage3.json": (
        "608e31850b404e7141305fdccbe86601dcea6ece6d5ca01b63026d01dc7ddcde",
        (4, 2, 696, 187, 1, 0, 187),
    ),
    "fruit-forage --config forage3g5.json": (
        "2f62f1e4179932cba7dffd57a472c2ec3cfe6a52e29f8d525aa9d7f91edfc76e",
        (4, 2, 696, 187, 1, 0, 187),
    ),
    "predator-prey --config pursuit.json": (
        "cc766b3c5fd2e9fa1472de08d52024d7f17fe7ce944cefa7ff51543db733cce3",
        (0, 0, 0, 0, 0, 0, 0),
    ),
}


@pytest.mark.parametrize("command", PINNED_RUNS)
def test_default_runs_keep_their_pinned_hash_and_solver_counts(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pursuit.json").write_text(json.dumps(PINNED_PURSUIT_CONFIG))
    (tmp_path / "forage3.json").write_text(json.dumps(PINNED_FORAGE_CONFIG))
    (tmp_path / "forage3g5.json").write_text(json.dumps(PINNED_FORAGE_GRID5_CONFIG))
    assert main([*command.split(), "--out", str(tmp_path)]) == EXIT_OK
    [path] = tmp_path.glob("*/*/summary.json")
    summary = json.loads(path.read_text())
    expected_hash, counts = PINNED_RUNS[command]
    assert summary["determinism_hash"] == expected_hash
    if command.startswith("predator-prey"):
        # per mode: 10 evaluated tasks of one 100-step episode; seconds stay out of the hash
        for mode in ("blind", "aware"):
            block = summary["learner"][mode]
            assert (block["table_keys"], block["train_env_steps"], block["eval_env_steps"]) == (
                6549, 2000, 1000,
            )
            assert block["train_seconds"] > 0.0
    else:
        assert "learner" not in summary
    assert summary["solver"] == dict(
        zip(
            (
                "value_iteration_solves", "cache_hits", "sweeps", "max_sweeps",
                "policy_evaluations", "evaluation_hits", "evaluation_sweeps",
            ),
            counts,
        )
    )


def test_sweep_pins_cell_dimensions():
    config = ExperimentConfig.from_doc(
        {
            "kind": "sweep",
            "num_instances": 1,
            "ranges": SMALL_RANGES_DOC,
            "sweep_cells": [
                {"num_agents": 2, "capability_dim": 2},
                {"num_agents": 3, "capability_dim": 3, "num_instances": 2},
            ],
        }
    )
    rows, violations = run_sweep(config)
    assert violations == []
    assert len(rows) == (1 + 2) * len(BOUND_NAMES)
    for row in rows:
        assert (row["cell_num_agents"], row["cell_capability_dim"]) in ((2, 2), (3, 3))
        if row["bound_name"] == "team_generalization":
            assert row["capability_dim"] == row["cell_capability_dim"]


def test_fruit_forage_runner_on_a_small_grid():
    config = ExperimentConfig.from_doc(
        {"kind": "fruit-forage", "fruit_forage": {"grid_size": 3, "num_agents": 2}}
    )
    rows, violations = run_fruit_forage(config)
    assert violations == []
    assert [row["bound_name"] for row in rows] == [
        "team_generalization", "policy_transfer", "population_decrease",
    ]
    assert all(row["satisfied"] for row in rows)


def test_the_default_forage_run_solves_its_four_desk_mdps_in_one_stack(monkeypatch):
    stacks = []
    real_stack = capmdp.bounds.value_iteration_stack

    def spy(mmdps, *args):
        stacks.append(list(mmdps))
        return real_stack(mmdps, *args)

    monkeypatch.setattr(capmdp.bounds, "value_iteration_stack", spy)
    counts = Counter()
    run_fruit_forage(ExperimentConfig(kind="fruit-forage"), counts)
    # teams x, y, z and z without its last member differ in their rewards
    # only: the desk specs share one layout, so the MDPs share one index
    [stack] = stacks
    assert len(stack) == 4
    assert all(mmdp.next_states is stack[0].next_states for mmdp in stack)
    assert stack[0].transitions.shape == (1024, 25, 1)
    assert dict(counts) == {
        "value_iteration_solves": 4, "cache_hits": 2, "sweeps": 695, "max_sweeps": 187,
        "policy_evaluations": 1, "evaluation_hits": 0, "evaluation_sweeps": 187,
    }


def test_predator_prey_runner_produces_learning_rows():
    config = ExperimentConfig.from_doc(
        {
            "kind": "predator-prey",
            "seed": 0,
            "predator_prey": {
                "suite": "unseen_team", "mode": "blind", "grid_size": 4,
                "episode_limit": 20, "total_steps": 300, "epsilon_decay_steps": 100,
                "eval_interval": 100, "eval_episodes": 2,
            },
        }
    )
    learner = {}
    rows, violations = run_predator_prey(config, learner)
    assert violations == []
    assert len(rows) == 4 + 4 + 1  # train tasks, test tasks, gap row
    # 10 evaluated tasks (4 train, 4 test, the gap's 2) of 2 episodes of 20 steps
    assert learner == {
        "blind": {
            "table_keys": 1196,
            "train_env_steps": 300,
            "eval_env_steps": 10 * 2 * 20,
            "train_seconds": learner["blind"]["train_seconds"],
        }
    }
    assert learner["blind"]["train_seconds"] > 0.0
    assert {row["phase"] for row in rows} == {"train", "test", "gap"}
    gap_row = [row for row in rows if row["phase"] == "gap"]
    assert len(gap_row) == 1
    assert gap_row[0]["team"] == "1-2-1-2_vs_1-1-1-3"
    with pytest.raises(ConfigError, match="unknown task suite"):
        run_predator_prey(
            ExperimentConfig.from_doc(
                {"kind": "predator-prey", "predator_prey": {"suite": "zebra"}}
            )
        )


def test_predator_prey_holds_one_table_at_a_time(monkeypatch):
    config = ExperimentConfig.from_doc(
        {
            "kind": "predator-prey",
            "seed": 0,
            "predator_prey": {
                "suite": "unseen_team", "mode": "both", "grid_size": 4,
                "episode_limit": 20, "total_steps": 200, "epsilon_decay_steps": 100,
                "eval_interval": 100, "eval_episodes": 1,
            },
        }
    )
    train = capmdp.harness.q_learning_train
    tables = []
    alive_at_start = []

    def tracked(*args, **kwargs):
        # the tables of earlier modes that are still alive as this one starts training
        alive_at_start.append([ref() is not None for ref in tables])
        table = train(*args, **kwargs)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(capmdp.harness, "q_learning_train", tracked)
    learner = {}
    run_predator_prey(config, learner)
    assert list(learner) == ["blind", "aware"]
    assert alive_at_start == [[], [False]]
    assert tables[1]() is None


# ---- results files ----------------------------------------------------------------


def test_empty_results_render_the_core_header():
    assert rows_to_csv_text([]) == ",".join(CORE_COLUMNS) + "\n"


def test_emit_results_sorts_and_orders_columns(tmp_path):
    rows = [
        {"experiment": "b", "seed": 1, "instance": 2, "bound_name": "x", "zeta": 1.0},
        {"experiment": "a", "seed": 2, "instance": 0, "bound_name": "y"},
        {"experiment": "a", "seed": 1, "instance": 5, "bound_name": "z"},
    ]
    path = tmp_path / "results.csv"
    emit_results(rows, "csv", path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["experiment", "seed"]
    assert header[-1] == "zeta"  # extras follow the core columns
    assert [line.split(",")[0] for line in lines[1:]] == ["a", "a", "b"]
    assert lines[1].split(",")[2] == "5"  # (a, seed 1) before (a, seed 2)

    json_path = tmp_path / "results.json"
    emit_results(rows, "json", json_path)
    loaded = json.loads(json_path.read_text())
    assert [row["experiment"] for row in loaded] == ["a", "a", "b"]
    assert loaded[0]["instance"] == 5

    with pytest.raises(ConfigError, match="unknown output format"):
        emit_results(rows, "xml", tmp_path / "results.xml")
    with pytest.raises(OSError, match="writing results to"):
        emit_results(rows, "csv", tmp_path / "missing" / "results.csv")


def test_determinism_hash_ignores_wall_time_only():
    rows = [{"instance": 0, "bound_value": 1.0, "wall_time": 0.5}]
    slower = [{"instance": 0, "bound_value": 1.0, "wall_time": 9.9}]
    changed = [{"instance": 0, "bound_value": 2.0, "wall_time": 0.5}]
    assert determinism_hash(rows) == determinism_hash(slower)
    assert determinism_hash(rows) != determinism_hash(changed)
    assert determinism_hash(rows * 2) != determinism_hash(rows)


def test_run_experiment_writes_artifacts_and_stamps_rows(tmp_path):
    config = small_config()
    rows = run_experiment(config, tmp_path)
    out_dir = run_output_dir(config, tmp_path)
    assert (out_dir / "config.json").is_file()
    assert (out_dir / "results.csv").is_file()
    assert not (out_dir / "violations.json").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["num_rows"] == len(rows) == 2 * len(BOUND_NAMES)
    assert summary["num_violations"] == 0
    assert summary["config_hash"] == config.config_hash()
    for row in rows:
        assert row["experiment"] == config.name
        assert row["seed"] == config.seed
        assert row["config_hash"] == config.config_hash()

    rerun = run_experiment(config, tmp_path)
    resummary = json.loads((out_dir / "summary.json").read_text())
    assert resummary["determinism_hash"] == summary["determinism_hash"]
    assert determinism_hash(rerun) == determinism_hash(rows)


def test_summary_records_peak_rss_outside_the_hash(tmp_path, monkeypatch):
    config = small_config()
    rows = run_experiment(config, tmp_path)
    path = run_output_dir(config, tmp_path) / "summary.json"
    summary = json.loads(path.read_text())
    assert 1.0 < summary["peak_rss_mb"] < 1e5
    assert summary["determinism_hash"] == determinism_hash(rows)
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS
    usage = SimpleNamespace(ru_maxrss=50_000)
    fake = SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage)
    monkeypatch.setattr(capmdp.harness, "resource", fake)
    for platform, expected in (("linux", 51.2), ("darwin", 0.05)):
        monkeypatch.setattr(capmdp.harness.sys, "platform", platform)
        run_experiment(config, tmp_path)
        assert json.loads(path.read_text())["peak_rss_mb"] == pytest.approx(expected)
    monkeypatch.setattr(capmdp.harness, "resource", None)
    run_experiment(config, tmp_path)
    rerun = json.loads(path.read_text())
    assert "peak_rss_mb" not in rerun
    assert rerun["determinism_hash"] == summary["determinism_hash"]


def test_run_experiment_honors_json_output(tmp_path):
    config = small_config(num_instances=1, output_format="json")
    run_experiment(config, tmp_path)
    out_dir = run_output_dir(config, tmp_path)
    loaded = json.loads((out_dir / "results.json").read_text())
    assert len(loaded) == len(BOUND_NAMES)


# ---- replay ------------------------------------------------------------------------


def test_replay_recomputes_archived_entries(tmp_path):
    ranges = GeneratorRanges.from_doc(SMALL_RANGES_DOC)
    spec_x, spec_y = generate_linear_pair(ranges, np.random.default_rng(5))
    entries = [
        {
            "instance_index": 0,
            "bound_name": "team_generalization",
            "spec_x": json.loads(spec_x.to_json()),
            "spec_y": json.loads(spec_y.to_json()),
        },
        {
            "instance_index": 0,
            "bound_name": "population_increase",
            "spec_x": json.loads(spec_x.to_json()),
            "new_capability": [0.5, 0.5],
            "new_weight": 0.25,
        },
        {
            "instance_index": 0,
            "bound_name": "population_decrease",
            "rebuild": {
                "env": "fruit_forage", "grid_size": 3, "num_agents": 2,
                "team_labels": ["z"],
            },
        },
    ]
    path = tmp_path / "violations.json"
    path.write_text(json.dumps(entries))
    reports = replay_violations(path)
    assert [r.bound_name for r in reports] == [
        "team_generalization", "population_increase", "population_decrease",
    ]
    assert all(r.satisfied for r in reports)


def test_replay_solves_at_the_archived_tol(tmp_path):
    ranges = GeneratorRanges.from_doc(SMALL_RANGES_DOC)
    spec_x, spec_y = generate_linear_pair(ranges, np.random.default_rng(5))
    entry = {
        "instance_index": 0,
        "bound_name": "team_generalization",
        "tol": 1e-6,
        "spec_x": json.loads(spec_x.to_json()),
        "spec_y": json.loads(spec_y.to_json()),
    }
    path = tmp_path / "violations.json"
    path.write_text(json.dumps([entry]))
    [replayed] = replay_violations(path)
    assert replayed == Solver(1e-6).report(certify_team_generalization, spec_x, spec_y)
    assert replayed != Solver().report(certify_team_generalization, spec_x, spec_y)


def test_archived_violations_record_tol_and_replay_exactly(tmp_path, monkeypatch):
    build = BoundReport.build.__func__

    def fail_team_generalization(cls, name, *args):
        report = build(cls, name, *args)
        return replace(report, satisfied=False) if name == "team_generalization" else report

    monkeypatch.setattr(BoundReport, "build", classmethod(fail_team_generalization))
    forage = ExperimentConfig(kind="fruit-forage", tol=1e-7, fruit_forage={"grid_size": 2})
    for violations in (
        certify_instance(small_config(tol=1e-7), 0)[1],
        run_fruit_forage(forage)[1],
    ):
        assert [v["tol"] for v in violations] == [1e-7]
        path = tmp_path / "violations.json"
        path.write_text(json.dumps(violations))
        [replayed] = replay_violations(path)
        assert json.loads(replayed.to_json()) == violations[0]["report"]


@pytest.fixture
def fail_every_report(monkeypatch):
    build = BoundReport.build.__func__
    monkeypatch.setattr(
        BoundReport,
        "build",
        classmethod(lambda cls, *args: replace(build(cls, *args), satisfied=False)),
    )


def replay_through_cli(path, monkeypatch):
    """(exit code, replayed reports) of `capmdp replay path`."""
    real_replay = capmdp.cli.replay_violations
    replayed = []

    def spy_replay(path):
        replayed.extend(real_replay(path))
        return replayed

    monkeypatch.setattr(capmdp.cli, "replay_violations", spy_replay)
    return main(["replay", str(path)]), replayed


ENTRY_HEAD = ("instance_index", "bound_name", "report", "tol")

# every key a violation entry of each kind holds, in order; renaming or
# dropping one breaks the replay of violations.json files already written
ENTRY_KEYS = {
    "team_generalization": (*ENTRY_HEAD, "spec_x", "spec_y"),
    "policy_transfer": (*ENTRY_HEAD, "spec_x", "spec_y"),
    "population_decrease": (*ENTRY_HEAD, "spec_x"),
    "population_increase": (*ENTRY_HEAD, "spec_x", "new_capability", "new_weight"),
    "capability_estimation": (*ENTRY_HEAD, "spec_x", "spec_y"),
    "out_of_distribution": (*ENTRY_HEAD, "spec_x", "support_teams"),
    "approx_dynamics": (
        *ENTRY_HEAD, "spec_x", "spec_y", "eps_r", "eps_p", "seed_x", "seed_y",
    ),
    "lipschitz": (*ENTRY_HEAD, "spec_x", "spec_y"),
    "polynomial_deviation": (
        *ENTRY_HEAD, "spec_x", "poly", "delta", "member_index", "team_perturbed",
    ),
}


def test_every_report_kind_fails_archives_and_replays_exactly(
    tmp_path, monkeypatch, capsys, fail_every_report
):
    real_estimation = capmdp.harness.certify_capability_estimation
    received = {}

    def spy_estimation(spec_true, spec_inferred, **kwargs):
        received["spec_inferred"] = spec_inferred
        return real_estimation(spec_true, spec_inferred, **kwargs)

    monkeypatch.setattr(capmdp.harness, "certify_capability_estimation", spy_estimation)

    config = small_config(num_instances=1, tol=1e-8)
    run_experiment(config, tmp_path)
    path = run_output_dir(config, tmp_path) / "violations.json"
    entries = json.loads(path.read_text())
    assert [entry["bound_name"] for entry in entries] == list(ENTRY_KEYS)
    spec_x, spec_y = generate_linear_pair(config.ranges, np.random.default_rng([config.seed, 0]))
    for entry in entries:
        name = entry["bound_name"]
        assert tuple(entry) == ENTRY_KEYS[name]
        assert entry["tol"] == 1e-8
        # capability estimation archives its inferred task as spec_y
        specs = {
            "spec_x": spec_x,
            "spec_y": received["spec_inferred"] if name == "capability_estimation" else spec_y,
        }
        for key, spec in specs.items():
            if key in entry:
                assert entry[key] == json.loads(spec.to_json())

    solves = []
    real_stack = capmdp.bounds.value_iteration_stack

    def counting_stack(mmdps, *args):
        solves.extend(mmdps)
        return real_stack(mmdps, *args)

    monkeypatch.setattr(capmdp.bounds, "value_iteration_stack", counting_stack)
    code, replayed = replay_through_cli(path, monkeypatch)
    assert code == EXIT_VIOLATION
    assert "replayed 9 reports, 9 still violated" in capsys.readouterr().out
    assert len(replayed) == len(entries)
    for report, entry in zip(replayed, entries):
        assert json.loads(report.to_json()) == entry["report"]
    # one Solver serves every entry, so each of the nine distinct MDPs the
    # entries need is solved once (a fresh solver per entry solves 16 times)
    contents = set()
    for m in solves:
        successors = None if m.next_states is None else m.next_states.tobytes()
        contents.add((m.rewards.tobytes(), m.transitions.tobytes(), successors))
    assert len(solves) == len(contents) == 9


def test_replay_makes_the_two_requests_of_each_entry(tmp_path, monkeypatch, fail_every_report):
    config = small_config(num_instances=1)
    run_experiment(config, tmp_path)
    calls = spy_requests(monkeypatch)
    replay_violations(run_output_dir(config, tmp_path) / "violations.json")
    # each entry's check makes its solve request, then its evaluation request
    # if it has one, as it does in certify_instance; the entries are in CHECKS
    # order, and polynomial_deviation requests neither
    assert [len(request) for request in calls["solve_all"]] == [2] * 8
    assert [len(request) for request in calls["evaluate_all"]] == [1, 1, 1]


def test_fruit_forage_reports_fail_archive_and_replay_exactly(
    tmp_path, monkeypatch, capsys, fail_every_report
):
    config = ExperimentConfig(kind="fruit-forage", tol=1e-8, fruit_forage={"grid_size": 2})
    run_experiment(config, tmp_path)
    path = run_output_dir(config, tmp_path) / "violations.json"
    entries = json.loads(path.read_text())
    labels = {
        "team_generalization": ["x", "y"],
        "policy_transfer": ["x", "y"],
        "population_decrease": ["z"],
    }
    assert [entry["bound_name"] for entry in entries] == list(labels)
    for entry in entries:
        assert tuple(entry) == (*ENTRY_HEAD, "rebuild")
        assert entry["rebuild"] == {
            "env": "fruit_forage", "grid_size": 2, "num_agents": 2,
            "team_labels": labels[entry["bound_name"]],
        }
    stacks = []
    real_stack = capmdp.bounds.value_iteration_stack

    def spy(mmdps, *args):
        stacks.append([mmdp.next_states for mmdp in mmdps])
        return real_stack(mmdps, *args)

    monkeypatch.setattr(capmdp.bounds, "value_iteration_stack", spy)
    code, replayed = replay_through_cli(path, monkeypatch)
    assert code == EXIT_VIOLATION
    assert "replayed 3 reports, 3 still violated" in capsys.readouterr().out
    assert [json.loads(report.to_json()) for report in replayed] == [
        entry["report"] for entry in entries
    ]
    # an entry's desk teams are rebuilt on one layout, so their MDPs share
    # one successor index and solve in one stack; policy_transfer's two are
    # the cached solves of team_generalization's
    assert [len(stack) for stack in stacks] == [2, 2]
    assert all(first is second for first, second in stacks)


def test_replay_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read violations file"):
        replay_violations(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ConfigError, match="JSON list"):
        replay_violations(bad)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps([{"bound_name": "mystery", "spec_x": {}}]))
    with pytest.raises(ConfigError, match="unknown report kind"):
        replay_violations(unknown)
    alien = tmp_path / "alien.json"
    alien.write_text(
        json.dumps([{"bound_name": "team_generalization", "rebuild": {"env": "mars"}}])
    )
    with pytest.raises(ConfigError, match="cannot rebuild environment"):
        replay_violations(alien)
    malformed = {
        "JSON object": [1],
        "needs the field 'spec_x'": [{"bound_name": "team_generalization"}],
        "malformed 'spec_x'": [{"bound_name": "team_generalization", "spec_x": {}}],
        "rebuilt teams": [
            {
                "bound_name": "population_decrease",
                "rebuild": {
                    "env": "fruit_forage", "grid_size": 2, "num_agents": 2,
                    "team_labels": [],
                },
            }
        ],
    }
    ranges = GeneratorRanges.from_doc(SMALL_RANGES_DOC)
    spec_x = generate_linear_pair(ranges, np.random.default_rng(1))[0]
    spec_y = generate_linear_pair(ranges, np.random.default_rng(2))[1]
    malformed["not a valid case"] = [
        {
            "bound_name": "team_generalization",
            "spec_x": json.loads(spec_x.to_json()),
            "spec_y": json.loads(spec_y.to_json()),
        }
    ]
    for index, (message, entries) in enumerate(malformed.items()):
        path = tmp_path / f"malformed{index}.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(ConfigError, match=message):
            replay_violations(path)
        # exit 1 would read as a report that is still violated
        assert main(["replay", str(path)]) == EXIT_CONFIG
    # an infinite tol would stop every solve after one sweep
    for tol in (float("inf"), float("nan"), 0.0, -1e-9, "fine", [1e-9], True):
        path = tmp_path / "bad_tol.json"
        path.write_text(json.dumps([{"bound_name": "team_generalization", "tol": tol}]))
        with pytest.raises(ConfigError, match="malformed 'tol'"):
            replay_violations(path)
        assert main(["replay", str(path)]) == EXIT_CONFIG
    # True == 1, so a boolean tol must not reuse the solver of a tol-1 entry
    spec_x, spec_y = generate_linear_pair(ranges, np.random.default_rng(5))
    entry = {
        "bound_name": "team_generalization", "tol": 1.0,
        "spec_x": json.loads(spec_x.to_json()), "spec_y": json.loads(spec_y.to_json()),
    }
    path.write_text(json.dumps([entry, dict(entry, tol=True)]))
    with pytest.raises(ConfigError, match="malformed 'tol'"):
        replay_violations(path)


def test_replay_rejects_a_mistyped_rebuild(tmp_path):
    # int(True) is 1: a boolean would replay a one-agent desk, not the archived one
    rebuild = {
        "env": "fruit_forage", "grid_size": 2, "num_agents": True, "team_labels": ["x", "y"],
    }
    path = tmp_path / "violations.json"
    path.write_text(json.dumps([{"bound_name": "team_generalization", "rebuild": rebuild}]))
    with pytest.raises(ConfigError, match="num_agents"):
        replay_violations(path)
    assert main(["replay", str(path)]) == EXIT_CONFIG
    # int(2.5) is 2: a fraction would replay a grid-2 desk, not the archived one
    rebuild.update(num_agents=2, grid_size=2.5)
    path.write_text(json.dumps([{"bound_name": "team_generalization", "rebuild": rebuild}]))
    with pytest.raises(ConfigError, match="grid_size"):
        replay_violations(path)


# ---- command line -------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    doc = {"kind": "verify-bounds", "num_instances": 2, "ranges": SMALL_RANGES_DOC}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_verify_bounds_run(tmp_path, capsys):
    config_path = write_config(tmp_path)
    code = main(
        ["verify-bounds", "--config", str(config_path), "--out", str(tmp_path / "runs"),
         "--seed", "4"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "verify-bounds: 18 rows, 0 violations" in captured.out
    assert "determinism hash:" in captured.out
    runs = list((tmp_path / "runs" / "verify-bounds").iterdir())
    assert len(runs) == 1


def test_cli_format_override_writes_json(tmp_path):
    config_path = write_config(tmp_path, num_instances=1)
    code = main(
        ["verify-bounds", "--config", str(config_path), "--out", str(tmp_path / "runs"),
         "--format", "json"]
    )
    assert code == EXIT_OK
    results = list((tmp_path / "runs").rglob("results.json"))
    assert len(results) == 1


def test_cli_config_errors(tmp_path, capsys):
    assert main(["verify-bounds", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["verify-bounds", "--config", str(bad)]) == EXIT_CONFIG
    mismatched = write_config(tmp_path)
    assert main(["sweep", "--config", str(mismatched)]) == EXIT_CONFIG
    config_path = write_config(tmp_path)
    assert main(["verify-bounds", "--config", str(config_path), "--jobs", "1"]) == EXIT_CONFIG
    assert main(["replay", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    assert main(["unknown-command"]) == EXIT_CONFIG
    assert main([]) == EXIT_CONFIG
    capsys.readouterr()


def test_an_out_path_that_cannot_hold_the_run_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys
):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")

    def no_run(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(capmdp.harness, "run_fruit_forage", no_run)
    for out in (blocker, blocker / "below"):
        assert main(["fruit-forage", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot create the run directory" in err and str(out) in err
    assert blocker.read_text() == "a regular file"


def test_cli_overrides_are_checked_like_the_config(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["verify-bounds", "--seed=-1", "--out", str(out)]) == EXIT_CONFIG
    config_path = write_config(tmp_path)
    code = main(["verify-bounds", "--config", str(config_path), "--seed=-2", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "seed must be non-negative" in capsys.readouterr().err


def test_cli_replay_clean_file(tmp_path, capsys):
    ranges = GeneratorRanges.from_doc(SMALL_RANGES_DOC)
    spec_x, spec_y = generate_linear_pair(ranges, np.random.default_rng(2))
    path = tmp_path / "violations.json"
    path.write_text(
        json.dumps(
            [
                {
                    "bound_name": "policy_transfer",
                    "spec_x": json.loads(spec_x.to_json()),
                    "spec_y": json.loads(spec_y.to_json()),
                }
            ]
        )
    )
    code = main(["replay", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "replayed 1 reports, 0 still violated" in captured.out


def test_cli_surfaces_solver_failures(tmp_path, monkeypatch):
    from capmdp.mdp import SolverConvergenceError

    def explode(config, out_root):
        raise SolverConvergenceError("did not converge", residual=1.0, iterations=5)

    monkeypatch.setattr("capmdp.cli.run_experiment", explode)
    config_path = write_config(tmp_path)
    code = main(["verify-bounds", "--config", str(config_path), "--out", str(tmp_path / "runs")])
    assert code == EXIT_SOLVER


NUMPY_RANDOM_SCRIPT = """
import sys

import numpy

if "numpy.random" in sys.modules:
    print("numpy loads numpy.random at import")
    sys.exit()
from capmdp import cli

config, out = sys.argv[1:]
assert cli.main(["fruit-forage", "--out", out]) == 0
forage = "numpy.random" in sys.modules
assert cli.main(["verify-bounds", "--config", config, "--out", out]) == 0
print("numpy.random loaded:", forage, "numpy.random" in sys.modules)
"""


def test_only_a_run_that_draws_loads_numpy_random(tmp_path):
    # a fresh interpreter, since this one has drawn already; the foraging
    # desk draws nothing, so numpy.random (2.7 MiB) stays unloaded there
    env = dict(os.environ, PYTHONPATH=str(Path(capmdp.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", NUMPY_RANDOM_SCRIPT, str(write_config(tmp_path)),
         str(tmp_path / "runs")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    if last == "numpy loads numpy.random at import":
        pytest.skip(last)
    assert last == "numpy.random loaded: False True"


HASHLIB_SCRIPT = """
import sys

import numpy

if "_hashlib" in sys.modules:
    print("numpy loads _hashlib at import")
    sys.exit()
from capmdp import cli

assert cli.main(["fruit-forage", "--out", sys.argv[1]]) == 0
print("loaded:", [name for name in ("hashlib", "_hashlib") if name in sys.modules])
"""


def test_a_foraging_run_loads_no_hashlib(tmp_path):
    # a fresh interpreter, since this one has imported hashlib; hashlib maps
    # OpenSSL's libcrypto (3.4 MB), and the run's digests come from CPython's own modules
    env = dict(os.environ, PYTHONPATH=str(Path(capmdp.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", HASHLIB_SCRIPT, str(tmp_path / "runs")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    if last == "numpy loads _hashlib at import":
        pytest.skip(last)
    assert last == "loaded: []"


def test_the_persisted_hashes_are_sha256_bytes():
    import hashlib

    config = default_config("fruit-forage")
    canonical = json.dumps(config.to_doc(), sort_keys=True).encode()
    assert _digests.sha256(canonical).digest() == hashlib.sha256(canonical).digest()
    assert config.config_hash() == hashlib.sha256(canonical).hexdigest()[:12]
    rows, _ = run_fruit_forage(config)
    block = rows_to_csv_text(rows * 150).encode()
    assert len(block) > 100_000
    ours, theirs = _digests.sha256(), hashlib.sha256()
    for start in range(0, len(block), 4099):
        ours.update(block[start:start + 4099])
        theirs.update(block[start:start + 4099])
    assert ours.hexdigest() == theirs.hexdigest()
