"""The flat propagation kernel against the frozen reference solver.

:class:`repro.sat.Solver` promises the search of
:class:`tests.sat.reference_solver.ReferenceSolver` step for step: same
watch moves, same bump order, same learned clauses, same enqueue order.
Those are all observable through ``stats`` (one extra propagation or a
different decision shifts every later count) and through ``model()``
(phase saving records the whole trail). So every test here drives the two
solvers through one incremental session and, after every ``solve()``,
demands the same verdict, the same ``stats`` dict and the same model.

The sessions mix what CEGISMIN does to one solver: assumptions per call,
single clauses and ordered batches (:meth:`Solver.add_clauses`) between
calls, long clauses that force watch moves, restarts, and, with a steep
decay, the activity-rescaling path.
"""

import random

import pytest

from repro.sat import SAT, Solver
from tests.sat.reference_solver import ReferenceSolver, assert_lockstep


def _random_clause(rng, num_vars, max_width, min_width=1):
    return [
        rng.randint(1, num_vars) * rng.choice([1, -1])
        for _ in range(rng.randint(min_width, max_width))
    ]


def _session(
    rng,
    num_vars,
    steps,
    max_width,
    max_assumptions,
    min_width=1,
    initial=0,
    **options,
):
    """Drive a solver and the oracle in lockstep from ``initial`` random
    clauses, growing the formula between calls; returns the solver."""
    solver = Solver(**options)
    oracle = ReferenceSolver(**options)
    for _ in range(num_vars):
        assert solver.new_var() == oracle.new_var()
    start = [
        _random_clause(rng, num_vars, max_width, min_width)
        for _ in range(initial)
    ]
    assert solver.add_clauses([list(c) for c in start]) == (
        oracle.add_clauses([list(c) for c in start])
    )
    for step in range(steps):
        if rng.random() < 0.5:
            clause = _random_clause(rng, num_vars, max_width, min_width)
            assert solver.add_clause(list(clause)) == oracle.add_clause(
                list(clause)
            ), step
        else:
            batch = [
                _random_clause(rng, num_vars, max_width, min_width)
                for _ in range(rng.randint(0, 6))
            ]
            assert solver.add_clauses(
                [list(c) for c in batch]
            ) == oracle.add_clauses([list(c) for c in batch]), step
        for var in rng.sample(range(1, num_vars + 1), k=min(3, num_vars)):
            preferred = rng.random() < 0.5
            solver.set_preferred(var, preferred)
            oracle.set_preferred(var, preferred)
        assumptions = [
            rng.randint(1, num_vars) * rng.choice([1, -1])
            for _ in range(rng.randint(0, max_assumptions))
        ]
        got = solver.solve(list(assumptions))
        want = oracle.solve(list(assumptions))
        assert_lockstep(solver, oracle, got, want, f"step {step}")
    return solver


class TestRandomIncrementalSessions:
    def test_random_cnf_sessions(self):
        for seed in range(10):
            rng = random.Random(seed)
            _session(
                rng,
                num_vars=rng.randint(12, 40),
                steps=40,
                max_width=5,
                max_assumptions=4,
            )

    def test_dense_sessions_learn_and_restart(self):
        # Near-threshold 3-SAT grown in batches: many conflicts per call,
        # learned clauses, and (restart_base=2) frequent Luby restarts.
        totals = {"conflicts": 0, "learned": 0, "restarts": 0}
        for seed in range(6):
            rng = random.Random(1000 + seed)
            solver = _session(
                rng,
                num_vars=60,
                steps=30,
                max_width=3,
                max_assumptions=3,
                min_width=3,
                initial=200,
                restart_base=2,
            )
            for key in totals:
                totals[key] += solver.stats[key]
        assert all(totals.values()), totals  # the paths were exercised

    def test_activity_rescaling_matches(self):
        # decay=0.5 doubles the bump increment per conflict, so activities
        # pass the 1e100 rescale limit after a few hundred conflicts.
        rng = random.Random(78)
        solver = _session(
            rng,
            num_vars=80,
            steps=60,
            max_width=3,
            max_assumptions=2,
            min_width=3,
            initial=300,
            decay=0.5,
        )
        # Without a rescale var_inc would be 2 ** conflicts by now.
        assert solver.var_inc < 2.0 ** solver.stats["conflicts"] / 1e50

    def test_satisfiable_long_clause_sessions(self):
        # Wide clauses over many variables stay satisfiable and make most
        # propagation work watch moves rather than conflicts.
        verdicts = set()
        for seed in range(4):
            rng = random.Random(500 + seed)
            solver = Solver()
            oracle = ReferenceSolver()
            for step in range(30):
                batch = [_random_clause(rng, 50, 8) for _ in range(10)]
                solver.add_clauses([list(c) for c in batch])
                oracle.add_clauses([list(c) for c in batch])
                got, want = solver.solve(), oracle.solve()
                assert_lockstep(solver, oracle, got, want, f"{seed}/{step}")
                verdicts.add(got)
        assert SAT in verdicts


class TestConflictingAssumptionStorms:
    def test_conflicting_assumption_storms(self):
        # Few variables and many assumptions: contradictory, root-implied
        # and already-satisfied assumptions on most calls.
        for seed in range(8):
            rng = random.Random(100 + seed)
            _session(
                rng, num_vars=4, steps=50, max_width=2, max_assumptions=6
            )

    def test_both_phases_assumed(self):
        rng = random.Random(5)
        solver = Solver()
        oracle = ReferenceSolver()
        for _ in range(10):
            solver.new_var()
            oracle.new_var()
        for step in range(40):
            clause = _random_clause(rng, 10, 3)
            solver.add_clause(list(clause))
            oracle.add_clause(list(clause))
            var = rng.randint(1, 10)
            assumptions = [var, rng.randint(1, 10), -var]
            rng.shuffle(assumptions)
            assert_lockstep(
                solver,
                oracle,
                solver.solve(list(assumptions)),
                oracle.solve(list(assumptions)),
                f"step {step}",
            )


class TestAddClauses:
    @pytest.mark.parametrize(
        "batch",
        [
            [],
            [[1, 2], [-1, 3]],
            [[1, -1], [2, 2, 3]],  # tautology, duplicate literal
            [[4], [-4, 5], [-5, 6]],  # units propagate at the root
            [[1], [-1], [2, 3]],  # UNSAT mid-batch; the rest still added
            [[]],  # the empty clause
        ],
    )
    def test_batch_equals_sequential_add_clause(self, batch):
        solver = Solver()
        oracle = ReferenceSolver()
        assert solver.add_clauses([list(c) for c in batch]) == (
            oracle.add_clauses([list(c) for c in batch])
        )
        assert solver.clauses == oracle.clauses
        assert solver.trail == oracle.trail
        assert solver._unsat == oracle._unsat
        assert_lockstep(solver, oracle, solver.solve(), oracle.solve(), "")

    def test_batch_backtracks_from_a_model(self):
        # After a SAT call the trail sits at a decision level; one batch
        # must backtrack once and simplify every clause at the root.
        solver = Solver()
        oracle = ReferenceSolver()
        for s in (solver, oracle):
            s.add_clauses([[1, 2, 3], [-1, 4], [-2, -4, 5]])
        assert_lockstep(solver, oracle, solver.solve(), oracle.solve(), "1")
        assert solver.trail_lim
        batch = [[-1], [2, 3, -5], [-3, 6, 1]]
        solver.add_clauses([list(c) for c in batch])
        oracle.add_clauses([list(c) for c in batch])
        assert not solver.trail_lim
        assert solver.clauses == oracle.clauses
        assert_lockstep(solver, oracle, solver.solve(), oracle.solve(), "2")
