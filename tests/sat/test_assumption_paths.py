"""Assumption-path edge cases, pinned against rebuild-fresh references.

The solver is incremental: one instance sees thousands of
``solve(assumptions=...)`` calls interleaved with clause additions
(CEGISMIN's cost bounds are assumptions on the counting network). Three
paths through :meth:`Solver.solve` are easy to get subtly wrong and are
pinned here:

- **conflicting assumptions** (``value == -1`` at the assumption-decide
  step) must return UNSAT *for that call only* — latching ``_unsat``
  would poison every later cost bound;
- **assumption-implied conflicts** (propagation from an assumption runs
  into the clauses) must learn only clauses that are theorems of the
  formula itself, so later calls without the assumption still answer
  correctly;
- **satisfied assumptions** get a *dummy decision level* (MiniSat
  semantics) so the assumption-index ↔ decision-level correspondence
  holds; conflict analysis must cope with these empty levels.

The randomized section replays realistic workloads — the actual SAT
encodings of registry problems' correction spaces plus random CNF — and
cross-checks every incremental answer against a **rebuilt-fresh
reference**: a new solver fed the same clauses with the assumptions as
unit facts. Any state leaked across calls diverges the two.
"""

import random
import zlib

import pytest

from repro.problems import all_problems, get_problem
from repro.sat import SAT, UNSAT, Solver
from tests.sat.reference_solver import ReferenceSolver, assert_lockstep


class RecordingSolver(Solver):
    """A solver that logs every added clause (for rebuild-fresh refs)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.clause_log = []

    def add_clause(self, lits):
        self.clause_log.append(list(lits))
        return super().add_clause(lits)

    def add_clauses(self, clauses):
        clauses = [list(lits) for lits in clauses]
        self.clause_log.extend(clauses)
        return super().add_clauses(clauses)


def fresh_verdict(clause_log, assumptions, num_vars=0):
    """The ground truth: a brand-new solver, assumptions as unit facts."""
    reference = Solver()
    while reference.num_vars < num_vars:
        reference.new_var()
    ok = True
    for clause in clause_log:
        ok = reference.add_clause(clause) and ok
    for lit in assumptions:
        ok = reference.add_clause([lit]) and ok
    if not ok:
        return UNSAT
    return reference.solve()


def check_model_under(solver, clause_log, assumptions):
    for lit in assumptions:
        assert solver.model_value(lit), f"assumption {lit} unsatisfied"
    for clause in clause_log:
        assert any(solver.model_value(lit) for lit in clause), clause


class TestConflictingAssumptions:
    def test_do_not_latch_unsat_for_later_calls(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        assert solver.solve(assumptions=[1, -1]) == UNSAT
        # The contradiction lived in the assumptions, not the formula:
        # the instance must stay fully usable.
        assert solver.solve() == SAT
        assert solver.solve(assumptions=[1]) == SAT
        assert solver.model_value(3) is True
        assert solver.solve(assumptions=[-1]) == SAT
        assert solver.solve(assumptions=[-1, 1]) == UNSAT  # either order
        assert solver.solve() == SAT

    def test_clause_addition_still_works_after(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[2, -2]) == UNSAT
        assert solver.add_clause([-1]) is True
        assert solver.solve() == SAT
        assert solver.model_value(2) is True

    def test_duplicate_assumptions_are_harmless(self):
        solver = Solver()
        solver.add_clause([1, 2])
        # The repeat is already satisfied when re-decided → dummy level.
        assert solver.solve(assumptions=[1, 1, 1]) == SAT
        assert solver.model_value(1) is True


class TestAssumptionImpliedConflicts:
    def test_propagation_conflict_under_assumption(self):
        solver = Solver()
        # 1 → 2 → 3 and 1 → ¬3: assuming 1 propagates into a conflict.
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([-1, -3])
        assert solver.solve(assumptions=[1]) == UNSAT
        # ¬1 is a theorem, so these hold — but the formula is SAT.
        assert solver.solve() == SAT
        assert solver.model_value(1) is False
        assert solver.solve(assumptions=[-1]) == SAT
        # Repeats are stable (learned units must not corrupt state).
        assert solver.solve(assumptions=[1]) == UNSAT
        assert solver.solve() == SAT

    def test_conflict_among_later_assumptions(self):
        solver = Solver()
        solver.add_clause([-1, 2])  # assuming 1 implies 2
        solver.add_clause([5, 6])
        # Third assumption contradicts what the first propagated.
        assert solver.solve(assumptions=[1, 5, -2]) == UNSAT
        assert solver.solve(assumptions=[1, 5]) == SAT
        assert solver.solve(assumptions=[-2, 5]) == SAT
        assert solver.model_value(1) is False

    def test_deep_chain_conflict_keeps_instance_sound(self):
        solver = Solver()
        n = 20
        for v in range(1, n):
            solver.add_clause([-v, v + 1])  # v → v+1
        solver.add_clause([-1, -n])  # 1 → ¬n: assuming 1 is doomed
        for _ in range(3):
            assert solver.solve(assumptions=[1]) == UNSAT
            assert solver.solve() == SAT
            assert solver.model_value(1) is False


class TestSatisfiedAssumptionDummyLevels:
    def test_root_implied_assumption_gets_dummy_level(self):
        solver = Solver()
        solver.add_clause([1])  # 1 is a root fact
        solver.add_clause([-2, 3])
        # Assumption 1 is already satisfied at level 0 → dummy level;
        # the later assumptions must still line up with their levels.
        assert solver.solve(assumptions=[1, 2]) == SAT
        assert solver.model_value(3) is True
        assert solver.solve(assumptions=[1, -3]) == SAT
        assert solver.model_value(2) is False

    def test_conflict_past_dummy_levels(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([2])
        solver.add_clause([-3, 4])
        solver.add_clause([-3, -4])  # 3 is contradictory
        # Two dummy levels (1 and 2 root-satisfied), then the real
        # assumption 3 propagates into a conflict.
        assert solver.solve(assumptions=[1, 2, 3]) == UNSAT
        assert solver.solve(assumptions=[1, 2, -3]) == SAT
        assert solver.solve(assumptions=[1, 2]) == SAT
        assert solver.model_value(3) is False

    def test_assumption_satisfied_by_earlier_assumption(self):
        solver = Solver()
        solver.add_clause([-1, 2])  # 1 → 2
        solver.add_clause([3, 4])
        # 2 is already propagated-true when its turn comes → dummy level;
        # -4 must still be decided correctly afterwards.
        assert solver.solve(assumptions=[1, 2, -4]) == SAT
        assert solver.model_value(3) is True
        assert solver.model_value(4) is False


def _random_cnf_trace(rng, num_vars, steps):
    """A randomized incremental session: grow a CNF, solve under random
    assumptions, cross-check each call against a rebuilt-fresh solver."""
    solver = RecordingSolver()
    for _ in range(num_vars):
        solver.new_var()
    for step in range(steps):
        for _ in range(rng.randint(1, 3)):
            width = rng.randint(1, 3)
            clause = [
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(width)
            ]
            solver.add_clause(clause)
        assumptions = [
            rng.randint(1, num_vars) * rng.choice([1, -1])
            for _ in range(rng.randint(0, 4))
        ]
        got = solver.solve(assumptions)
        want = fresh_verdict(
            solver.clause_log, assumptions, num_vars=num_vars
        )
        assert got == want, (
            f"step {step}: incremental={got} fresh={want} "
            f"assumptions={assumptions}"
        )
        if got == SAT:
            check_model_under(solver, solver.clause_log, assumptions)


class TestRandomizedAgainstFreshRebuild:
    def test_random_cnf_sessions(self):
        for seed in range(8):
            _random_cnf_trace(random.Random(seed), num_vars=12, steps=30)

    def test_conflicting_assumption_storms(self):
        # Heavy on the edge paths: tiny var count makes conflicting and
        # root-satisfied assumptions frequent.
        for seed in range(6):
            rng = random.Random(100 + seed)
            solver = RecordingSolver()
            for _ in range(4):
                solver.new_var()
            for step in range(40):
                if rng.random() < 0.5:
                    solver.add_clause(
                        [
                            rng.randint(1, 4) * rng.choice([1, -1])
                            for _ in range(rng.randint(1, 2))
                        ]
                    )
                assumptions = [
                    rng.randint(1, 4) * rng.choice([1, -1])
                    for _ in range(rng.randint(0, 5))
                ]
                got = solver.solve(assumptions)
                want = fresh_verdict(
                    solver.clause_log, assumptions, num_vars=4
                )
                assert got == want, f"seed {seed} step {step}"


# -- registry-problem encodings ----------------------------------------------


def _registry_encoding(problem_name, source, solver_class):
    """The real SAT encoding of one submission's correction space."""
    from repro.core.rewriter import rewrite_submission
    from repro.engines.encoding import HoleEncoding
    from repro.mpy.frontend import parse_program
    from repro.problems import get_problem

    problem = get_problem(problem_name)
    module = parse_program(source)
    tilde, registry = rewrite_submission(module, problem.spec, problem.model)
    solver = solver_class()
    encoding = HoleEncoding(solver, registry)
    return solver, encoding


def _random_cubes(rng, encoding, count):
    """Cubes over 2-3 random holes: CEGISMIN-shaped failure regions."""
    cids = sorted(encoding.branch_vars)
    cubes = []
    for _ in range(count):
        chosen = rng.sample(cids, k=min(len(cids), rng.randint(2, 3)))
        cubes.append(
            {
                cid: rng.randrange(len(encoding.branch_vars[cid]))
                for cid in chosen
            }
        )
    return cubes


@pytest.mark.parametrize("problem_name", [p.name for p in all_problems()])
def test_registry_encoding_assumption_sessions(problem_name):
    """CEGISMIN-shaped workloads on real encodings ≡ fresh rebuilds, and
    ≡ the reference solver step for step.

    Random cost-bound assumptions (the counting network), random branch
    pins (including contradictory one-hot pairs — the conflicting-
    assumption path), phase resets, blocked models and batches of
    blocked cubes. Every call is cross-checked against a fresh rebuild
    (verdict, model) and against the frozen reference solver run on the
    same encoding (verdict, ``stats``, ``model()``).
    """
    source = get_problem(problem_name).spec.reference_source
    solver, encoding = _registry_encoding(
        problem_name, source, RecordingSolver
    )
    oracle, oracle_encoding = _registry_encoding(
        problem_name, source, ReferenceSolver
    )
    rng = random.Random(zlib.crc32(problem_name.encode()))
    branch_vars = [
        var for variables in encoding.branch_vars.values() for var in variables
    ]
    for step in range(25):
        assumptions = list(
            encoding.bound_assumptions(rng.randint(0, len(encoding.cost_inputs)))
        )
        for _ in range(rng.randint(0, 3)):
            assumptions.append(rng.choice(branch_vars) * rng.choice([1, -1]))
        if rng.random() < 0.3 and branch_vars:
            # Force the conflicting-assumptions path: both phases of one
            # variable (order shuffled below).
            var = rng.choice(branch_vars)
            assumptions += [var, -var]
        rng.shuffle(assumptions)
        if rng.random() < 0.5:
            encoding.reset_phases()
            oracle_encoding.reset_phases()
        got = solver.solve(assumptions)
        assert_lockstep(
            solver,
            oracle,
            got,
            oracle.solve(assumptions),
            f"{problem_name} step {step}",
        )
        want = fresh_verdict(
            solver.clause_log, assumptions, num_vars=solver.num_vars
        )
        assert got == want, f"{problem_name} step {step}: {got} != {want}"
        if got == SAT:
            check_model_under(solver, solver.clause_log, assumptions)
            # Grow the instance the way the engine does: block the model,
            # then (sometimes) a batch of failure regions.
            assignment = encoding.assignment_from_model()
            assert assignment == oracle_encoding.assignment_from_model()
            encoding.block_assignment(assignment)
            oracle_encoding.block_assignment(assignment)
        if rng.random() < 0.6 and branch_vars:
            cubes = _random_cubes(rng, encoding, rng.randint(0, 12))
            assert encoding.block_cubes(cubes) == len(cubes)
            oracle_encoding.block_cubes(cubes)
    # Final assumption-free answer ≡ fresh rebuild: all the UNSAT calls
    # above (conflicting/doomed assumptions) must not have latched
    # ``_unsat`` — only genuine formula-level contradictions may.
    got = solver.solve()
    assert_lockstep(solver, oracle, got, oracle.solve(), problem_name)
    assert got == fresh_verdict(
        solver.clause_log, (), num_vars=solver.num_vars
    )
