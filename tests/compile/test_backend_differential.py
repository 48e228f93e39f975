"""Differential suite: compiled execution must equal the tree-walker.

Three populations, as demanded by the backend's correctness contract:

1. every registered problem's **reference** program over a slice of its
   bounded input space (outcome, stdout, error message, remaining fuel);
2. the synthetic **student corpus** (mutated / conceptual / trivial
   attempts) — the programs the engines actually sweep;
3. **hole-rewritten candidate spaces** under randomized assignments —
   outcomes *and* touched-hole cubes *and* fuel must agree exactly,
   because the CEGIS blocking-clause generalization is built from them.
"""

from __future__ import annotations

import random
import zlib

import pytest

from tests.compile.difftools import (
    assert_call_parity,
    observe,
    sample_inputs,
)

from repro.compile import compile_program
from repro.core.rewriter import normalize_submission, rewrite_submission
from repro.mpy import parse_program
from repro.mpy.errors import FrontendError
from repro.problems import all_problems, get_problem
from repro.studentgen import generate_corpus
from repro.symbolic.recorder import RecordingInterpreter

PROBLEM_NAMES = [problem.name for problem in all_problems()]


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_reference_differential(name):
    problem = get_problem(name)
    spec = problem.spec
    module = spec.reference_module()
    for args in sample_inputs(spec, 40):
        assert_call_parity(module, spec.function, args, fuel=spec.fuel)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_corpus_differential(name):
    problem = get_problem(name)
    spec = problem.spec
    corpus = generate_corpus(
        problem, incorrect_count=4, correct_count=1, syntax_count=0, seed=11
    )
    inputs = sample_inputs(spec, 8)
    checked = 0
    for submission in corpus.incorrect + corpus.correct:
        try:
            module = parse_program(submission.source)
            normalized, _ = normalize_submission(module, spec)
        except FrontendError:
            continue
        for args in inputs:
            assert_call_parity(
                normalized, spec.student_function, args, fuel=spec.fuel
            )
        checked += 1
    assert checked > 0


def _interp_recorded(tilde, function, args, assignment, fuel):
    """The tree-walker's counterpart of ``CompiledProgram.run_recorded``:
    a fresh interpreter per run, so top-level choice reads land in the
    cube (two-phase construction keeps a failing top level's record)."""
    interp = RecordingInterpreter.__new__(RecordingInterpreter)

    def run():
        interp.__init__(tilde, dict(assignment), fuel=fuel)
        return interp.call(function, args)

    outcome = observe(run)
    return outcome, list(interp.touched.items()), interp.fuel


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_candidate_differential(name):
    """Randomized hole assignments through both candidate entries — the
    engines' ``run`` and the path forker's ``run_recorded`` — agree on
    outcome, message, stdout, remaining fuel and the cube *in first-read
    order* (the order the forker replays decisions from)."""
    problem = get_problem(name)
    spec = problem.spec
    function = spec.student_function
    corpus = generate_corpus(
        problem, incorrect_count=3, correct_count=0, syntax_count=0, seed=3
    )
    rng = random.Random(zlib.crc32(name.encode()))
    inputs = sample_inputs(spec, 6)
    checked = 0
    for submission in corpus.incorrect:
        try:
            module = parse_program(submission.source)
            tilde, registry = rewrite_submission(module, spec, problem.model)
        except FrontendError:
            continue
        holes = list(registry.holes())
        interp = RecordingInterpreter(tilde, {}, fuel=spec.fuel)
        program = compile_program(tilde, fuel=spec.fuel)
        for trial in range(24):
            assignment = {
                hole.cid: rng.randrange(hole.arity)
                for hole in holes
                if rng.random() < 0.5
            }
            args = inputs[trial % len(inputs)]
            where = f"{name}: under {assignment} on {args}"
            interp_outcome = observe(
                lambda: interp.run(function, args, assignment=assignment)
            )
            compiled_outcome = observe(
                lambda: program.run(function, args, assignment=assignment)
            )
            assert compiled_outcome == interp_outcome, f"run outcome, {where}"
            assert list(program.cube().items()) == list(
                interp.cube().items()
            ), f"run cube, {where}"
            assert program.fuel == interp.fuel, f"run fuel, {where}"

            expected = _interp_recorded(
                tilde, function, args, assignment, spec.fuel
            )
            outcome = observe(
                lambda: program.run_recorded(function, args, assignment)
            )
            actual = (outcome, list(program.cube().items()), program.fuel)
            assert actual == expected, f"run_recorded, {where}"
        checked += 1
    assert checked > 0


def test_default_assignment_equals_instantiated_default():
    """Assignment {} must behave exactly like the unmodified program."""
    problem = get_problem("compDeriv-6.00x")
    spec = problem.spec
    module = spec.reference_module()
    tilde, registry = rewrite_submission(module, spec, problem.model)
    program = compile_program(tilde, fuel=spec.fuel)
    plain = compile_program(module, fuel=spec.fuel)
    for args in sample_inputs(spec, 10):
        tilde_result = observe(
            lambda: program.run(spec.student_function, args, assignment={})
        )
        plain_result = observe(lambda: plain.call(spec.function, args))
        # The rewritten tree renames to the student function and may burn
        # differently through choice defaults only in dispatch, never in
        # observable outcome.
        assert tilde_result[0] == plain_result[0]
        if tilde_result[0] == "ok":
            assert tilde_result[1] == plain_result[1]
