"""Golden engine counts for the paper's Fig. 2 trio.

The SAT kernel is tuned for speed under a stats-identity contract: the
search may get cheaper per step but never take a different step. These
numbers were measured before the propagation loop was flattened; any
drift in the trajectory (a different watch move, bump order, learned
clause or enqueue order, or a different set or order of blocking
clauses) changes at least one of them, so it fails here rather than only
in a benchmark run. Costs are those of Fig. 2 under the full
``compDeriv-6.00x`` model (2, 1 and 2 corrections).
"""

import pytest

from repro.core import generate_feedback
from repro.engines import BoundedVerifier, CegisMinEngine
from repro.problems import get_problem
from tests.core.test_paper_examples import FIG2A, FIG2B, FIG2C

PROBLEM = get_problem("compDeriv-6.00x")

#: submission -> (source, cost, engine counts).
GOLDEN = {
    "a": (
        FIG2A,
        2,
        dict(
            sat_calls=12,
            sat_conflicts=68,
            sat_decisions=748,
            sat_propagations=2746,
            sat_learned=66,
            sat_restarts=0,
            blocked_cubes=345,
            table_leaves=476,
        ),
    ),
    "b": (
        FIG2B,
        1,
        dict(
            sat_calls=3,
            sat_conflicts=1,
            sat_decisions=40,
            sat_propagations=215,
            sat_learned=0,
            sat_restarts=0,
            blocked_cubes=1,
            table_leaves=1,
        ),
    ),
    "c": (
        FIG2C,
        2,
        dict(
            sat_calls=22,
            sat_conflicts=2314,
            sat_decisions=4078,
            sat_propagations=22376,
            sat_learned=2312,
            sat_restarts=14,
            blocked_cubes=6663,
            table_leaves=7526,
        ),
    ),
}


@pytest.fixture(scope="module")
def verifier():
    return BoundedVerifier(PROBLEM.spec)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fig2_engine_counts_are_pinned(name, verifier):
    source, cost, counts = GOLDEN[name]
    report = generate_feedback(
        source,
        PROBLEM.spec,
        PROBLEM.model,
        engine=CegisMinEngine(explorer=True),
        timeout_s=120,
        verifier=verifier,
    )
    assert report.status == "fixed", f"Fig. 2({name}): {report.status}"
    assert report.minimal
    assert report.cost == cost
    stats = report.engine_result.stats
    assert {key: stats[key] for key in counts} == counts
