"""SAT encoding of an M̃PY hole space.

For each hole ``h`` with ``m`` branches we introduce one-hot selection
variables ``x_{h,0} .. x_{h,m-1}`` (exactly one true). Nesting is encoded
with *activation* variables: ``a_h`` holds iff every ancestor choice selects
the branch ``h`` lives in. A *cost input* ``t_h`` is defined for every
non-free hole as ``t_h ↔ a_h ∧ ¬x_{h,0}`` — exactly "this correction is
applied" — and the cost inputs feed a sequential counter whose outputs the
CEGISMIN loop bounds by assumption (Algorithm 1's minimize hole).

Phases are biased toward defaults so the first SAT models stay close to the
student's original program.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.sat import CountingNetwork, Solver, encode_at_most_one
from repro.tilde.nodes import HoleRegistry


class HoleEncoding:
    """One-hot + activation + cost-counter encoding of a hole registry."""

    def __init__(self, solver: Solver, registry: HoleRegistry):
        self.solver = solver
        self.registry = registry
        self.branch_vars: Dict[int, List[int]] = {}
        self.activation_vars: Dict[int, int] = {}
        self.cost_inputs: List[int] = []
        self.cost_holes: List[int] = []
        self._encode()
        self.network = CountingNetwork(solver, self.cost_inputs)

    # -- encoding ------------------------------------------------------------

    def _encode(self) -> None:
        holes = sorted(self.registry.holes(), key=lambda h: h.cid)
        for info in holes:
            variables = [
                self.solver.new_var(preferred=(index == 0))
                for index in range(info.arity)
            ]
            self.branch_vars[info.cid] = variables
            self.solver.add_clause(variables)  # at least one branch
            # At most one branch: pairwise for narrow holes, sequential
            # ladder for wide ones (see repro.sat.cardinality).
            encode_at_most_one(self.solver, variables)
        # Activation variables need parents encoded first; process in
        # dependency order (parents are holes too, any order works because
        # we create all branch vars above).
        for info in holes:
            a = self.solver.new_var(preferred=True)
            self.activation_vars[info.cid] = a
        for info in holes:
            a = self.activation_vars[info.cid]
            if info.parent is None:
                self.solver.add_clause([a])
                continue
            parent_cid, branch = info.parent
            parent_sel = self.branch_vars[parent_cid][branch]
            parent_act = self.activation_vars[parent_cid]
            # a ↔ parent_sel ∧ parent_act
            self.solver.add_clause([-a, parent_sel])
            self.solver.add_clause([-a, parent_act])
            self.solver.add_clause([-parent_sel, -parent_act, a])
        for info in holes:
            if info.free:
                continue
            t = self.solver.new_var(preferred=False)
            a = self.activation_vars[info.cid]
            default = self.branch_vars[info.cid][0]
            # t ↔ a ∧ ¬default
            self.solver.add_clause([-t, a])
            self.solver.add_clause([-t, -default])
            self.solver.add_clause([-a, default, t])
            self.cost_inputs.append(t)
            self.cost_holes.append(info.cid)

    # -- model interface --------------------------------------------------------

    def reset_phases(self) -> None:
        """Re-bias decision phases toward the zero-cost defaults.

        CDCL phase saving gradually overwrites the initial preference as
        conflicts accumulate, drifting proposals away from the student's
        original program; re-asserting the bias before each synthesis call
        keeps the search anchored near-default, which is where minimal
        corrections live. (Measured: ~100x on the Fig. 2(a) full-model
        workload versus letting phases drift.)
        """
        for variables in self.branch_vars.values():
            for index, var in enumerate(variables):
                self.solver.set_preferred(var, index == 0)
        for var in self.activation_vars.values():
            self.solver.set_preferred(var, True)
        for var in self.cost_inputs:
            self.solver.set_preferred(var, False)

    def assignment_from_model(self) -> Dict[int, int]:
        """Decode the solver's current model into a canonical assignment."""
        assignment: Dict[int, int] = {}
        for cid, variables in self.branch_vars.items():
            for index, var in enumerate(variables):
                if self.solver.model_value(var):
                    if index != 0:
                        assignment[cid] = index
                    break
        return assignment

    def _cube_clause(self, cube: Dict[int, int]) -> List[int]:
        # An empty cube means the failing run read no holes at all: the
        # program is wrong independently of any correction, and the empty
        # clause makes the space empty.
        return [
            -self.branch_vars[cid][branch] for cid, branch in sorted(cube.items())
        ]

    def block_cube(self, cube: Dict[int, int]) -> None:
        """Forbid every assignment agreeing with ``cube`` (a failed run)."""
        self.solver.add_clause(self._cube_clause(cube))

    def block_cubes(self, cubes: Iterable[Dict[int, int]]) -> int:
        """Block a batch of cubes in order (e.g. every failing leaf of an
        exploration table); returns how many clauses were added."""
        clauses = [self._cube_clause(cube) for cube in cubes]
        self.solver.add_clauses(clauses)
        return len(clauses)

    def block_assignment(self, assignment: Dict[int, int]) -> None:
        """Forbid one exact (canonical) assignment."""
        clause = []
        for cid, variables in self.branch_vars.items():
            branch = assignment.get(cid, 0)
            clause.append(-variables[branch])
        self.solver.add_clause(clause)

    def bound_assumptions(self, max_cost: int) -> List[int]:
        """Assumption literals for "at most ``max_cost`` corrections"."""
        return self.network.bound_assumption(max_cost)

    def model_cost(self) -> int:
        return self.network.count_true(self.solver.model_value)
