"""The frozen reference CDCL solver: the differential oracle for
:mod:`repro.sat.solver`.

This is the solver as it stood before its propagation and analysis loops
were flattened, copied verbatim (only the class is renamed). Its
``_propagate`` builds a fresh watcher list per literal and goes through
``_value``/``_enqueue``; its ``_analyze`` bumps through ``_bump``. The
production solver promises the same search step for step, so the
differential tests in ``tests/sat/test_reference_oracle.py`` demand
identical ``solve()`` verdicts, ``stats`` dicts and ``model()`` after
every call on the same inputs.

``_pick_branch_var_linear``, the O(num_vars) decision scan the lazy
order heap must reproduce, lives only here. One method is appended to
the copy: ``add_clauses``, whose reference semantics are plain
sequential ``add_clause`` calls. :func:`assert_lockstep` after the class
is the comparison every differential test makes after each call.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.resilience.deadline import DeadlineTicker

SAT = "sat"
UNSAT = "unsat"

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


def luby(i: int) -> int:
    """The reluctant-doubling sequence 1 1 2 1 1 2 4 ... (1-indexed)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


class ReferenceSolver:
    """Incremental CDCL solver over integer literals (the frozen oracle)."""

    def __init__(self, restart_base: int = 64, decay: float = 0.95):
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self.learned: List[List[int]] = []
        self.watches: Dict[int, List[List[int]]] = {}
        self.assign: List[int] = [0]  # 1-indexed: 0 unassigned, ±1 value
        self.level: List[int] = [0]
        self.reason: List[Optional[List[int]]] = [None]
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        #: Lazy VSIDS order heap: ``(-activity, var)`` entries. An entry is
        #: stale when its recorded activity no longer matches the
        #: variable's (a bump pushed a fresher one); pops skip stale and
        #: assigned entries, and backtracking re-inserts unassigned vars.
        self._order: List[Tuple[float, int]] = []
        self.prop_head = 0
        self.restart_base = restart_base
        self.decay = decay
        self.var_inc = 1.0
        self.stats = {
            "calls": 0,
            "decisions": 0,
            "propagations": 0,
            "conflicts": 0,
            "restarts": 0,
            "learned": 0,
        }
        self._unsat = False

    # -- variable / clause management ---------------------------------------

    def new_var(self, preferred: bool = False) -> int:
        self.num_vars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(preferred)
        heapq.heappush(self._order, (-0.0, self.num_vars))
        return self.num_vars

    def set_preferred(self, var: int, value: bool) -> None:
        """Bias the decision phase of ``var`` toward ``value``."""
        self.phase[var] = value

    def _ensure_vars(self, lits: Iterable[int]) -> None:
        highest = max((abs(l) for l in lits), default=0)
        while self.num_vars < highest:
            self.new_var()

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula is now trivially UNSAT.

        Must be called at decision level 0 (between solve calls).
        """
        self._cancel_until(0)
        self._ensure_vars(lits)
        seen = set()
        clause: List[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = self._value(lit)
            if value == 1 and self.level[abs(lit)] == 0:
                return True  # already satisfied at root
            if value == -1 and self.level[abs(lit)] == 0:
                continue  # falsified at root: drop literal
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self._unsat = True
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._unsat = True
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._unsat = True
                return False
            return True
        self.clauses.append(clause)
        self._watch(clause)
        return True

    def _watch(self, clause: List[int]) -> None:
        self.watches.setdefault(-clause[0], []).append(clause)
        self.watches.setdefault(-clause[1], []).append(clause)

    # -- assignment ------------------------------------------------------------

    def _value(self, lit: int) -> int:
        value = self.assign[abs(lit)]
        if value == 0:
            return 0
        return value if lit > 0 else -value

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        value = self._value(lit)
        if value == 1:
            return True
        if value == -1:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        while self.prop_head < len(self.trail):
            lit = self.trail[self.prop_head]
            self.prop_head += 1
            self.stats["propagations"] += 1
            watchers = self.watches.get(lit)
            if not watchers:
                continue
            new_watchers: List[List[int]] = []
            index = 0
            while index < len(watchers):
                clause = watchers[index]
                index += 1
                # Normalize: watched literals are clause[0], clause[1].
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    new_watchers.append(clause)
                    continue
                # Find a new literal to watch.
                found = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(-clause[1], []).append(clause)
                        found = True
                        break
                if found:
                    continue
                new_watchers.append(clause)
                if not self._enqueue(first, clause):
                    # Conflict: restore remaining watchers and report.
                    new_watchers.extend(watchers[index:])
                    self.watches[lit] = new_watchers
                    return clause
            self.watches[lit] = new_watchers
        return None

    # -- conflict analysis -------------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > _RESCALE_LIMIT:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= _RESCALE_FACTOR
            self.var_inc *= _RESCALE_FACTOR
            # Every heap entry just went stale at once: rebuild.
            self._order = [
                (-self.activity[v], v)
                for v in range(1, self.num_vars + 1)
                if self.assign[v] == 0
            ]
            heapq.heapify(self._order)
        else:
            heapq.heappush(self._order, (-self.activity[var], var))

    def _analyze(self, conflict: List[int]) -> tuple:
        """First-UIP learning; returns (learned clause, backjump level)."""
        current_level = len(self.trail_lim)
        seen = [False] * (self.num_vars + 1)
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        lit = None
        reason: Optional[List[int]] = conflict
        index = len(self.trail) - 1
        while True:
            assert reason is not None
            for q in reason:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            var = abs(lit)
            seen[var] = False
            index -= 1
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            reason = self.reason[var]
        # Clause minimization: drop literals implied by the rest.
        learned = self._minimize(learned, seen)
        if len(learned) == 1:
            return learned, 0
        # Backjump level: second-highest level in the clause.
        levels = sorted((self.level[abs(q)] for q in learned[1:]), reverse=True)
        back = levels[0]
        # Move a literal of the backjump level into watch position 1.
        for k in range(1, len(learned)):
            if self.level[abs(learned[k])] == back:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, back

    def _minimize(self, learned: List[int], seen: List[bool]) -> List[int]:
        marked = set(abs(q) for q in learned)
        kept = [learned[0]]
        for q in learned[1:]:
            reason = self.reason[abs(q)]
            if reason is None:
                kept.append(q)
                continue
            if all(
                abs(r) in marked or self.level[abs(r)] == 0
                for r in reason
                if r != -q
            ):
                continue  # dominated: implied by the others
            kept.append(q)
        return kept

    # -- backtracking ----------------------------------------------------------------

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        limit = self.trail_lim[target_level]
        for lit in reversed(self.trail[limit:]):
            var = abs(lit)
            self.phase[var] = lit > 0  # phase saving
            self.assign[var] = 0
            self.reason[var] = None
            heapq.heappush(self._order, (-self.activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self.prop_head = min(self.prop_head, len(self.trail))

    # -- main loop ---------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        deadline: Optional[float] = None,
    ) -> str:
        """Solve under assumptions; returns SAT or UNSAT.

        On SAT, :meth:`model_value` reads the satisfying assignment (valid
        until the next :meth:`add_clause` or :meth:`solve` call).

        ``deadline`` is a ``time.monotonic()`` instant; when it passes,
        the call raises :class:`TimeoutError` (checked once per 256 main-
        loop rounds, amortized like the interpreter's fuel counter — a
        pathological formula aborts within the service's grace instead of
        wedging the worker until the watchdog SIGKILLs it). The solver
        stays usable: the next call backtracks to the root as always.
        """
        self.stats["calls"] += 1
        if self._unsat:
            return UNSAT
        self._cancel_until(0)
        self._ensure_vars(assumptions)
        ticker = DeadlineTicker(deadline)
        conflict_budget = self.restart_base * luby(self.stats["restarts"] + 1)
        while True:
            if ticker.tick():
                raise TimeoutError("SAT solve deadline exceeded")
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                if not self.trail_lim:
                    self._unsat = True
                    return UNSAT
                learned, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learned) > 1:
                    self.learned.append(learned)
                    self._watch(learned)
                    self.stats["learned"] += 1
                self._enqueue(
                    learned[0], learned if len(learned) > 1 else None
                )
                self.var_inc /= self.decay
                conflict_budget -= 1
                if conflict_budget <= 0:
                    self.stats["restarts"] += 1
                    self._cancel_until(0)
                    conflict_budget = self.restart_base * luby(
                        self.stats["restarts"] + 1
                    )
                continue
            # No conflict: satisfy assumptions first (MiniSat-style: one
            # decision level per assumption), then branch heuristically.
            if len(self.trail_lim) < len(assumptions):
                lit = assumptions[len(self.trail_lim)]
                value = self._value(lit)
                if value == 1:
                    self.trail_lim.append(len(self.trail))  # dummy level
                    continue
                if value == -1:
                    self._cancel_until(0)
                    return UNSAT  # conflicting assumptions
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var is None:
                return SAT  # complete assignment
            self.stats["decisions"] += 1
            lit = var if self.phase[var] else -var
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    def _pick_branch_var(self) -> Optional[int]:
        order = self._order
        assign = self.assign
        activity = self.activity
        while order:
            neg_activity, var = heapq.heappop(order)
            if assign[var] != 0:
                continue  # re-inserted on unassignment
            if -neg_activity != activity[var]:
                continue  # stale: a bump pushed a fresher entry
            return var
        return None

    def _pick_branch_var_linear(self) -> Optional[int]:
        """Reference O(num_vars) scan for the order-heap equivalence tests."""
        best = None
        best_activity = -1.0
        for var in range(1, self.num_vars + 1):
            if self.assign[var] == 0 and self.activity[var] > best_activity:
                best = var
                best_activity = self.activity[var]
        return best

    # -- model access ------------------------------------------------------------

    def model_value(self, lit: int) -> bool:
        value = self._value(lit)
        if value == 0:
            # Unconstrained variable: report its saved phase.
            return self.phase[abs(lit)] if lit > 0 else not self.phase[abs(lit)]
        return value == 1

    def model(self) -> Dict[int, bool]:
        return {
            var: self.model_value(var) for var in range(1, self.num_vars + 1)
        }

    # -- batch clause addition (reference semantics) ----------------------------

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add clauses one by one; False if any made the formula UNSAT."""
        ok = True
        for lits in clauses:
            if not self.add_clause(lits):
                ok = False
        return ok


def assert_lockstep(solver, oracle, got: str, want: str, where: str) -> None:
    """Same verdict, same ``stats`` and same ``model()`` after one call."""
    assert got == want, f"{where}: verdict {got} != oracle {want}"
    assert solver.stats == oracle.stats, (
        f"{where}: stats {solver.stats} != oracle {oracle.stats}"
    )
    assert solver.model() == oracle.model(), f"{where}: models differ"
