"""Lowering of M̃PY trees to generated Python source.

Every function body of a :class:`~repro.mpy.nodes.Module` — the module
top level, each ``def`` and each ``lambda`` — becomes one plain Python
function, emitted as source text and built once per
:class:`CompiledProgram` with a single ``exec``. Repeated candidate runs
then execute straight-line CPython bytecode: no per-node dispatch, no
closure-call frame per AST node, no name-string dict walks.

Shape of the generated code:

- expressions are flattened into statements over local temporaries, in
  the interpreter's evaluation order; literals stay inline;
- locals are ``(depth, slot)``-resolved at lowering time and read as
  ``slots[i]``, with ``slots = frame.slots`` bound once per call (outer
  scopes through ``frame.parent``). A read that cannot be proven bound
  by a block-sequential definite-assignment pass keeps the interpreter's
  unbound-local / outer-scope / globals fallback chain;
- ``break``, ``continue`` and ``return`` are native Python control flow
  (a return hands back the machine's :class:`ReturnBox`, the protocol
  :meth:`Machine.call_value` consumes);
- each choice node becomes ``b = ASG[i]`` / ``TOUCHED[cid] = b`` followed
  by an ``if``/``elif`` over its branches. Switching the candidate under
  test is an array write (:meth:`CompiledProgram.set_assignment`) — **no
  regeneration per candidate**.

The lowering keeps three contracts with the tree-walking interpreter of
:mod:`repro.mpy.interp`, which remains the oracle:

- **Fuel.** A burn is inlined (``m.fuel -= 1`` plus the bound check) at
  exactly the interpreter's burn points: once per executed statement,
  once per loop iteration and comprehension item, and once per operator,
  index or call. Inline ``int``-only fast paths burn once and skip the
  borrowed operator; anything else calls the borrowed operator, which
  burns itself — so the remaining fuel after any run, including the
  ``-1`` of an exhausted run, is the interpreter's.
- **Cube order.** A choice is recorded before its operands are
  evaluated, and operands are evaluated in the interpreter's order, so
  the touched-hole dict's insertion order is **first-read order**. The
  path forker (:mod:`repro.explore.forker`) replays a run's decision
  prefix from it and fans out at the first untouched choice;
  :meth:`CompiledProgram.run_recorded` keeps the record complete across
  top-level re-execution, and :attr:`CompiledProgram.arities` gives each
  fan-out's width.
- **Messages.** Every dynamic error is raised with the interpreter's
  wording, either by the borrowed operator itself (operator semantics
  are the interpreter's methods, bound to
  :class:`~repro.compile.runtime.Machine`) or by an inline check that
  reproduces its text; fast paths only run where the borrowed operator
  cannot fail.

The differential suite under ``tests/compile/`` holds the two backends
equal — outcome, message, stdout, remaining fuel and ordered cube — over
every registered problem, the synthetic student corpus, and randomized
hole assignments of every problem's candidate spaces.
"""

from __future__ import annotations

import ast
import re
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.mpy import nodes as N
from repro.mpy.errors import MPYError, MPYRuntimeError, OutOfFuel
from repro.mpy.interp import (
    DEFAULT_FUEL,
    MAX_COLLECTION,
    _DICT_METHODS,
    _INT_MAGNITUDE_CAP,
    _LIST_METHODS,
    _STR_METHODS,
    _TUPLE_METHODS,
    BuiltinFunction,
    RunResult,
    _BreakSignal,
    _ContinueSignal,
    _make_builtins,
    _type_name,
    assigned_names,
)
from repro.mpy.values import clone_value
from repro.tilde.nodes import ChoiceBinOp, ChoiceCompare, ChoiceExpr, ChoiceStmt
from repro.compile.runtime import (
    UNDEF,
    CompiledClosure,
    FnTemplate,
    Frame,
    Machine,
    ReturnBox,
)

_MISSING = object()

#: Binary operators with an inline ``int``×``int`` fast path.
_FAST_BINOPS = frozenset(("+", "-", "*", "//", "%", "/"))
_ORDERED_OPS = frozenset(("<", ">", "<=", ">="))

#: Method tables by exact receiver type, for inline method dispatch.
_METHOD_TABLES = (
    ("list", _LIST_METHODS),
    ("str", _STR_METHODS),
    ("dict", _DICT_METHODS),
    ("tuple", _TUPLE_METHODS),
)

#: Builtin calls specialized inside their identity-guarded fast path:
#: (name, argument count) → (guard, value) templates over the argument
#: operands. Where the guard holds the value is exactly what the
#: builtin returns; elsewhere the builtin itself runs.
_BUILTIN_INLINE = {
    ("len", 1): ("type({0}) in SIZED", "len({0})"),
    ("abs", 1): ("type({0}) is int", "abs({0})"),
    ("range", 1): ("type({0}) is int and {0} <= MAXC", "list(range({0}))"),
    ("range", 2): (
        "type({0}) is int and type({1}) is int and {1} - {0} <= MAXC",
        "list(range({0}, {1}))",
    ),
}

_INT_LITERAL = re.compile(r"^\(?-?\d+\)?$")

#: Deepest indentation an expression is lowered at inline; deeper ones go
#: to a helper function so no generated block nests past CPython's limit.
_MAX_INLINE_INDENT = 48


def _exhausted(machine: Machine, burns: int):
    """Raise :class:`OutOfFuel` for a coalesced ``m.fuel -= burns``,
    leaving the fuel where the first failing single burn would have."""
    machine.fuel = min(machine.fuel + burns - 1, -1)
    raise OutOfFuel(machine.max_fuel)


# ---------------------------------------------------------------------------
# Static scope analysis
# ---------------------------------------------------------------------------


def _collect_target_names(target: N.Expr, names: set) -> None:
    if isinstance(target, N.Var):
        names.add(target.name)
    elif isinstance(target, N.TupleLit):
        for elt in target.elts:
            _collect_target_names(elt, names)
    elif isinstance(target, ChoiceExpr):
        for choice in target.choices:
            _collect_target_names(choice, names)


def _collect_assigned(stmts: Tuple[N.Stmt, ...]) -> set:
    """Names a block *can* bind at runtime.

    Superset of the interpreter's ``assigned_names``: also descends into
    ``ChoiceStmt`` branches and ``ChoiceExpr`` assignment targets, because
    a selected branch assigns into the enclosing function frame exactly
    like a plain statement would. (Such names still resolve dynamically —
    local once assigned, outer/global before — which the read chains in
    :meth:`_Lowering.read_var` reproduce.)
    """
    names: set = set()

    def visit(stmt: N.Stmt) -> None:
        if isinstance(stmt, (N.Assign, N.AugAssign)):
            _collect_target_names(stmt.target, names)
        elif isinstance(stmt, N.For):
            _collect_target_names(stmt.target, names)
            for s in stmt.body:
                visit(s)
        elif isinstance(stmt, N.FuncDef):
            names.add(stmt.name)
        elif isinstance(stmt, N.If):
            for s in stmt.body + stmt.orelse:
                visit(s)
        elif isinstance(stmt, N.While):
            for s in stmt.body:
                visit(s)
        elif isinstance(stmt, ChoiceStmt):
            for block in stmt.choices:
                for s in block:
                    visit(s)

    for stmt in stmts:
        visit(stmt)
    return names


class _Scope:
    """Compile-time scope: name → slot, plus the unbound-read trap set.

    ``trap`` is the interpreter's ``declared`` set (``assigned_names`` of
    the body): a read that finds its name here but the slot unassigned
    raises the unbound-local error instead of falling through to an outer
    scope. Slots ``< nparams`` hold parameters and are always bound.
    """

    __slots__ = ("parent", "index", "trap", "nparams")

    def __init__(
        self,
        parent: Optional["_Scope"],
        ordered_names: Tuple[str, ...],
        trap: frozenset,
        nparams: int,
    ):
        self.parent = parent
        self.index = {name: i for i, name in enumerate(ordered_names)}
        self.trap = trap
        self.nparams = nparams


def _function_scope(
    parent: Optional[_Scope], params: Tuple[str, ...], body: Tuple[N.Stmt, ...]
) -> _Scope:
    extra = sorted(_collect_assigned(body) - set(params))
    return _Scope(
        parent,
        tuple(params) + tuple(extra),
        trap=assigned_names(body),
        nparams=len(params),
    )


def _resolves_global(name: str, scope: Optional[_Scope]) -> bool:
    """True when no enclosing compile-time scope can bind ``name``."""
    walk = scope
    while walk is not None:
        if name in walk.index:
            return False
        walk = walk.parent
    return True


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------


class _Source:
    """The lines of one generated function.

    Fuel burns are buffered: consecutive burns with nothing emitted
    between them flush as one ``m.fuel -= k`` whose exhaustion path
    (:func:`_exhausted`) leaves the fuel where ``k`` single burns would.
    """

    __slots__ = ("lines", "indent", "marks", "burns")

    def __init__(self, header: str):
        self.lines: List[str] = ["    " + header]
        self.indent = 2
        self.marks: List[int] = []
        self.burns = 0

    def emit(self, line: str) -> None:
        if self.burns:
            self._flush()
        self.lines.append("    " * self.indent + line)

    def burn(self) -> None:
        self.burns += 1

    def assign(self, dest: str, operand: str) -> None:
        """Emit ``dest = operand``, retargeting the previous line instead
        when it just defined the temporary ``operand`` (used only here)."""
        if not self.burns and operand[0] == "t":
            pad = "    " * self.indent
            prefix = f"{pad}{operand} = "
            last = self.lines[-1]
            if last.startswith(prefix):
                self.lines[-1] = f"{pad}{dest} = {last[len(prefix):]}"
                return
        self.emit(f"{dest} = {operand}")

    def _flush(self) -> None:
        burns, self.burns = self.burns, 0
        pad = "    " * self.indent
        self.lines.append(f"{pad}m.fuel -= {burns}")
        if burns == 1:
            self.lines.append(
                f"{pad}if m.fuel < 0: raise OutOfFuel(m.max_fuel)"
            )
        else:
            self.lines.append(f"{pad}if m.fuel < 0: exhausted({burns})")

    def open(self, header: str) -> None:
        """Start an indented block under ``header``."""
        self.emit(header)
        self.indent += 1
        self.marks.append(len(self.lines))

    def close(self) -> None:
        """End the innermost block (``pass`` if it was left empty)."""
        if self.burns:
            self._flush()
        if len(self.lines) == self.marks.pop():
            self.emit("pass")
        self.indent -= 1

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        self.open(header)
        yield
        self.close()


class _Ctx:
    """Where code is being generated: target function, scope and frames.

    ``frames[d]`` names the Python expressions for the frame at lexical
    depth ``d`` and its slot list; deeper frames are reached through
    ``.parent`` from the last entry. ``assigned`` holds the depth-0 slots
    every path to the current point has written (slots are never
    unbound again, and an error leaves the function, so block-sequential
    reasoning is exact). ``loops`` counts enclosing loops of the
    generated function, for ``break``/``continue``.
    """

    __slots__ = ("src", "scope", "frames", "loops", "assigned")

    def __init__(self, src, scope, frames, loops=0, assigned=None):
        self.src = src
        self.scope = scope
        self.frames = frames
        self.loops = loops
        self.assigned = assigned if assigned is not None else set()

    def branch(self, loops: Optional[int] = None) -> "_Ctx":
        """A child context whose assignments do not flow back."""
        return _Ctx(
            self.src,
            self.scope,
            self.frames,
            self.loops if loops is None else loops,
            set(self.assigned),
        )

    def slots_at(self, depth: int) -> str:
        if depth < len(self.frames):
            slots = self.frames[depth][1]
            if slots is not None:
                return slots
            return f"{self.frames[depth][0]}.slots"
        frame = self.frames[-1][0] + ".parent" * (depth - len(self.frames) + 1)
        return f"{frame}.slots"


def _int_value(operand: str) -> Optional[int]:
    """The value of an inline ``int`` literal operand, else None."""
    if _INT_LITERAL.match(operand):
        return int(operand.strip("()"))
    return None


def _is_literal(operand: str) -> bool:
    """Whether an operand is an inline literal (not a temporary)."""
    return operand[0] in "'\"(0123456789" or operand in (
        "True",
        "False",
        "None",
    )


def _static_truth(operand: str) -> Optional[bool]:
    """Truthiness of a literal operand (never raises), else None."""
    if not _is_literal(operand):
        return None
    return bool(ast.literal_eval(operand))


class _Lowering:
    """Generates the Python source of one module over one :class:`Machine`."""

    def __init__(self, machine: Machine):
        self.machine = machine
        # Shared candidate-selection state, read by the choice ladders.
        self.asg: List[int] = []
        self.cid_slot: Dict[int, int] = {}
        self.cid_arity: Dict[int, int] = {}
        self.touched: Dict[int, int] = {}
        #: The program's builtin bindings. Call sites naming one of these
        #: get an identity-guarded fast path: if the callee resolved at
        #: runtime *is* this exact binding (the name was never shadowed),
        #: the underlying function is invoked directly.
        self.builtins = {
            name: BuiltinFunction(name=name, fn=fn)
            for name, fn in _make_builtins(machine).items()
        }
        #: Free variables of every generated function: runtime helpers
        #: (the borrowed operators, bound to the machine) plus constants.
        self.env: Dict[str, object] = {
            "m": machine,
            "G": machine.globals,
            "ASG": self.asg,
            "TOUCHED": self.touched,
            "BOX": ReturnBox(),
            "UNDEF": UNDEF,
            "MISSING": _MISSING,
            "OutOfFuel": OutOfFuel,
            "exhausted": lambda burns: _exhausted(machine, burns),
            "Err": MPYRuntimeError,
            "BreakSignal": _BreakSignal,
            "ContinueSignal": _ContinueSignal,
            "type_name": _type_name,
            "truthy": machine.truthy,
            "iterate": machine.iterate,
            "binary_op": machine.binary_op,
            "compare_op": machine.compare_op,
            "get_index": machine.get_index,
            "set_index": machine.set_index,
            "bind_method": machine.bind_method,
            "call_value": machine.call_value,
            "check_size": machine._check_size,
            "Frame": Frame,
            "Closure": CompiledClosure,
            "CAP": _INT_MAGNITUDE_CAP,
            "MAXC": machine.max_collection,
            "SIZED": frozenset((str, list, tuple, dict)),
            "SEQUENCES": frozenset((list, tuple, str)),
        }
        #: Builtins whose global binding the module can never replace
        #: (set by :meth:`lower_top`): reading one is a constant.
        self.fixed: Dict[str, BuiltinFunction] = {}
        self._const_names: Dict[int, str] = {}
        self.functions: List[Tuple[str, _Source, Optional[FnTemplate]]] = []
        self._temps = 0

    # -- bookkeeping ---------------------------------------------------------

    def temp(self, prefix: str = "t") -> str:
        self._temps += 1
        return f"{prefix}{self._temps}"

    def const(self, value: object) -> str:
        """An ``env`` name bound to ``value`` (one name per object)."""
        name = self._const_names.get(id(value))
        if name is None:
            name = f"K{len(self._const_names)}"
            self._const_names[id(value)] = name
            self.env[name] = value
        return name

    def _hole(self, cid: int, arity: int) -> int:
        index = self.cid_slot.get(cid)
        if index is None:
            index = len(self.asg)
            self.cid_slot[cid] = index
            self.asg.append(0)
        self.cid_arity[cid] = arity
        return index

    @contextmanager
    def fast_path(self, ctx: _Ctx, guard: List[str], generic: str):
        """``if guard:`` an inline fast path charged one burn, ``else:``
        the borrowed operator line ``generic``, which burns first.

        The fuel check rides in the guard: with the budget spent, the
        borrowed operator runs instead and raises :class:`OutOfFuel` at
        the same point, leaving the same ``-1``. An empty guard makes the
        fast path unconditional, with an ordinary burn.
        """
        src = ctx.src
        if not guard:
            ctx.src.burn()
            yield
            return
        src.open(f"if {' and '.join(guard)} and m.fuel > 0:")
        src.emit("m.fuel -= 1")
        yield
        src.close()
        with src.block("else:"):
            src.emit(generic)

    def choose(self, ctx: _Ctx, cid: int, arity: int) -> str:
        """Record the choice read; returns the branch variable."""
        index = self._hole(cid, arity)
        branch = self.temp("b")
        ctx.src.emit(f"{branch} = ASG[{index}]")
        ctx.src.emit(f"TOUCHED[{cid}] = {branch}")
        return branch

    def arms(self, ctx: _Ctx, branch: str, arity: int) -> Iterator[_Ctx]:
        """The ``if``/``elif`` ladder over a choice's branches: yields one
        child context per branch, inside its arm. An out-of-range branch
        raises, as indexing the interpreter's choice tuple does."""
        src = ctx.src
        for k in range(arity):
            src.open(f"{'if' if k == 0 else 'elif'} {branch} == {k}:")
            yield ctx.branch()
            src.close()
        with src.block("else:"):
            src.emit("raise IndexError('tuple index out of range')")

    # -- functions -----------------------------------------------------------

    def lower_function(
        self,
        name: str,
        params: Tuple[str, ...],
        body: Tuple[N.Stmt, ...],
        scope: Optional[_Scope],
    ) -> FnTemplate:
        fn_scope = _function_scope(scope, params, body)
        template = FnTemplate(
            name=name,
            nparams=len(params),
            n_slots=len(fn_scope.index),
            body=None,
        )
        fname = self.temp("f")
        src = _Source(f"def {fname}(frame):")
        src.emit("slots = frame.slots")
        self.functions.append((fname, src, template))
        ctx = _Ctx(src, fn_scope, [("frame", "slots")])
        ctx.assigned.update(range(len(params)))
        self.lower_block(ctx, body)
        return template

    def lower_top(self, body: Tuple[N.Stmt, ...]) -> str:
        # The globals dict holds the builtins plus what the top level
        # binds (functions cannot assign globals), so a builtin name the
        # top level can never bind always reads as that builtin.
        rebound = _collect_assigned(body)
        self.fixed = {
            name: builtin
            for name, builtin in self.builtins.items()
            if name not in rebound
        }
        fname = self.temp("f")
        src = _Source(f"def {fname}(frame):")
        self.functions.append((fname, src, None))
        self.lower_block(_Ctx(src, None, [("frame", None)]), body)
        return fname

    def build(self) -> Dict[str, object]:
        """``exec`` the generated source once; name → function object."""
        names = list(self.env)
        lines = [f"def _lower({', '.join(names)}):"]
        for _, src, _ in self.functions:
            src.emit("return None")  # flushes a body's trailing burns
            lines.extend(src.lines)
        fnames = [fname for fname, _, _ in self.functions]
        lines.append(f"    return ({', '.join(fnames)},)")
        namespace: dict = {}
        code = compile("\n".join(lines) + "\n", "<mpy-lowered>", "exec")
        exec(code, namespace)
        built = namespace["_lower"](*(self.env[name] for name in names))
        functions = dict(zip(fnames, built))
        for fname, _, template in self.functions:
            if template is not None:
                template.body = functions[fname]
        return functions

    # -- blocks and statements ----------------------------------------------

    def lower_block(self, ctx: _Ctx, stmts: Tuple[N.Stmt, ...]) -> None:
        for stmt in stmts:
            method = getattr(self, "stmt_" + type(stmt).__name__, None)
            if method is None:
                ctx.src.burn()
                message = f"cannot execute {type(stmt).__name__}"
                ctx.src.emit(f"raise Err({message!r})")
                continue
            method(ctx, stmt)

    def _mark_assigned(self, ctx: _Ctx, target: N.Expr) -> None:
        if ctx.scope is None:
            return
        if isinstance(target, N.Var):
            ctx.assigned.add(ctx.scope.index[target.name])
        elif isinstance(target, N.TupleLit):
            for elt in target.elts:
                self._mark_assigned(ctx, elt)

    def stmt_Assign(self, ctx: _Ctx, stmt: N.Assign) -> None:
        ctx.src.burn()
        value = self.expr(ctx, stmt.value)
        self.store(ctx, stmt.target, value)
        self._mark_assigned(ctx, stmt.target)

    def stmt_AugAssign(self, ctx: _Ctx, stmt: N.AugAssign) -> None:
        src = ctx.src
        ctx.src.burn()
        current = self.expr(ctx, stmt.target)
        value = self.expr(ctx, stmt.value)
        if stmt.op != "+":
            result = self.binop(ctx, stmt.op, current, value)
            self.store(ctx, stmt.target, result)
            self._mark_assigned(ctx, stmt.target)
            return
        # Match Python's in-place list +=: extend, not rebind.
        with src.block(f"if isinstance({current}, list):"):
            with src.block(f"if not isinstance({value}, (list, tuple)):"):
                src.emit(
                    "raise Err('can only concatenate list (not ' + "
                    f"type_name({value}) + ') to list')"
                )
            src.emit(f"check_size(len({current}) + len({value}))")
            src.emit(f"{current}.extend({value})")
        with src.block("else:"):
            inner = ctx.branch()
            result = self.binop(inner, "+", current, value)
            self.store(inner, stmt.target, result)
        self._mark_assigned(ctx, stmt.target)

    def stmt_ExprStmt(self, ctx: _Ctx, stmt: N.ExprStmt) -> None:
        ctx.src.burn()
        self.expr(ctx, stmt.value)

    def stmt_If(self, ctx: _Ctx, stmt: N.If) -> None:
        ctx.src.burn()
        test = self.expr(ctx, stmt.test)
        body, orelse = ctx.branch(), ctx.branch()
        with ctx.src.block(f"if {self.truth(test)}:"):
            self.lower_block(body, stmt.body)
        if stmt.orelse:
            with ctx.src.block("else:"):
                self.lower_block(orelse, stmt.orelse)
        ctx.assigned &= body.assigned & orelse.assigned

    def stmt_While(self, ctx: _Ctx, stmt: N.While) -> None:
        src = ctx.src
        ctx.src.burn()
        body = ctx.branch(loops=ctx.loops + 1)
        with src.block("while True:"):
            test = self.expr(body.branch(), stmt.test)
            if _static_truth(test) is not True:
                src.emit(f"if {self.falsity(test)}: break")
            body.src.burn()
            self.lower_block(body, stmt.body)

    def stmt_For(self, ctx: _Ctx, stmt: N.For) -> None:
        src = ctx.src
        ctx.src.burn()
        iterable = self.expr(ctx, stmt.iter)
        item = self.temp()
        body = ctx.branch(loops=ctx.loops + 1)
        if self._local_slot(ctx, stmt.target) is not None:
            items = (
                f"(list({iterable}) if type({iterable}) is list "
                f"else iterate({iterable}))"
            )
        else:
            items = f"iterate({iterable})"
        with src.block(f"for {item} in {items}:"):
            body.src.burn()
            self.store(body, stmt.target, item)
            self._mark_assigned(body, stmt.target)
            self.lower_block(body, stmt.body)

    def _local_slot(self, ctx: _Ctx, target: N.Expr) -> Optional[int]:
        """Slot index when ``target`` is a plain local variable, else None."""
        if isinstance(target, N.Var) and ctx.scope is not None:
            return ctx.scope.index.get(target.name)
        return None

    def stmt_Return(self, ctx: _Ctx, stmt: N.Return) -> None:
        ctx.src.burn()
        value = "None" if stmt.value is None else self.expr(ctx, stmt.value)
        ctx.src.assign("BOX.value", value)
        ctx.src.emit("return BOX")

    def stmt_Pass(self, ctx: _Ctx, stmt: N.Pass) -> None:
        ctx.src.burn()

    def stmt_Break(self, ctx: _Ctx, stmt: N.Break) -> None:
        ctx.src.burn()
        ctx.src.emit("break" if ctx.loops else "raise BreakSignal()")

    def stmt_Continue(self, ctx: _Ctx, stmt: N.Continue) -> None:
        ctx.src.burn()
        ctx.src.emit("continue" if ctx.loops else "raise ContinueSignal()")

    def stmt_FuncDef(self, ctx: _Ctx, stmt: N.FuncDef) -> None:
        template = self.lower_function(
            stmt.name, stmt.params, stmt.body, ctx.scope
        )
        ctx.src.burn()
        closure = self.temp()
        ctx.src.emit(
            f"{closure} = Closure({self.const(template)}, "
            f"{ctx.frames[0][0]})"
        )
        self.store(ctx, N.Var(name=stmt.name), closure)
        self._mark_assigned(ctx, N.Var(name=stmt.name))

    def stmt_ChoiceStmt(self, ctx: _Ctx, stmt: ChoiceStmt) -> None:
        ctx.src.burn()
        branch = self.choose(ctx, stmt.cid, stmt.arity)
        merged = None
        for child, block in zip(
            self.arms(ctx, branch, stmt.arity), stmt.choices
        ):
            self.lower_block(child, block)
            if merged is None:
                merged = child.assigned
            else:
                merged &= child.assigned
        ctx.assigned |= merged

    # -- assignment targets --------------------------------------------------

    def store(self, ctx: _Ctx, target: N.Expr, value: str) -> None:
        """Emit the assignment of operand ``value`` to ``target``."""
        src = ctx.src
        if isinstance(target, N.Var):
            if ctx.scope is None:
                src.emit(f"G[{target.name!r}] = {value}")
                return
            slot = ctx.scope.index.get(target.name)
            if slot is None:  # pragma: no cover - collector invariant
                raise MPYError(
                    f"internal: unresolved assignment target {target.name!r}"
                )
            src.assign(f"{ctx.slots_at(0)}[{slot}]", value)
            return
        if isinstance(target, N.Index):
            obj = self.variable(ctx, self.expr(ctx, target.obj))
            index = self.expr(ctx, target.index)
            self._set_item(ctx, obj, index, value)
            return
        if isinstance(target, N.Slice):
            obj = self.variable(ctx, self.expr(ctx, target.obj))
            with src.block(f"if not isinstance({obj}, list):"):
                src.emit(
                    f"raise Err(type_name({obj}) + "
                    "' does not support slice assignment')"
                )
            bounds = self.slice_bounds(ctx, target)
            with src.block(f"if not isinstance({value}, (list, tuple, str)):"):
                src.emit("raise Err('can only assign an iterable to a slice')")
            src.emit(f"{obj}[{bounds}] = list({value})")
            src.emit(f"check_size(len({obj}))")
            return
        if isinstance(target, N.TupleLit):
            items = self.temp()
            count = len(target.elts)
            src.emit(f"{items} = iterate({value})")
            with src.block(f"if len({items}) != {count}:"):
                src.emit(
                    f"raise Err('cannot unpack ' + str(len({items})) + "
                    f"' values into {count} targets')"
                )
            for k, elt in enumerate(target.elts):
                self.store(ctx, elt, f"{items}[{k}]")
            return
        if isinstance(target, ChoiceExpr):
            # Assignment-target corrections (LHS rewrites): resolve the
            # chosen branch per run, recording the hole read.
            branch = self.choose(ctx, target.cid, target.arity)
            for child, choice in zip(
                self.arms(ctx, branch, target.arity), target.choices
            ):
                self.store(child, choice, value)
            return
        message = f"cannot assign to {type(target).__name__}"
        src.emit(f"raise Err({message!r})")

    def _set_item(self, ctx: _Ctx, obj: str, index: str, value: str) -> None:
        src = ctx.src
        guard = [f"type({obj}) is list"]
        if _int_value(index) is None:
            if _is_literal(index):
                src.emit(f"set_index({obj}, {index}, {value})")
                return
            guard.append(f"type({index}) is int")
        with self.fast_path(ctx, guard, f"set_index({obj}, {index}, {value})"):
            with src.block(
                f"if {index} < -len({obj}) or {index} >= len({obj}):"
            ):
                src.emit("raise Err('list assignment index out of range')")
            src.emit(f"{obj}[{index}] = {value}")

    # -- expressions ---------------------------------------------------------

    def expr(self, ctx: _Ctx, expr: N.Expr) -> str:
        """Emit code evaluating ``expr``; returns an operand — an inline
        literal or a temporary — that holds its value."""
        if isinstance(expr, N.IntLit):
            return f"({expr.value})" if expr.value < 0 else repr(expr.value)
        if isinstance(expr, (N.BoolLit, N.StrLit)):
            return repr(expr.value)
        if isinstance(expr, N.NoneLit):
            return "None"
        if isinstance(expr, N.Var):
            return self.read_var(ctx, expr.name)
        if ctx.src.indent > _MAX_INLINE_INDENT:
            return self._hoisted(ctx, expr)
        method = getattr(self, "expr_" + type(expr).__name__, None)
        if method is None:
            message = f"cannot evaluate {type(expr).__name__}"
            ctx.src.emit(f"raise Err({message!r})")
            return "None"
        return method(ctx, expr)

    def variable(self, ctx: _Ctx, operand: str) -> str:
        """``operand``, copied to a temporary if it is a literal — a base
        that generated code subscripts or takes attributes of (CPython
        rejects or warns on ``5[0]`` and ``5.template``)."""
        if not _is_literal(operand):
            return operand
        result = self.temp()
        ctx.src.emit(f"{result} = {operand}")
        return result

    def _hoisted(self, ctx: _Ctx, expr: N.Expr) -> str:
        """Lower a deeply nested expression into its own helper function,
        taking the enclosing frame variables as arguments."""
        names = [name for pair in ctx.frames for name in pair if name]
        names = [name for name in names if name != "None"]
        fname = self.temp("h")
        src = _Source(f"def {fname}({', '.join(names)}):")
        self.functions.append((fname, src, None))
        inner = _Ctx(src, ctx.scope, ctx.frames, 0, set(ctx.assigned))
        value = self.expr(inner, expr)
        src.emit(f"return {value}")
        result = self.temp()
        ctx.src.emit(f"{result} = {fname}({', '.join(names)})")
        return result

    def read_var(self, ctx: _Ctx, name: str) -> str:
        """Emit a name read along its statically resolved access chain.

        Walking the compile-time scopes from innermost out produces a
        chain of ``(depth, slot, trap)`` probes; resolution stops early at
        a parameter (always bound), a slot definitely assigned at this
        point, or a trap entry (the interpreter's declared-name rule never
        looks past it). Anything left falls through to the globals dict.
        """
        src = ctx.src
        chain, has_global = self._chain(ctx, name)
        if not chain and name in self.fixed:
            return self.const(self.fixed[name])
        direct = self._direct_read(ctx, name)
        result = self.temp()
        if direct is not None:
            src.emit(f"{result} = {direct}")
            return result
        undefined = f"name '{name}' is not defined"
        unbound = f"local variable '{name}' referenced before assignment"
        opened = 0
        for position, (entry_depth, slot, trap) in enumerate(chain):
            src.emit(f"{result} = {ctx.slots_at(entry_depth)}[{slot}]")
            if not has_global and position == len(chain) - 1:
                if trap:
                    with src.block(f"if {result} is UNDEF:"):
                        src.emit(f"raise Err({unbound!r})")
                break
            src.open(f"if {result} is UNDEF:")
            opened += 1
            if trap:
                src.emit(f"raise Err({unbound!r})")
                break
        else:
            src.emit(f"{result} = G.get({name!r}, MISSING)")
            with src.block(f"if {result} is MISSING:"):
                src.emit(f"raise Err({undefined!r})")
        for _ in range(opened):
            src.close()
        return result

    @staticmethod
    def _chain(
        ctx: _Ctx, name: str
    ) -> Tuple[List[Tuple[int, int, bool]], bool]:
        """The ``(depth, slot, trap)`` probes of a name read, and whether
        the globals dict ends the chain."""
        chain: List[Tuple[int, int, bool]] = []
        depth = 0
        walk = ctx.scope
        while walk is not None:
            slot = walk.index.get(name)
            if slot is not None:
                if slot < walk.nparams or (
                    depth == 0 and slot in ctx.assigned
                ):
                    # Always bound here: terminal, no check.
                    chain.append((depth, slot, False))
                    return chain, False
                trap = name in walk.trap
                chain.append((depth, slot, trap))
                if trap:
                    return chain, False
            walk = walk.parent
            depth += 1
        return chain, True

    def _direct_read(self, ctx: _Ctx, name: str) -> Optional[str]:
        """A Python expression reading ``name`` when the read can neither
        fail nor fall through: a bound slot, or a fixed builtin."""
        chain, has_global = self._chain(ctx, name)
        if len(chain) == 1 and not has_global and not chain[0][2]:
            depth, slot, _ = chain[0]
            return f"{ctx.slots_at(depth)}[{slot}]"
        if not chain and name in self.fixed:
            return self.const(self.fixed[name])
        return None

    def expr_ListLit(self, ctx: _Ctx, expr: N.ListLit) -> str:
        elts = [self.expr(ctx, e) for e in expr.elts]
        result = self.temp()
        ctx.src.emit(f"{result} = [{', '.join(elts)}]")
        return result

    def expr_TupleLit(self, ctx: _Ctx, expr: N.TupleLit) -> str:
        elts = [self.expr(ctx, e) for e in expr.elts]
        result = self.temp()
        trailing = "," if len(elts) == 1 else ""
        ctx.src.emit(f"{result} = ({', '.join(elts)}{trailing})")
        return result

    def expr_DictLit(self, ctx: _Ctx, expr: N.DictLit) -> str:
        src = ctx.src
        result = self.temp()
        src.emit(f"{result} = {{}}")
        for key_expr, value_expr in zip(expr.keys, expr.values):
            key = self.expr(ctx, key_expr)
            if not _is_literal(key):
                with src.block(f"if isinstance({key}, (list, dict)):"):
                    src.emit(
                        f"raise Err(\"unhashable type: '\" + "
                        f"type_name({key}) + \"'\")"
                    )
            value = self.expr(ctx, value_expr)
            src.emit(f"{result}[{key}] = {value}")
        return result

    def expr_BinOp(self, ctx: _Ctx, expr: N.BinOp) -> str:
        left = self.expr(ctx, expr.left)
        right = self.expr(ctx, expr.right)
        return self.binop(ctx, expr.op, left, right)

    def _int_guard(self, operands) -> Optional[List[str]]:
        """Conjuncts proving every operand an ``int`` (bools excluded);
        None when a literal operand rules the fast path out."""
        guard = []
        for operand in operands:
            if _int_value(operand) is not None:
                continue
            if _is_literal(operand):
                return None
            guard.append(f"type({operand}) is int")
        return guard

    def binop(
        self, ctx: _Ctx, op: str, left: str, right: str, ints: bool = False
    ) -> str:
        """Emit a binary operator, specialized at lowering time.

        Each fast op gets an inlined int×int path that reproduces the
        interpreter's exact accounting (one fuel burn, the same overflow
        and zero-division outcomes); anything else falls back to the
        borrowed ``binary_op`` *without* having burned, so fuel is charged
        exactly once either way. ``ints`` says both operands are already
        known to be ``int`` (the type conjuncts are dropped).
        """
        src = ctx.src
        result = self.temp()
        generic = f"{result} = binary_op({op!r}, {left}, {right})"
        guard = None
        if op in _FAST_BINOPS:
            guard = [] if ints else self._int_guard((left, right))
        if guard is not None and op in ("*", "/"):
            for operand in (left, right):
                value = _int_value(operand)
                if value is None:
                    guard.append(f"-CAP <= {operand} <= CAP")
                elif abs(value) > _INT_MAGNITUDE_CAP:
                    guard = None
                    break
        if guard is not None and op in ("//", "%", "/"):
            value = _int_value(right)
            if value is None:
                guard.append(f"{right} != 0")
            elif value == 0:
                guard = None
        if guard is None:
            src.emit(generic)
            return result
        with self.fast_path(ctx, guard, generic):
            src.emit(f"{result} = {left} {op} {right}")
        return result

    def expr_UnaryOp(self, ctx: _Ctx, expr: N.UnaryOp) -> str:
        src = ctx.src
        operand = self.expr(ctx, expr.operand)
        op = expr.op
        if op == "not":
            static = _static_truth(operand)
            if static is not None:
                return repr(not static)
            result = self.temp()
            src.emit(f"{result} = {self.falsity(operand)}")
            return result
        if op in ("-", "+"):
            value = _int_value(operand)
            if value is not None:
                folded = -value if op == "-" else value
                return self.expr(ctx, N.IntLit(value=folded))
            message = f"bad operand type for unary {op}: "
            result = self.temp()
            if op == "-":
                with src.block(f"if type({operand}) is int:"):
                    src.emit(f"{result} = -{operand}")
                with src.block(f"elif isinstance({operand}, bool):"):
                    src.emit(f"{result} = -int({operand})")
                with src.block(f"elif isinstance({operand}, float):"):
                    src.emit(f"{result} = -{operand}")
            else:
                with src.block(f"if isinstance({operand}, (int, float)):"):
                    src.emit(f"{result} = {operand}")
            with src.block("else:"):
                src.emit(f"raise Err({message!r} + type_name({operand}))")
            return result
        message = f"unknown unary operator {op}"
        src.emit(f"raise Err({message!r})")
        return "None"

    def expr_Compare(self, ctx: _Ctx, expr: N.Compare) -> str:
        left = self.expr(ctx, expr.left)
        right = self.expr(ctx, expr.right)
        return self.compare(ctx, expr.op, left, right)

    def compare(
        self, ctx: _Ctx, op: str, left: str, right: str, ints: bool = False
    ) -> str:
        """Emit a comparison; same once-only fuel rule as :meth:`binop`."""
        src = ctx.src
        result = self.temp()
        if op in ("==", "!="):
            # Equality has no type guard in the interpreter: inline fully.
            ctx.src.burn()
            src.emit(f"{result} = {left} {op} {right}")
            return result
        generic = f"{result} = compare_op({op!r}, {left}, {right})"
        guard = None
        if op in _ORDERED_OPS:
            guard = [] if ints else self._int_guard((left, right))
        if guard is None:
            src.emit(generic)
            return result
        with self.fast_path(ctx, guard, generic):
            src.emit(f"{result} = {left} {op} {right}")
        return result

    def truth(self, operand: str) -> str:
        """A Python condition: the interpreter's ``truthy(operand)``."""
        static = _static_truth(operand)
        if static is not None:
            return repr(static)
        return (
            f"({operand} is True or "
            f"({operand} is not False and truthy({operand})))"
        )

    def falsity(self, operand: str) -> str:
        """A Python condition: ``not truthy(operand)``."""
        static = _static_truth(operand)
        if static is not None:
            return repr(not static)
        return (
            f"({operand} is False or "
            f"({operand} is not True and not truthy({operand})))"
        )

    def expr_BoolOp(self, ctx: _Ctx, expr: N.BoolOp) -> str:
        src = ctx.src
        left = self.expr(ctx, expr.left)
        result = self.temp()
        src.emit(f"{result} = {left}")
        test = self.truth(left) if expr.op == "and" else self.falsity(left)
        with src.block(f"if {test}:"):
            right = self.expr(ctx.branch(), expr.right)
            src.emit(f"{result} = {right}")
        return result

    def expr_Index(self, ctx: _Ctx, expr: N.Index) -> str:
        src = ctx.src
        obj = self.variable(ctx, self.expr(ctx, expr.obj))
        index = self.expr(ctx, expr.index)
        result = self.temp()
        generic = f"{result} = get_index({obj}, {index})"
        # Sequences only: the borrowed get_index tries dicts first.
        guard = [f"type({obj}) in SEQUENCES"]
        value = _int_value(index)
        if value is None:
            if _is_literal(index):
                src.emit(generic)
                return result
            guard.append(f"type({index}) is int")
            bad = f"{index} < -len({obj}) or {index} >= len({obj})"
        elif value >= 0:
            bad = f"{index} >= len({obj})"
        else:
            bad = f"{index} < -len({obj})"
        with self.fast_path(ctx, guard, generic):
            with src.block(f"if {bad}:"):
                src.emit(
                    f"raise Err(type({obj}).__name__ + ' index out of range')"
                )
            src.emit(f"{result} = {obj}[{index}]")
        return result

    def expr_Slice(self, ctx: _Ctx, expr: N.Slice) -> str:
        src = ctx.src
        obj = self.variable(ctx, self.expr(ctx, expr.obj))
        with src.block(f"if not isinstance({obj}, (list, tuple, str)):"):
            src.emit(f"raise Err(type_name({obj}) + ' is not subscriptable')")
        result = self.temp()
        src.emit(f"{result} = {obj}[{self.slice_bounds(ctx, expr)}]")
        return result

    def slice_bounds(self, ctx: _Ctx, expr: N.Slice) -> str:
        """Emit ``lower:upper:step``; returns an operand holding the slice.

        Bound evaluation order matches the interpreter's ``_make_slice``:
        step first (for the zero check), then lower, then upper. All-literal
        bounds fold to one constant slice (a literal zero step stays
        dynamic so its error keeps its evaluation-time ordering).
        """
        bounds = []
        for sub in (expr.lower, expr.upper, expr.step):
            if sub is None:
                bounds.append(None)
            elif isinstance(sub, N.IntLit):
                bounds.append(sub.value)
            else:
                break
        else:
            if bounds[2] != 0:
                return self.const(slice(*bounds))
        step = self._slice_bound(ctx, expr.step)
        if step != "None" and _int_value(step) in (None, 0):
            with ctx.src.block(f"if {step} == 0:"):
                ctx.src.emit("raise Err('slice step cannot be zero')")
        lower = self._slice_bound(ctx, expr.lower)
        upper = self._slice_bound(ctx, expr.upper)
        return f"slice({lower}, {upper}, {step})"

    def _slice_bound(self, ctx: _Ctx, sub: Optional[N.Expr]) -> str:
        if sub is None:
            return "None"
        value = self.expr(ctx, sub)
        if _int_value(value) is not None:
            return value
        src = ctx.src
        bound = self.temp()
        src.emit(f"{bound} = {value}")
        with src.block(f"if isinstance({bound}, bool):"):
            src.emit(f"{bound} = int({bound})")
        with src.block(f"elif not isinstance({bound}, int):"):
            src.emit(
                "raise Err('slice indices must be integers, not ' + "
                f"type_name({bound}))"
            )
        return bound

    def expr_Attribute(self, ctx: _Ctx, expr: N.Attribute) -> str:
        obj = self.expr(ctx, expr.obj)
        result = self.temp()
        ctx.src.emit(f"{result} = bind_method({obj}, {expr.attr!r})")
        return result

    def expr_Call(self, ctx: _Ctx, expr: N.Call) -> str:
        func = expr.func
        if isinstance(func, N.Attribute):
            return self._method_call(ctx, func, expr.args)
        src = ctx.src
        callee = self.variable(ctx, self.expr(ctx, func))
        args = [self.expr(ctx, a) for a in expr.args]
        result = self.temp()
        generic = f"{result} = call_value({callee}, [{', '.join(args)}])"
        # Identity-guarded builtin fast path: only when the callee is a
        # plain name that statically resolves to the globals dict (no
        # local shadowing possible along the scope chain).
        expected = None
        if isinstance(func, N.Var) and _resolves_global(func.name, ctx.scope):
            expected = self.builtins.get(func.name)
        if expected is None:
            src.emit(generic)
            return result
        impl = f"{result} = {self.const(expected.fn)}({', '.join(args)})"
        # A builtin the module never rebinds needs no identity test.
        guard = []
        if func.name not in self.fixed:
            guard.append(f"{callee} is {self.const(expected)}")
        with self.fast_path(ctx, guard, generic):
            inline = _BUILTIN_INLINE.get((func.name, len(args)))
            # A negative collection bound makes even ``range(0)`` raise,
            # which the inline ``range`` guards do not reproduce.
            if inline is None or self.machine.max_collection < 0:
                src.emit(impl)
            else:
                guard, value = inline
                with src.block(f"if {guard.format(*args)}:"):
                    src.emit(f"{result} = {value.format(*args)}")
                with src.block("else:"):
                    src.emit(impl)
        return result

    def _method_call(
        self, ctx: _Ctx, func: N.Attribute, arg_exprs: Tuple[N.Expr, ...]
    ) -> str:
        """``obj.attr(args)``, dispatched inline on the receiver's exact
        type where an interpreter method table has ``attr``.

        Binding still happens before the arguments are evaluated whenever
        it can fail (the receiver has no inline entry), and the inline
        call burns once after them — the borrowed ``bind_method`` +
        ``call_value`` accounting.
        """
        src = ctx.src
        obj = self.expr(ctx, func.obj)
        attr = func.attr
        inline = [
            (type_name, table[attr])
            for type_name, table in _METHOD_TABLES
            if attr in table
        ]
        bound = self.temp()
        if inline:
            others = " and ".join(
                f"type({obj}) is not {type_name}" for type_name, _ in inline
            )
            with src.block(f"if {others}:"):
                src.emit(f"{bound} = bind_method({obj}, {attr!r})")
        else:
            src.emit(f"{bound} = bind_method({obj}, {attr!r})")
        args = [self.expr(ctx, a) for a in arg_exprs]
        result = self.temp()
        keyword = "if"
        for type_name, impl in inline:
            with src.block(f"{keyword} type({obj}) is {type_name}:"):
                ctx.src.burn()
                call_args = ", ".join(["m", obj] + args)
                src.emit(f"{result} = {self.const(impl)}({call_args})")
            keyword = "elif"
        generic = f"{result} = call_value({bound}, [{', '.join(args)}])"
        if inline:
            with src.block("else:"):
                src.emit(generic)
        else:
            src.emit(generic)
        return result

    def expr_IfExp(self, ctx: _Ctx, expr: N.IfExp) -> str:
        src = ctx.src
        test = self.expr(ctx, expr.test)
        result = self.temp()
        with src.block(f"if {self.truth(test)}:"):
            src.emit(f"{result} = {self.expr(ctx.branch(), expr.body)}")
        with src.block("else:"):
            src.emit(f"{result} = {self.expr(ctx.branch(), expr.orelse)}")
        return result

    def expr_ListComp(self, ctx: _Ctx, expr: N.ListComp) -> str:
        src = ctx.src
        iterable = self.expr(ctx, expr.iter)
        comp_names: set = set()
        _collect_target_names(expr.target, comp_names)
        comp_scope = _Scope(
            ctx.scope, tuple(sorted(comp_names)), trap=frozenset(), nparams=0
        )
        frame = self.temp("c")
        slots = f"{frame}s"
        undef = ", ".join(["UNDEF"] * len(comp_scope.index))
        src.emit(f"{frame} = Frame([{undef}], {ctx.frames[0][0]})")
        src.emit(f"{slots} = {frame}.slots")
        result = self.temp()
        item = self.temp()
        src.emit(f"{result} = []")
        comp = _Ctx(
            src, comp_scope, [(frame, slots)] + ctx.frames, ctx.loops + 1
        )
        with src.block(f"for {item} in iterate({iterable}):"):
            comp.src.burn()
            self.store(comp, expr.target, item)
            self._mark_assigned(comp, expr.target)
            for cond_expr in expr.conds:
                cond = self.expr(comp, cond_expr)
                src.emit(f"if {self.falsity(cond)}: continue")
            src.emit(f"{result}.append({self.expr(comp, expr.elt)})")
            with src.block(f"if len({result}) > MAXC:"):
                src.emit(f"check_size(len({result}))")
        return result

    def expr_Lambda(self, ctx: _Ctx, expr: N.Lambda) -> str:
        template = self.lower_function(
            "<lambda>", expr.params, (N.Return(value=expr.body),), ctx.scope
        )
        result = self.temp()
        ctx.src.emit(
            f"{result} = Closure({self.const(template)}, {ctx.frames[0][0]})"
        )
        return result

    # -- choice nodes --------------------------------------------------------

    def expr_ChoiceExpr(self, ctx: _Ctx, expr: ChoiceExpr) -> str:
        branch = self.choose(ctx, expr.cid, expr.arity)
        result = self.temp()
        for child, choice in zip(
            self.arms(ctx, branch, expr.arity), expr.choices
        ):
            ctx.src.assign(result, self.expr(child, choice))
        return result

    def expr_ChoiceCompare(self, ctx: _Ctx, expr: ChoiceCompare) -> str:
        return self._choice_op(ctx, expr, self.compare, "compare_op")

    def expr_ChoiceBinOp(self, ctx: _Ctx, expr: ChoiceBinOp) -> str:
        return self._choice_op(ctx, expr, self.binop, "binary_op")

    def _choice_op(self, ctx: _Ctx, expr, lower_op, generic_op: str) -> str:
        """An operator choice: one type test on the shared operands, then
        the ladder of ``int``-specialized operators; other operand types
        take the borrowed operator, picked from the choice's op tuple."""
        src = ctx.src
        branch = self.choose(ctx, expr.cid, expr.arity)
        left = self.expr(ctx, expr.left)
        right = self.expr(ctx, expr.right)
        result = self.temp()
        generic = (
            f"{result} = {generic_op}({self.const(expr.ops)}[{branch}], "
            f"{left}, {right})"
        )
        guard = self._int_guard((left, right))
        if guard is None:
            src.emit(generic)
            return result
        if guard:
            src.open(f"if {' and '.join(guard)}:")
        for child, op in zip(self.arms(ctx, branch, expr.arity), expr.ops):
            src.assign(result, lower_op(child, op, left, right, ints=True))
        if guard:
            src.close()
            with src.block("else:"):
                src.emit(generic)
        return result


# ---------------------------------------------------------------------------
# The compiled program
# ---------------------------------------------------------------------------


class CompiledProgram:
    """A module lowered to generated Python, runnable under hole assignments.

    API-compatible with both execution front-ends it replaces:

    - :meth:`call` mirrors ``Interpreter.call`` (fresh fuel and stdout,
      top-level statements executed once), and ``.fuel`` exposes the
      remaining budget for the verifier's step calibration;
    - :meth:`run` / :meth:`cube` mirror ``RecordingInterpreter`` —
      candidate switching is one pass over the assignment array, and
      modules with top-level state re-execute it per run exactly like a
      freshly constructed interpreter would.

    Top-level execution is lazy (first ``call``/``run``), so compiling a
    candidate space never raises on a program whose top level errors —
    the error surfaces per-run, as an outcome, matching the engines'
    interpreter-construction-per-run behavior.
    """

    def __init__(
        self,
        module: N.Module,
        fuel: int = DEFAULT_FUEL,
        max_collection: int = MAX_COLLECTION,
    ):
        self.module = module
        self.max_fuel = fuel
        self.stateful = any(
            not isinstance(stmt, N.FuncDef) for stmt in module.body
        )
        machine = Machine(fuel, max_collection)
        self.machine = machine
        lowering = _Lowering(machine)
        top = lowering.lower_top(module.body)
        self._top = lowering.build()[top]
        self._asg = lowering.asg
        self._zeros = [0] * len(lowering.asg)
        self._cid_slot = lowering.cid_slot
        #: Hole id → branch count, for the path forker's fan-out width.
        self.arities = lowering.cid_arity
        self.touched = lowering.touched
        self._builtins = lowering.builtins
        self._globals = machine.globals
        self._initialized = False

    @property
    def fuel(self) -> int:
        """Remaining fuel after the last run (Interpreter-compatible)."""
        return self.machine.fuel

    @property
    def assignment(self) -> Dict[int, int]:
        """The current hole assignment (non-default entries only)."""
        return {
            cid: self._asg[index]
            for cid, index in self._cid_slot.items()
            if self._asg[index] != 0
        }

    def set_assignment(self, assignment: Optional[Dict[int, int]]) -> None:
        """Select the candidate: one array write per hole, no recompile."""
        asg = self._asg
        asg[:] = self._zeros
        if assignment:
            cid_slot = self._cid_slot
            for cid, branch in assignment.items():
                index = cid_slot.get(cid)
                if index is not None:
                    asg[index] = branch

    def _exec_top_level(self) -> None:
        machine = self.machine
        machine.fuel = self.max_fuel
        machine.depth = 0
        machine.stdout = []
        machine.globals.clear()
        machine.globals.update(self._builtins)
        self._top(None)
        self._initialized = True

    # -- Interpreter-compatible API -----------------------------------------

    def call(self, name: str, args: tuple) -> RunResult:
        """Call global function ``name`` with ``args``; fresh fuel + stdout."""
        if not self._initialized:
            self._exec_top_level()
        machine = self.machine
        machine.fuel = self.max_fuel
        machine.stdout = stdout = []
        fn = self._globals.get(name, _MISSING)
        if fn is _MISSING:
            raise MPYRuntimeError(f"name '{name}' is not defined")
        machine.depth = 0
        try:
            value = machine.call_value(fn, list(map(clone_value, args)))
        except RecursionError:
            raise MPYRuntimeError("expression nesting too deep") from None
        return RunResult(value, tuple(stdout))

    # -- RecordingInterpreter-compatible API --------------------------------

    def run(
        self,
        name: str,
        args: tuple,
        assignment: Optional[Dict[int, int]] = None,
    ) -> RunResult:
        """Run one candidate; resets the touched-hole record first."""
        if assignment is not None:
            self.set_assignment(assignment)
        if self.stateful or not self._initialized:
            # Top-level state must be rebuilt under the new assignment,
            # exactly as constructing a fresh RecordingInterpreter does.
            self._exec_top_level()
        self.touched.clear()
        return self.call(name, args)

    def cube(self) -> Dict[int, int]:
        """The holes read by the last run, with the branches they took."""
        return dict(self.touched)

    # -- path-forker API ----------------------------------------------------

    def run_recorded(
        self,
        name: str,
        args: tuple,
        assignment: Optional[Dict[int, int]] = None,
    ) -> RunResult:
        """Run one path with a touched record covering the *whole* run.

        Unlike :meth:`run`, the record is cleared before top-level
        re-execution, so choices read while rebuilding module state are
        part of the cube — the completeness the exploration tables need
        (a stateful module's outcome can depend on top-level choices).
        On an error mid-run (including during top-level execution) the
        record still holds everything read up to the raise, which is
        exactly the failing path's cube.
        """
        if assignment is not None:
            self.set_assignment(assignment)
        self.touched.clear()
        if self.stateful or not self._initialized:
            self._exec_top_level()
        return self.call(name, args)


def compile_program(
    module: N.Module,
    fuel: int = DEFAULT_FUEL,
    max_collection: int = MAX_COLLECTION,
) -> CompiledProgram:
    """Lower ``module`` once; run it many times as generated Python."""
    return CompiledProgram(module, fuel=fuel, max_collection=max_collection)
