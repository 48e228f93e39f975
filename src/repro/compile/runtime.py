"""Runtime substrate of the compiled execution backend.

The compiler (:mod:`repro.compile.compiler`) lowers an M̃PY tree into
generated Python functions; this module provides the mutable state those
functions run against:

- :class:`Machine` — fuel, captured stdout, recursion depth, globals.
  Operator semantics (``binary_op``, ``compare_op``, indexing, method
  binding, truthiness, iteration) are *borrowed from the interpreter
  class verbatim* — the same function objects, bound to the machine — so
  the two backends cannot drift apart on value semantics, error messages
  or fuel accounting.
- :class:`Frame` — a lexical scope as a flat slot array (the compiler
  resolves names to ``(depth, slot)`` pairs statically, replacing the
  interpreter's per-lookup dict-chain walk).
- :class:`CompiledClosure` / :class:`FnTemplate` — function values: a
  body compiled once, instantiated per call with a fresh slot frame.

``UNDEF`` marks a declared-but-unassigned slot, reproducing Python's
"local variable referenced before assignment" rule.
"""

from __future__ import annotations

from repro.mpy.errors import MPYRuntimeError, OutOfFuel
from repro.mpy.interp import (
    MAX_RECURSION,
    BuiltinFunction,
    Interpreter,
    _type_name,
)


class _Undef:
    """Sentinel for a declared local that has not been assigned yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undef>"


UNDEF = _Undef()


class ReturnBox:
    """A ``return`` in flight: a compiled function body returns ``None``
    (fell off its end) or this box holding the value. One box per machine:
    every box is consumed by the nearest enclosing call before another
    return can be issued, so reuse is safe and keeps returns
    allocation-free."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = None


class Frame:
    """One lexical scope at runtime: a slot array plus the defining frame."""

    __slots__ = ("slots", "parent")

    def __init__(self, slots: list, parent: "Frame | None"):
        self.slots = slots
        self.parent = parent


class FnTemplate:
    """A function body compiled once; shared by every closure over it."""

    __slots__ = ("name", "nparams", "n_slots", "body")

    def __init__(self, name: str, nparams: int, n_slots: int, body):
        self.name = name
        self.nparams = nparams
        self.n_slots = n_slots
        self.body = body


class CompiledClosure:
    """A compiled function paired with its defining frame."""

    __slots__ = ("template", "frame")

    #: Marker consumed by the interpreter's ``_type_name`` so dynamic-error
    #: messages print "function", exactly as for tree-walker closures.
    _mpy_function = True

    def __init__(self, template: FnTemplate, frame: "Frame | None"):
        self.template = template
        self.frame = frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<closure {self.template.name}/{self.template.nparams}>"


class Machine:
    """Execution state for compiled programs.

    Deliberately duck-types the slice of :class:`Interpreter` that the
    operator semantics, builtins, and method tables touch (``fuel``,
    ``max_fuel``, ``max_collection``, ``stdout``, ``depth``), which is what
    lets the method borrowing below work unchanged.
    """

    __slots__ = (
        "fuel",
        "max_fuel",
        "max_collection",
        "stdout",
        "depth",
        "globals",
    )

    # Borrowed verbatim from the tree-walking interpreter: one source of
    # truth for value semantics and fuel accounting across both backends.
    _burn = Interpreter._burn
    _check_size = Interpreter._check_size
    _check_magnitude = Interpreter._check_magnitude
    truthy = Interpreter.truthy
    iterate = Interpreter.iterate
    binary_op = Interpreter.binary_op
    _binary_op = Interpreter._binary_op
    compare_op = Interpreter.compare_op
    get_index = Interpreter.get_index
    set_index = Interpreter.set_index
    bind_method = Interpreter.bind_method

    def __init__(self, fuel: int, max_collection: int):
        self.fuel = fuel
        self.max_fuel = fuel
        self.max_collection = max_collection
        self.stdout: list = []
        self.depth = 0
        self.globals: dict = {}

    def call_value(self, fn, args: list):
        """Call a function value; mirrors ``Interpreter.call_value``.

        Checked in the reverse of the interpreter's isinstance order
        (closure first) — the types are disjoint, and candidate loops
        call user functions at least as often as builtins.
        """
        if type(fn) is CompiledClosure:
            template = fn.template
            if len(args) != template.nparams:
                raise MPYRuntimeError(
                    f"{template.name}() takes {template.nparams} arguments, "
                    f"got {len(args)}"
                )
            self.depth += 1
            if self.depth > MAX_RECURSION:
                self.depth -= 1
                raise MPYRuntimeError("maximum recursion depth exceeded")
            frame = Frame(
                args + [UNDEF] * (template.n_slots - template.nparams),
                fn.frame,
            )
            try:
                signal = template.body(frame)
            finally:
                self.depth -= 1
            if signal is None:
                return None
            return signal.value  # the ReturnBox
        if isinstance(fn, BuiltinFunction):
            self.fuel -= 1
            if self.fuel < 0:
                raise OutOfFuel(self.max_fuel)
            return fn.fn(*args)
        raise MPYRuntimeError(f"{_type_name(fn)} object is not callable")
