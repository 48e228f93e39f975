"""Compiled execution backend for (M̃)PY programs.

The engines' hot loop is candidate evaluation: run a hole-rewritten tree
over hundreds of bounded inputs, for thousands of candidates. The
tree-walking interpreter pays a string-``getattr`` dispatch plus several
Python frames per AST node per input per candidate; this package lowers
the tree **once** to generated Python source (:mod:`.compiler`) — one
plain function per M̃PY function body, built with a single ``exec`` — so
repeated runs execute straight-line bytecode with no dispatch or
name-resolution work, and choice nodes become ``if``/``elif`` ladders
over a shared assignment array — switching candidates is an array write,
with zero recompilation.

Semantics are bit-identical to :mod:`repro.mpy.interp` (operator
semantics are the interpreter's own methods, borrowed by the
:class:`~repro.compile.runtime.Machine`; fuel, first-read cube order and
error messages are pinned by the differential suite in
``tests/compile/``). :mod:`.backend` selects between the two substrates
(``REPRO_BACKEND`` / CLI ``--backend`` escape hatch).
"""

from repro.compile.backend import (
    BACKENDS,
    COMPILED,
    ENV_VAR,
    INTERP,
    default_backend,
    resolve_backend,
    set_default_backend,
    using_backend,
)
from repro.compile.compiler import CompiledProgram, compile_program
from repro.compile.runtime import CompiledClosure, Frame, Machine


def make_executor(module, fuel, backend=None):
    """An ``Interpreter``-compatible executor (``.call`` + ``.fuel``).

    Used wherever a plain MPY module is executed repeatedly (the
    verifier's reference side, submission grading): returns a
    :class:`CompiledProgram` or a tree-walking ``Interpreter`` according
    to the selected backend.
    """
    if resolve_backend(backend) == COMPILED:
        return compile_program(module, fuel=fuel)
    from repro.mpy.interp import Interpreter

    return Interpreter(module, fuel=fuel)


__all__ = [
    "BACKENDS",
    "COMPILED",
    "INTERP",
    "ENV_VAR",
    "CompiledClosure",
    "CompiledProgram",
    "Frame",
    "Machine",
    "compile_program",
    "default_backend",
    "make_executor",
    "resolve_backend",
    "set_default_backend",
    "using_backend",
]
