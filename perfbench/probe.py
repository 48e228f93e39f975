"""Set-up probe: load problems, materialize verifiers, print ``ready``.

Run as ``python3 perfbench/probe.py PROBLEM...`` with ``src`` on the path.
The time from launch to the ``ready`` line is the in-process workloads'
set-up time: interpreter start, package import, problem and error-model
load, bounded-input enumeration and the compiled reference's outputs.
"""

import sys

from repro.engines import BoundedVerifier
from repro.problems import get_problem

if __name__ == "__main__":
    for name in sys.argv[1:]:
        problem = get_problem(name)
        problem.model  # parse and check the error model
        BoundedVerifier(problem.spec).inputs  # materialize
    print("ready", flush=True)
