"""The grading stack's benchmark: one command, the ``fig2`` and ``table1`` workloads."""
