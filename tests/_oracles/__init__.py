"""Frozen reference implementations the fast kernels in ``src/`` are tested against.

Each module holds code retired from ``src/`` verbatim, as plain functions.
Don't optimise them: their value is that they never change.
"""
