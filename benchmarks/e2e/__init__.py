"""The repo benchmark: six lifecycle workloads measured end to end.

See ``README.md`` in this directory; the entry point is ``run.py``.
"""
