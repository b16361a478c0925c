"""The repository's benchmark: one yardstick for the whole stack.

Run ``python -m bench.run`` from the repo root; see ``bench/README.md``.
"""
