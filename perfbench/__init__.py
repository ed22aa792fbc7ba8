"""The repository benchmark: see ``perfbench/README.md`` and ``run.py``."""
