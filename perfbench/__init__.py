"""The Raqlet benchmark: four workloads measured end to end and per layer.

Entry point: ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
