"""Experiment drivers: one module per figure of the paper's evaluation.

Every driver returns plain data (lists of dataclasses / dicts) plus a
rendered ASCII table, so benchmarks, examples and the CLI share one code
path.  Scales are selected with the ``REPRO_SCALE`` environment variable
(``smoke`` / ``default`` / ``paper``).
"""
