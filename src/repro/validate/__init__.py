"""repro.validate — differential oracle, invariant auditor, and the
validation harness tying them together.

Three layers:

* :mod:`repro.validate.oracle` — a deliberately slow, dict-based reference
  implementation of the LSS store (no NumPy) that replays the same traces
  through the same placement policies.
* :mod:`repro.validate.audit` — a catalogue of named cross-structure
  invariants and a cadence-driven
  :class:`~repro.validate.audit.InvariantAuditor` hook for the fast store.
* :mod:`repro.validate.differential` — a sweep harness that replays traces
  through both implementations and diffs mappings and statistics.

The package re-exports nothing: a replay process that audits its stores
imports :mod:`repro.validate.audit` alone, not the oracle.
"""
