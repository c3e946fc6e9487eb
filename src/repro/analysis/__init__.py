"""Static analysis for the repo's reproducibility invariants.

Every guarantee the framework sells — bit-for-bit Gibbs chains across
engine backends, incremental-vs-rebuild equality, checkpoint/resume
exactness, single-threaded-equivalent service interleaving — rests on
invariants that example-based tests can only sample:

* RNG threading (no global :mod:`random` / ``np.random`` draws, no
  wall-clock reads, no iteration over unordered sets on result paths);
* paired cache invalidation (every mutator of a derived cache's backing
  fields must invalidate or patch the cache);
* checkpoint completeness (every mutable ``__init__`` attribute of a
  checkpointed class is covered by ``state_dict`` or explicitly excluded);
* lock discipline (hosted sessions are only touched under their lock);
* API-contract consistency (``SpecError`` field paths name real spec
  fields).

:mod:`repro.analysis` turns those invariants into machine-checked lint
rules over the stdlib :mod:`ast`.  Entry points:

* ``python -m repro lint`` — the CLI gate (see ``docs/ANALYSIS.md``);
* :func:`repro.analysis.api.run_lint` — the programmatic surface;
* :mod:`repro.analysis.contracts` — the runtime-side decorators
  (:func:`~repro.analysis.contracts.mutates`,
  :func:`~repro.analysis.contracts.derived_cache`,
  :func:`~repro.analysis.contracts.requires_lock`) that declare the
  cache and lock contracts the rules verify.

The package is stdlib-only so the lowest layers of the framework can
import :mod:`repro.analysis.contracts` without cycles or dependencies.
"""

from repro.analysis.contracts import derived_cache, mutates, requires_lock
from repro.analysis.findings import Finding, LintReport, Severity

__all__ = [
    "Finding",
    "LintReport",
    "Severity",
    "derived_cache",
    "mutates",
    "requires_lock",
]
