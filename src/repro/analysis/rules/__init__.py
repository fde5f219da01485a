"""Built-in rule set; importing this package registers every rule.

Per-module rules live in :mod:`autograd`, :mod:`hygiene`, :mod:`numeric`,
:mod:`perf` and :mod:`robustness`; whole-program rules are registered by
:mod:`concurrency` (fork-safety over inferred effects),
:mod:`repro.analysis.callgraph` (import/export graph),
:mod:`repro.analysis.aliasing` (cache-owned array escapes), and
:mod:`repro.analysis.ranges` (integer ranges/bit-widths).
"""

from repro.analysis.rules import autograd, hygiene, numeric  # noqa: F401
from repro.analysis.rules import concurrency, perf, robustness  # noqa: F401
from repro.analysis import aliasing, callgraph, ranges  # noqa: F401

__all__ = ["autograd", "hygiene", "numeric", "perf"]
