"""Kernel selection: compiled extension if importable, else pure Python.

Set BURNSIDE_PURE_PYTHON=1 to force the fallback (benchmarks/bench_kernels.py
does, to time both backends). ``IMPLEMENTATION`` names the active backend.

``build_index``, ``reduce_word`` and ``free_reduce_word`` come from the
active backend. The rule automaton itself (``automaton``, read by
``append_word`` and the normal-form census in ``rewrite``) is always the
pure one; under the pure backend it is the reduction index itself.
"""

from __future__ import annotations

import os

from . import _purekernels

if os.environ.get("BURNSIDE_PURE_PYTHON") == "1":
    _impl = _purekernels

    IMPLEMENTATION = "python"
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]

        IMPLEMENTATION = "c"
    except ImportError:
        _impl = _purekernels

        IMPLEMENTATION = "python"

build_index = _impl.build_index
reduce_word = _impl.reduce_word
free_reduce_word = _impl.free_reduce_word
append_word = _purekernels.append_word


def automaton(index, rules, num_symbols):
    """The pure rule automaton of ``rules``, given their reduction index."""
    if isinstance(index, _purekernels.RuleIndex):
        return index
    return _purekernels.build_index(rules, num_symbols)
