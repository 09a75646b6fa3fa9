"""Run FM under each pass loop, and watch every pass of either one.

The common FM configuration runs the compiled pass when it loads
(:mod:`repro.fm.native`) and the Python loop otherwise; the two must
give the same answers.  :func:`each_loop` runs a block under both,
switching to the Python loop by patching the loader's handle, and
:func:`watch_passes` sees the moves (with their gains), best prefix
and post-rollback state of every pass, whichever loop ran it.
"""

import pytest

from repro.fm import engine, native


def compiled_available() -> bool:
    return native.load() is not None


def each_loop():
    """Yield ``"c"`` (when the compiled pass loads), then ``"py"``
    with the loader handle patched to ``None`` for as long as the
    caller's block runs."""
    if compiled_available():
        yield "c"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_module", None)
        yield "py"


def watch_passes(monkeypatch, check) -> None:
    """Call ``check(state, moves, best_index)`` after every pass of
    either loop, once it has rolled back; ``moves`` is the pass's
    ``(module, side, gain)`` list."""
    c_pass = engine._c_pass
    rollback = engine._rollback_csr

    def c_hook(kernel, state, csr, fixed, moves, *rest):
        n, best_index, inserted = c_pass(kernel, state, csr, fixed, moves,
                                         *rest)
        check(state, list(zip(moves[0:3 * n:3], moves[1:3 * n:3],
                              moves[2:3 * n:3])), best_index)
        return n, best_index, inserted

    def py_hook(state, moves, best_index):
        rollback(state, moves, best_index)
        check(state, list(moves), best_index)

    monkeypatch.setattr(engine, "_c_pass", c_hook)
    monkeypatch.setattr(engine, "_rollback_csr", py_hook)


def state_lists(state) -> dict:
    """The state's integer bookkeeping as plain lists (the compiled
    pass keeps it in ``array`` buffers)."""
    return {"counts": [list(c) for c in state.counts],
            "spans": list(state.spans), "cut": state.cut_weight,
            "soed": state.soed_weight}
