"""Test doubles shared by the test modules: a spy on a package function,
dsyevr reporting a failure, the CLI's exit code however it exits, and the
peak memory a call allocates."""

import tracemalloc

import fsgl.spectral
from fsgl.cli import cli_main


def spy(monkeypatch, name, record, *modules):
    """Replace `name` in each of `modules`, all bound to one function, by a
    wrapper that runs it and then appends `record(result, *args)` to the
    list returned."""
    calls, real = [], getattr(modules[0], name)

    def spying(*args):
        result = real(*args)
        calls.append(record(result, *args))
        return result
    for module in modules:
        monkeypatch.setattr(module, name, spying)
    return calls


def counted_eigensolves(monkeypatch, module):
    """The k of every `smallest_eigenpairs` call `module` makes from now on."""
    return spy(monkeypatch, "smallest_eigenpairs", lambda state, lap, k: k, module)


def patch_syevr(monkeypatch, info=None, short=0):
    """Make `fsgl.spectral` call a dsyevr that runs the real one, then reports
    `info` (if given) and `short` fewer eigenvalues found. Returns the k
    of each call."""
    calls, real = [], fsgl.spectral._SYEVR

    def syevr(*args, **kwargs):
        w, z, m, isuppz, real_info = real(*args, **kwargs)
        calls.append(kwargs["iu"])
        return w, z, m - short, isuppz, real_info if info is None else info
    monkeypatch.setattr(fsgl.spectral, "_SYEVR", syevr)
    return calls


def exit_code(argv):
    """`cli_main(argv)`'s return value, or the code of the SystemExit it raises."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


def traced_peak(build):
    """build()'s result, and the peak bytes tracemalloc sees while it runs."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
