"""Count the eigensolves a module makes, for tests that pin how many."""


def counted_eigensolves(monkeypatch, module):
    """The k of every `smallest_eigenpairs` call `module` makes from now on."""
    calls, real = [], module.smallest_eigenpairs

    def counting(lap, k):
        calls.append(k)
        return real(lap, k)
    monkeypatch.setattr(module, "smallest_eigenpairs", counting)
    return calls
