from contextlib import contextmanager

import pytest

from ccx import nn


@pytest.fixture
def record_attention(monkeypatch):
    """Context manager that yields a list of (name, probs array), one entry
    per ``nn.attention`` call made inside it, read from the returned probs."""

    @contextmanager
    def record():
        sites = []
        real = nn.attention

        def attention(store, name, *args, **kwargs):
            out, probs = real(store, name, *args, **kwargs)
            sites.append((name, probs))
            return out, probs

        with monkeypatch.context() as m:
            m.setattr(nn, "attention", attention)
            yield sites

    return record
