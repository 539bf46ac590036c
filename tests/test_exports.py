"""The package's public names."""

import poisson_bm


def test_every_exported_name_resolves():
    # a stale entry would only surface on ``from poisson_bm import *``
    missing = [name for name in poisson_bm.__all__ if not hasattr(poisson_bm, name)]
    assert not missing
