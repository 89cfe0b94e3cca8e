"""The ``--hash-mode`` names, from the schemes' own tables, for
parametrising tests.

``ACCEPTED[algorithm]`` holds the names a scheme takes
(``bench.SCHEMES[algorithm].hash_modes``) and ``NAMES`` every name some
scheme takes.  ``TREE_DESIGNS`` pairs each tree scheme with each of its
names; ``EVERY_PAIR`` with every name, for a test that runs its check where
the scheme takes the name and otherwise asserts, by :func:`refused`, that
the scheme's builder rejects it.
"""

import pytest

from splitgt import bench

ACCEPTED = {algorithm: tuple(scheme.hash_modes) for algorithm, scheme in bench.SCHEMES.items()}
NAMES = tuple(dict.fromkeys(name for names in ACCEPTED.values() for name in names))
TREE_SCHEMES = ("gamma", "rho", "noisy")
TREE_DESIGNS = [(scheme, name) for scheme in TREE_SCHEMES for name in ACCEPTED[scheme]]
EVERY_PAIR = [(scheme, name) for scheme in TREE_SCHEMES for name in NAMES]


def refused(scheme: str, hash_mode: str, build) -> bool:
    """False if ``scheme`` takes ``hash_mode``.  Otherwise True, once
    ``build()``, which builds a design of the scheme in that mode, has
    raised a ValueError naming it."""
    if hash_mode in ACCEPTED[scheme]:
        return False
    with pytest.raises(ValueError, match=f"hash mode '{hash_mode}'"):
        build()
    return True
