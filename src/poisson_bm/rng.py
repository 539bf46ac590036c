"""Counter-based random stream derivation for reproducible parallel runs.

Each (master seed, epsilon index, replication index) tuple is packed
injectively into a 128-bit Philox key, so distinct tuples get distinct
keys and therefore independent counter-based streams with no shared
prefix. Streams depend only on the tuple, never on scheduling, which is
what makes worker-count-independent reports possible.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Philox's starting counter, 0, as the array its constructor would make of
# the default; handing this one over skips that conversion. Read-only, so
# no stream can move another's start.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


class _PhiloxKey(ISeedSequence):
    """Hands Philox its two 64-bit key words, low word first.

    ``Philox(key=k)`` would first build a ``SeedSequence`` from OS entropy
    and then discard it; Philox built from this seed source reads its key
    from ``generate_state(2, uint64)`` instead, with the same counter,
    buffer and draws.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # Philox asks for exactly (2, uint64); any other request would key
        # the stream wrongly, so it fails here instead
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"the Philox key is 2 uint64 words, asked for {n_words} x {np.dtype(dtype)}"
            )
        return self.words


def derive_stream(
    master_seed: int, epsilon_index: int, replication_index: int
) -> np.random.Generator:
    """Generator for one replication, keyed by the identifying tuple.

    master_seed is a 64-bit unsigned integer; the two indices must fit
    in 32 bits. The key layout is (seed << 64) | (eps << 32) | rep,
    an injection into the 128-bit Philox key space. The stream equals
    ``Generator(Philox(key=...))`` draw for draw; the key words and the
    zero counter are handed over directly, so no OS entropy is read and
    no counter is converted.
    """
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master_seed must fit in 64 bits, got {master_seed}")
    if not 0 <= epsilon_index <= _MASK32:
        raise ValueError(f"epsilon_index must fit in 32 bits, got {epsilon_index}")
    if not 0 <= replication_index <= _MASK32:
        raise ValueError(f"replication_index must fit in 32 bits, got {replication_index}")
    words = np.array(
        [(epsilon_index << 32) | replication_index, master_seed], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(_PhiloxKey(words), counter=_ZERO_COUNTER))
