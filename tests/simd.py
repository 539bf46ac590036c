"""numpy's AVX-512 dispatch state, named in the failure message of a test
that compares bytes recorded on an AVX-512 host.

numpy's AVX-512 ``log`` and ``power`` give other last bits than its AVX2
ones, so a host that does not dispatch them writes other report bytes
with no defect in the program (ROADMAP finding 1).
"""

from __future__ import annotations


def avx512_dispatch() -> dict[str, bool] | None:
    """numpy's AVX-512 dispatch targets, each True where numpy dispatches
    it in this process; None where numpy does not say."""
    try:
        from numpy._core import _multiarray_umath as umath

        features, targets = umath.__cpu_features__, umath.__cpu_dispatch__
    except (ImportError, AttributeError):
        return None
    return {t: bool(features.get(t)) for t in targets if t == "X86_V4" or t.startswith("AVX512")}


def other_bytes(what: str) -> str:
    """The failure message of a byte comparison with bytes recorded on an
    AVX-512 host."""
    return (f"{what}: other bytes than the committed ones. numpy's AVX-512 dispatch in this "
            f"process: {avx512_dispatch()}. The committed bytes were made with it on; where "
            f"it is off or absent, other bytes are ROADMAP finding 1, not a regression.")
