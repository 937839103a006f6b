"""Small shared helpers: seed fan-out, RNG coercion, float and file formats."""

from __future__ import annotations

import hashlib

import numpy as np


def child_seed(root_seed: int, tag: str) -> int:
    """Derive a per-module seed from the run seed and a module tag.

    The split is ``sha256("<root_seed>:<tag>")`` truncated to 63 bits, so
    adding a new consumer tag never perturbs the stream any existing tag
    sees.  Tags are short stable strings such as ``"pretrain"`` or
    ``"evolution"``.
    """
    digest = hashlib.sha256(f"{root_seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF


def as_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Accept an integer seed, a ready Generator, or None for fresh entropy."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if seed_or_rng is None:
        return np.random.default_rng()
    return np.random.default_rng(int(seed_or_rng))


def format_float(x: float) -> str:
    """Shortest round-trip decimal form, used by every text artifact."""
    return repr(float(x))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
