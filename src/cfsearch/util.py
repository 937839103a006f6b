"""Small shared helpers: seed fan-out, RNG coercion, float and file formats."""

from __future__ import annotations

import hashlib
import numbers
from typing import Callable

import numpy as np

from .errors import ConfigError


def child_seed(root_seed: int, tag: str) -> int:
    """Derive a per-module seed from the run seed and a module tag.

    The split is ``sha256("<root_seed>:<tag>")`` truncated to 63 bits, so
    adding a new consumer tag never perturbs the stream any existing tag
    sees.  Tags are short stable strings such as ``"pretrain"`` or
    ``"evolution"``.
    """
    digest = hashlib.sha256(f"{root_seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF


def as_rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Accept an integer seed or a ready Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
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


def config_number(value, kind: Callable[[object], float], key: str):
    """``kind(value)`` for a config value, or a ``ConfigError`` naming ``key``.

    An integer must be written as one, and a number as an integer or a
    float: a boolean or a string is refused, and so is a float where
    ``kind`` is ``int``, which would otherwise truncate.
    """
    wanted = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, wanted) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:
            pass
    what = "an integer" if kind is int else "a number"
    raise ConfigError(f"{key} must be {what}, got {value!r}")
