"""Seeding conventions for everything randomized in this package.

All sampling goes through ``random.Random`` (Mersenne Twister) seeded
explicitly; nothing reads global RNG state.  Independent substreams for
trial i of a seeded run are derived as ``substream_seed(seed, i)``:
the 64-bit trial index is folded into the seed with the splitmix64
finalizer, so substreams are decorrelated, reproducible, and do not
depend on how trials are scheduled across workers.  Uniform draws
below a bound come from one stream (``draws``) that consumes the
generator exactly as ``randrange`` does, so a batch of draws costs no
Python frame per draw.  ``content_hash`` names the inputs of a report by
a digest of their canonical JSON.
"""
from __future__ import annotations

import json
import random
from itertools import repeat

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """One splitmix64 finalizer round on a 64-bit value."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(seed: int, index: int) -> int:
    """Seed for substream ``index`` of the run seeded with ``seed``."""
    if index < 0:
        raise ValueError("substream index must be non-negative")
    return splitmix64((seed & _MASK64) ^ ((index * _GOLDEN) & _MASK64))


def make_rng(seed: int) -> random.Random:
    """A fresh deterministic generator for the given 64-bit seed."""
    return random.Random(seed & _MASK64)


def draws(seed: int, bound: int):
    """The endless stream of ``make_rng(seed).randrange(bound)`` draws,
    bound >= 1: one ``getrandbits(bound.bit_length())`` per try, a try of
    bound or more rejected, as ``randrange`` does it."""
    return filter(bound.__gt__, map(make_rng(seed).getrandbits, repeat(bound.bit_length())))


def content_hash(payload: dict) -> str:
    """Stable sha256 of a canonical JSON rendering, for self-describing output."""
    # hashlib loads OpenSSL, which only hashing needs
    import hashlib

    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
