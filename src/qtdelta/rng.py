"""Deterministic splittable random streams.

Every randomized routine takes one integer seed and derives named child
streams from it, so a single CLI seed reproduces the whole run.
"""

from __future__ import annotations

import random
from fractions import Fraction


def derive(seed, *labels) -> random.Random:
    # hashlib loads OpenSSL: only commands that draw pay for it
    import hashlib

    key = ":".join([str(int(seed))] + [str(label) for label in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def rational(rng: random.Random, nonzero=False) -> Fraction:
    while True:
        num = rng.randint(-3, 3)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, 3))
