"""Deterministic random-number-generator plumbing.

Every stochastic component in the library receives an explicit
:class:`numpy.random.Generator`.  To keep experiments reproducible while still
letting subsystems draw independently, generators are *derived* from a parent
seed plus a stable string key rather than shared or re-seeded ad hoc.

:func:`derive_rng` builds one such generator, at ~27 µs a call.  Code that
needs thousands of streams at once (one per page visit, per publisher, per
compiled page) seeds them in batch instead: :func:`_seed_states` replicates
``derive_rng``'s ``SeedSequence`` mixing and PCG64 seeding as ``uint32`` /
``uint64`` array arithmetic over :func:`_key_entropy`'s words,
:func:`_mul128_add` / :func:`_output_doubles` step all the streams in
lockstep, and :func:`_activator` moves one reusable generator to any of the
resulting states for the draws that cannot be vectorized.  :func:`_pick` and
:func:`_swr` replace ``Generator.choice(p=...)`` over a CDF built by
:func:`_cdf`.  Every helper is asserted bit-identical to numpy, values and
stream state both, by ``tests/test_columnar_samplers.py`` and
``tests/test_batch_seeding.py``.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

__all__ = ["derive_rng", "stable_hash", "fast_uniform"]


def fast_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """Scalar ``rng.uniform(low, high)`` without the numpy dispatch overhead.

    ``Generator.uniform`` computes ``low + (high - low) * next_double`` in C;
    evaluating the same expression on ``rng.random()`` (the same draw from
    the same stream) produces the bit-identical float roughly 3x faster for
    scalars.  Exactness is asserted by ``tests/test_profiles.py``, so hot
    paths may substitute this freely without perturbing any derived stream.
    """
    return low + (high - low) * float(rng.random())


def stable_hash(*parts: object) -> int:
    """Return a stable 64-bit hash of the given parts.

    Python's builtin ``hash`` is randomised per process for strings, so it
    cannot be used to derive reproducible seeds.  This uses blake2b over the
    ``repr`` of each part instead.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")


def derive_rng(seed: int, *keys: object) -> np.random.Generator:
    """Derive an independent generator from a base seed and a key path.

    The same ``(seed, *keys)`` tuple always yields the same generator state,
    and distinct key paths yield statistically independent streams.

    >>> a = derive_rng(7, "partners", "criteo")
    >>> b = derive_rng(7, "partners", "criteo")
    >>> float(a.random()) == float(b.random())
    True
    """
    mixed = np.random.SeedSequence([seed & 0xFFFFFFFF, stable_hash(*keys) & 0xFFFFFFFF])
    return np.random.default_rng(mixed)


# ---------------------------------------------------------------------------
# Batch seeding and stepping
#
# Constants from numpy's SeedSequence (entropy hashing / pool mixing) and the
# PCG64 LCG multiplier.

_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MULT_HI = np.uint64(2549297995355413924)
_MULT_LO = np.uint64(4865540595714422341)
_MASK32 = np.uint64(0xFFFFFFFF)
_U32_16 = np.uint32(16)
_U64_1 = np.uint64(1)
_U64_11 = np.uint64(11)
_U64_32 = np.uint64(32)
_U64_58 = np.uint64(58)
_U64_63 = np.uint64(63)
_U64_64 = np.uint64(64)
_DOUBLE_SCALE = 2.0 ** -53


def _mul128_add(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step, elementwise: ``state = state * MULT + inc`` mod 2^128.

    128-bit values are carried as ``(hi, lo)`` uint64 array pairs; the
    multiply is schoolbook over 32-bit limbs so every partial product fits a
    uint64 without losing carries.
    """
    with np.errstate(over="ignore"):
        a0 = lo & _MASK32
        a1 = lo >> _U64_32
        b0 = _MULT_LO & _MASK32
        b1 = _MULT_LO >> _U64_32
        p00 = a0 * b0
        p01 = a0 * b1
        p10 = a1 * b0
        p11 = a1 * b1
        mid = (p00 >> _U64_32) + (p01 & _MASK32) + (p10 & _MASK32)
        new_lo = (p00 & _MASK32) | ((mid & _MASK32) << _U64_32)
        carry = (mid >> _U64_32) + (p01 >> _U64_32) + (p10 >> _U64_32)
        new_hi = p11 + carry + lo * _MULT_HI + hi * _MULT_LO
        new_lo2 = new_lo + inc_lo
        new_hi = new_hi + inc_hi + (new_lo2 < new_lo).astype(np.uint64)
        return new_hi, new_lo2


def _output_doubles(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The XSL-RR output of each (post-step) state, as ``random()`` doubles."""
    with np.errstate(over="ignore"):
        x = hi ^ lo
        rot = hi >> _U64_58
        out = (x >> rot) | (x << ((_U64_64 - rot) & _U64_63))
        return (out >> _U64_11) * _DOUBLE_SCALE


def _seed_states(
    seed: int, entropy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch-replicate ``default_rng(SeedSequence([seed, e]))`` per entropy word.

    Returns ``(state_hi, state_lo, inc_hi, inc_lo)`` uint64 arrays holding
    each stream's post-seeding PCG64 state — exactly the state a fresh
    ``derive_rng`` generator starts from.
    """
    n = entropy.shape[0]
    with np.errstate(over="ignore"):
        words = np.zeros((4, n), dtype=np.uint32)
        words[0] = np.uint32(seed & 0xFFFFFFFF)
        words[1] = entropy
        pool = np.zeros((4, n), dtype=np.uint32)
        hashconst = np.full(n, _INIT_A, dtype=np.uint32)

        def hashed(value: np.ndarray) -> np.ndarray:
            nonlocal hashconst
            value = value ^ hashconst
            hashconst = hashconst * _MULT_A
            value = value * hashconst
            return value ^ (value >> _U32_16)

        for i in range(4):
            pool[i] = hashed(words[i])
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    mixed = pool[dst] * _MIX_MULT_L - hashed(pool[src]) * _MIX_MULT_R
                    pool[dst] = mixed ^ (mixed >> _U32_16)

        out32 = np.zeros((8, n), dtype=np.uint64)
        hashconst_b = np.full(n, _INIT_B, dtype=np.uint32)
        for i in range(8):
            value = pool[i % 4] ^ hashconst_b
            hashconst_b = hashconst_b * _MULT_B
            value = value * hashconst_b
            out32[i] = value ^ (value >> _U32_16)

        val = [out32[2 * j] | (out32[2 * j + 1] << _U64_32) for j in range(4)]
        # initstate = val0:val1, initseq = val2:val3 (big-halves first);
        # inc = (initseq << 1) | 1, state = (inc + initstate) * MULT + inc.
        inc_lo = (val[3] << _U64_1) | _U64_1
        inc_hi = (val[2] << _U64_1) | (val[3] >> _U64_63)
        t_lo = val[1] + inc_lo
        t_hi = val[0] + inc_hi + (t_lo < val[1]).astype(np.uint64)
    hi, lo = _mul128_add(t_hi, t_lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _key_entropy(keys: Sequence[tuple]) -> np.ndarray:
    """The second ``SeedSequence`` entropy word of ``derive_rng(seed, *key)``, per key.

    Keys must hold the objects ``derive_rng`` would be called with:
    :func:`stable_hash` hashes ``repr``, so ``np.int64(1)`` is not ``1``.
    """
    return np.fromiter(
        (stable_hash(*key) & 0xFFFFFFFF for key in keys), dtype=np.uint32, count=len(keys)
    )


def _activator() -> Callable[[int, int, int, int], np.random.Generator]:
    """One reusable generator, and a function that moves it to any PCG64 state.

    ``activate(state_hi, state_lo, inc_hi, inc_lo)`` takes Python ints (the
    ``tolist()`` of :func:`_seed_states`' arrays), assigns the full state dict
    with ``has_uint32 = 0`` (~1.5 µs, against ~27 µs for a fresh
    :func:`derive_rng`) and returns the generator, which then draws exactly
    what a fresh generator in that state would.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    bit_generator = gen.bit_generator
    template: dict = {
        "bit_generator": "PCG64",
        "state": {"state": 0, "inc": 0},
        "has_uint32": 0,
        "uinteger": 0,
    }
    inner = template["state"]

    def activate(state_hi: int, state_lo: int, inc_hi: int, inc_lo: int) -> np.random.Generator:
        inner["state"] = (state_hi << 64) | state_lo
        inner["inc"] = (inc_hi << 64) | inc_lo
        bit_generator.state = template
        return gen

    return activate


# ---------------------------------------------------------------------------
# Weighted choice over a precomputed CDF


def _cdf(weights: Sequence[float]) -> tuple[list[float], list[float]]:
    """``(p, cdf)`` of ``weights`` as ``Generator.choice(p=w / w.sum())`` builds them.

    ``p`` is ``w / w.sum()`` and ``cdf`` is its ``cumsum`` divided by its
    last element, both as lists for :func:`_pick` and :func:`_swr`.
    """
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return p.tolist(), cdf.tolist()


def _pick(gen: np.random.Generator, cdf: list[float]) -> int:
    """``int(gen.choice(len(p), p=p))`` over ``p``'s :func:`_cdf`: one ``random()``."""
    return bisect_right(cdf, gen.random())


def _swr(gen, p_list: list, cdf_list: list, size: int) -> list:
    """``gen.choice(len(p), size=size, replace=False, p=p)`` over a precomputed CDF.

    Stream consumption is identical — the only RNG calls are the same
    batched ``gen.random(k)`` draws — and every float operation repeats
    numpy's algorithm in the same IEEE order: ``bisect_right`` is
    ``searchsorted(side="right")``, the per-batch first-occurrence dedup is
    ``np.unique``'s sorted-index take, the redraw loop's running sum and
    elementwise division are ``np.cumsum`` (sequential for float64) and
    ``/= cdf[-1]``.  The popularity-skewed heads collide often, so the
    redraw loop is hot too; keeping both halves allocation-free beats the
    array version on these tiny pools.
    """
    chosen = [bisect_right(cdf_list, x) for x in gen.random(size).tolist()]
    if size == 1:
        return chosen
    seen = set()
    uniq = []
    for value in chosen:
        if value not in seen:
            seen.add(value)
            uniq.append(value)
    if len(uniq) == size:
        return chosen
    weights = list(p_list)
    while len(uniq) < size:
        draws = gen.random(size - len(uniq)).tolist()
        for index in uniq:
            weights[index] = 0.0
        total = 0.0
        cdf = []
        for weight in weights:
            total += weight
            cdf.append(total)
        cdf = [value / total for value in cdf]
        batch_seen = set()
        for value in [bisect_right(cdf, x) for x in draws]:
            if value not in batch_seen:
                batch_seen.add(value)
                uniq.append(value)
    return uniq
