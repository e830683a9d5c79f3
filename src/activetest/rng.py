"""Counter-based uniform random numbers.

Every draw is a pure function of the tuple (seed, rep, index, purpose), so
results never depend on evaluation order, vectorization chunking, or thread
scheduling.  The generator hashes the tuple words through a chain of
splitmix64 finalizers (full 64-bit avalanche per absorbed word) and maps the
top 53 bits k to the float (k + 1/2) / 2^53.  Below 0.5 the draws are those
half-step points; in [0.5, 1) float64 cannot hold them and rounds half to
even, so draws there are spaced 2^-52 apart.  The top value k = 2^53 - 1
would round to 1.0 and is clamped to the largest float below 1, so outputs
lie strictly inside (0, 1), which satisfies the [0, 1) contract and keeps
inverse-CDF samplers and query coins away from both corners.

The kernel makes that same stream with few temporaries: leading scalar
words (seed, and rep when it is one number) fold in Python ints, and the
array words are absorbed in place, into a state array and a scratch array
made when the first array word arrives and again at each later array word,
so a large draw allocates no array per operation.  The float tail shifts
that state array in place and converts it through its int64 view.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np

from .core import _whole
from .errors import DomainError

__all__ = ["DEFAULT_SEED", "uniforms"]

# Purpose tags.  Distinct tags yield independent streams for the same
# (seed, rep, index).
QUERY_DRAW = 0     # per-hypothesis query/no-query Bernoulli draw
SUBSET_DRAW = 1    # Fisher-Yates subset sampling (Random baseline)
MIXTURE_DRAW = 2   # null vs signal component pick
SIGNAL_DRAW = 3    # half-normal signal magnitude
PRIMARY_NOISE = 4  # observation noise on the primary statistic
PROXY_NOISE = 5    # independent noise component of the auxiliary proxy
POISSON_DRAW = 6   # auxiliary Poisson counts
BETA_DRAW = 7      # auxiliary Beta draws
# 8 and 9 are the test helper's Monte Carlo tags

DEFAULT_SEED = 42

_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_BELOW_ONE = np.nextafter(1.0, 0.0)
_GAMMA_U64, _MULT1_U64, _MULT2_U64 = np.uint64(_GAMMA), np.uint64(_MULT1), np.uint64(_MULT2)
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = map(np.uint64, (11, 27, 30, 31))


def _mix_int(z: int) -> int:
    # splitmix64 finalizer on one word, in Python ints
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK
    return z ^ (z >> 31)


def _mix_into(z: np.ndarray, scratch: np.ndarray) -> None:
    # the same finalizer on a uint64 array, in place; products wrap mod 2^64
    np.right_shift(z, _SHIFT30, scratch)
    np.bitwise_xor(z, scratch, z)
    np.multiply(z, _MULT1_U64, z)
    np.right_shift(z, _SHIFT27, scratch)
    np.bitwise_xor(z, scratch, z)
    np.multiply(z, _MULT2_U64, z)
    np.right_shift(z, _SHIFT31, scratch)
    np.bitwise_xor(z, scratch, z)


def _word(v) -> int:
    whole = _whole(v)
    if whole is None:
        raise DomainError(f"seed, rep, index and purpose must be whole numbers, got {v!r}")
    return whole & _MASK


def _words(x):
    # Python ints (possibly negative or >64-bit) and integer arrays both map
    # onto uint64 by wrapping; any other value must be a whole number.  A
    # 0-d word comes back as a Python int, any other as a uint64 array that
    # may be ``x`` itself or a view of it: it is only read.
    if type(x) is int:
        return x & _MASK
    arr = np.asarray(x)
    if not arr.ndim:
        return _word(arr.item())
    if arr.dtype == np.uint64:
        return arr
    if arr.dtype == np.int64:
        return arr.view(np.uint64)
    if arr.dtype.kind in "iu":
        return arr.astype(np.uint64)
    return np.asarray([_word(v) for v in arr.ravel().tolist()],
                      dtype=np.uint64).reshape(arr.shape)


def _state(seed, rep, index, purpose):
    """The hashed state of each draw: from s = 0, each word in turn, then
    the word 0, is absorbed as s = mix(s ^ (word + gamma)), mod 2^64.

    Leading 0-d words fold in Python ints.  From the first array word on, s
    is a uint64 array mixed in place, with a scratch array of its shape;
    both are made afresh at each later array word.  Returns a uint64
    array, or a numpy uint64 when every word is 0-d.
    """
    s, z = 0, None
    # every word is checked before any is absorbed
    for w in [_words(x) for x in (seed, rep, index, purpose)] + [0]:
        if type(w) is int:
            if z is None:
                s = _mix_int(s ^ ((w + _GAMMA) & _MASK))
                continue
            z ^= np.uint64((w + _GAMMA) & _MASK)
        elif z is None:
            z = w + _GAMMA_U64
            z ^= np.uint64(s)
            scratch = np.empty_like(z)
        else:
            z = z ^ (w + _GAMMA_U64)
            scratch = np.empty_like(z)
        _mix_into(z, scratch)
    return np.uint64(s) if z is None else z


def uniforms(seed, rep, index, purpose) -> np.ndarray:
    """Uniform draws in (0, 1), vectorized over broadcastable arguments.

    Any word may be an integer array; the result has the broadcast shape of
    all of them.  A column of reps (or purposes) against an index row gives
    each rep its own draws, bit for bit.
    """
    s = _state(seed, rep, index, purpose)
    # s is this call's own array (or a scalar, which >>= rebinds): shift it
    # in place; the 53 bits left read as int64
    s >>= _SHIFT11
    u = s.view(np.int64).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    if u.ndim:
        return np.minimum(u, _BELOW_ONE, out=u)
    return min(u, _BELOW_ONE)


# Never updated, only copied.  BLAKE2 mixes the digest length into its
# initial state before any data (RFC 7693, section 2.5), so a copy of this
# hasher gives the digests of a fresh blake2b(digest_size=8), for less work.
_ID_HASHER = blake2b(digest_size=8)


def _id_digest(hypothesis_id: str) -> bytes:
    hasher = _ID_HASHER.copy()
    hasher.update(hypothesis_id.encode("utf-8"))
    return hasher.digest()


def keys_for_ids(ids) -> np.ndarray:
    """Stable 64-bit stream indices for a sequence of ids, as a uint64 array.

    An id's key is the little-endian blake2b(digest_size=8) digest of its
    UTF-8 bytes; keying draws by id makes outputs invariant to row order.
    Each digest is copied into the array as it is made: no per-id Python
    int, and no list of digests held at once (~50 bytes per id).
    """
    digests = np.fromiter(map(_id_digest, ids), dtype="S8", count=len(ids))
    return digests.view("<u8")
