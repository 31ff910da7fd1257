"""Membership and witnesses for integers that are products of factorials > 1.

An integer N != 0 belongs to the target set when |N| = m_1! m_2! ... m_k!
with 1 < m_1 <= ... <= m_k (k = 0, the empty product, certifies |N| = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, ZeroInput

MEMO_CUTOFF = 1 << 64
# the memo is emptied when full, so a long-running process stays bounded
MEMO_MAX_ENTRIES = 1 << 17

_member_memo: dict[int, bool] = {}


@dataclass(frozen=True)
class PFWitness:
    sign: int
    args: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")
        if any(a < 2 for a in self.args):
            raise DomainError("factorial arguments must be >= 2")
        if list(self.args) != sorted(self.args):
            raise DomainError("factorial arguments must be nondecreasing")

    def product(self) -> int:
        out = self.sign
        for a in self.args:
            out *= math.factorial(a)
        return out


def _factorials_upto(n: int) -> list[tuple[int, int]]:
    """(m, m!) pairs with 2 <= m and m! <= n."""
    out = []
    f, m = 2, 2
    while f <= n:
        out.append((m, f))
        m += 1
        f *= m
    return out


def _is_member(n: int) -> bool:
    # n >= 1, sign already stripped
    if n == 1:
        return True
    if n % 2:
        return False
    cached = _member_memo.get(n)
    if cached is not None:
        return cached
    result = False
    for _, f in _factorials_upto(n):
        if n % f == 0 and _is_member(n // f):
            result = True
            break
    if n < MEMO_CUTOFF:
        if len(_member_memo) >= MEMO_MAX_ENTRIES:
            _member_memo.clear()
        _member_memo[n] = result
    return result


def pf_member(n: int) -> bool:
    """True iff |n| is a product of factorials each > 1 (|n| = 1 included)."""
    if n == 0:
        raise ZeroInput("0 is not eligible")
    return _is_member(abs(n))


def pf_decompose(n: int, limit: int = 16) -> list[PFWitness]:
    """Distinct witnesses in lexicographic order of args, up to ``limit``."""
    if n == 0:
        raise ZeroInput("0 is not eligible")
    if limit < 1:
        raise DomainError("limit must be positive")
    sign = 1 if n > 0 else -1
    target = abs(n)
    out: list[PFWitness] = []

    def dfs(rem: int, min_m: int, prefix: list[int]):
        if len(out) >= limit:
            return
        if rem == 1:
            out.append(PFWitness(sign=sign, args=tuple(prefix)))
            return
        for m, f in _factorials_upto(rem):
            if m < min_m:
                continue
            if rem % f == 0 and _is_member(rem // f):
                prefix.append(m)
                dfs(rem // f, m, prefix)
                prefix.pop()
                if len(out) >= limit:
                    return

    if target == 1:
        return [PFWitness(sign=sign, args=())]
    dfs(target, 2, [])
    return out


# keyed by 2 nu_2 + 1, which stays small on the terms a search meets
@lru_cache(maxsize=64)
def _odd_primorial(k: int) -> int:
    """Product of the odd primes <= k (Eratosthenes)."""
    composite = bytearray(k + 1)
    out = 1
    for p in range(3, k + 1, 2):
        if not composite[p]:
            out *= p
            composite[p * p :: 2 * p] = b"\x01" * len(range(p * p, k + 1, 2 * p))
    return out


def _strip(odd: int, g: int) -> int:
    """``odd`` with every prime factor of the squarefree ``g | odd`` divided out.

    Round i divides by each prime of g to the power min(2^i, what is left), so
    a prime power p^e goes in O(log e) rounds; g reaches 1 exactly when no
    prime of the first g divides ``odd`` any more.
    """
    while g > 1:
        odd //= g
        g = math.gcd(odd, g * g)
    return odd


# the certificates of pf_fast_reject, in the order it tries them
REJECT_REASONS = ("odd", "size", "rough")


def _size_bits(v: int) -> int:
    """The bit length from which an N with nu_2(N) = v >= 1 is too large to be
    a member: ((2v+1)!)^v < 2^(v bl((2v+1)!)) <= N once bl(N) >= this."""
    return v * math.factorial(2 * v + 1).bit_length() + 1


# _size_bits for every nu_2 that the low 64 bits of an even integer show; the
# search settles most of its even terms by this table alone
_SIZE_BITS = {v: _size_bits(v) for v in range(1, 64)}


def pf_fast_reject(n: int):
    """Cheap certificate that |n| cannot be a factorial product, or None.

    Any witness for N with v = nu_2(N) has at most v factors (each m! with
    m >= 2 is even) and every argument m satisfies nu_2(m!) >= (m - 1) / 2,
    hence m <= 2v + 1. So the reasons are "odd" (v = 0), "size"
    (N > ((2v+1)!)^v) and "rough" (an odd prime factor above 2v + 1, which
    no member has: every prime factor of m_1! ... m_k! is at most the largest
    m_i <= 2v + 1).

    The first "size" test reads only bit lengths: bl(N) >= `_SIZE_BITS[v]`
    (`_size_bits(v)` for v >= 64), the table that `search` also reads off the
    residues of its even terms; every exact even term it builds comes here
    with no test of its own.
    """
    # abs copies a negative n once; a bitwise op on a negative int would copy
    # all of it every time (two's complement), and abs of a positive n is free
    m = abs(n)
    if m <= 1:
        raise DomainError("fast reject expects |n| > 1")
    if m & 1:  # reads one digit; m % 2 reads them all
        return "odd"
    low = m & 0xFFFF_FFFF_FFFF_FFFF  # nu_2 from the low 64 bits; m & -m copies m
    v = ((low & -low) if low else (m & -m)).bit_length() - 1
    bits = _SIZE_BITS[v] if low else _size_bits(v)
    if m.bit_length() >= bits:
        return "size"
    if bits - 1 <= 4 * m.bit_length() + 64:
        # exact comparison is affordable here
        if m > math.factorial(2 * v + 1) ** v:
            return "size"
    # an odd part <= 2v + 1 has no prime factor above it
    odd = m >> v
    if odd > 2 * v + 1 and _strip(odd, math.gcd(odd, _odd_primorial(2 * v + 1))) > 1:
        return "rough"
    return None


def clear_member_cache():
    _member_memo.clear()
