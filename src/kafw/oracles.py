"""Seeded, lazily-sampled ideal objects.

A random function F, a random permutation P, an ideal cipher IC (one
independent permutation per key), and the xor-restricted related-key
oracle RK[E_k](offset, block) = E_{k ^ offset}(block).

All randomness comes from one documented counter-based stream: the
64-bit output of BLAKE2b keyed by the oracle seed over the little-endian
packing of the query coordinates.  The same seed and the same query
sequence always reproduce the same transcript.  Nothing here is a
cryptographically strong randomness source; determinism is the point.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import blake2b

from .errors import DomainError, QueryBudgetExceeded, RedundantQuery

FORWARD = "forward"
BACKWARD = "backward"

_SEED_MASK = (1 << 64) - 1


@lru_cache(maxsize=256)
def _keyed_state(masked_seed: int):
    """BLAKE2b keyed by the seed, its key block already compressed; copy before use."""
    return blake2b(digest_size=8, key=masked_seed.to_bytes(8, "little"))


def stream64(seed: int, *parts: int) -> int:
    """Deterministic 64-bit value for (seed, parts); the package-wide stream.

    Copies a cached keyed state for the seed (the last 256 seeds are kept)
    instead of keying a fresh BLAKE2b on every call; the value is the same.
    """
    h = _keyed_state(seed & _SEED_MASK).copy()
    for part in parts:
        h.update((part & _SEED_MASK).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def derive_seed(seed: int, *parts) -> int:
    """Child seed for a named sub-stream; string parts are hashed as UTF-8."""
    h = blake2b(digest_size=8, key=(seed & _SEED_MASK).to_bytes(8, "little"))
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            h.update((part & _SEED_MASK).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


@dataclass
class TranscriptEntry:
    kind: str  # "f" or "rk"
    direction: str
    offset: int | None
    value_in: int
    value_out: int


def format_transcript(entries: list[TranscriptEntry], n: int) -> str:
    """One text line per query, in arrival order."""
    w = max(1, (n + 3) // 4)
    lines = []
    for e in entries:
        head = f"{e.kind} {e.direction}"
        if e.offset is not None:
            head += f" delta={e.offset:0{w}x}"
        lines.append(f"{head} in={e.value_in:x} out={e.value_out:x}")
    return "\n".join(lines)


class RandomFunctionOracle:
    """Lazily-sampled random function over n-bit words.

    Repeated queries return the same output; the counter advances only on
    first-time inputs.
    """

    def __init__(self, n: int, seed: int, transcript: list | None = None):
        self.n = n
        self.seed = seed
        self.table: dict[int, int] = {}
        self.query_count = 0
        self._transcript = transcript

    def query(self, x: int) -> int:
        if not 0 <= x < (1 << self.n):
            raise DomainError(f"input {x:#x} out of domain")
        y = self.table.get(x)
        if y is None:
            y = stream64(self.seed, x) & ((1 << self.n) - 1)
            self.table[x] = y
            self.query_count += 1
        if self._transcript is not None:
            self._transcript.append(TranscriptEntry("f", FORWARD, None, x, y))
        return y

    __call__ = query


class RandomPermutationOracle:
    """Lazily-sampled random permutation over `bits`-bit words.

    Below half load, a fresh output is drawn by rejection against the
    already-used range: candidate stream64(seed, tag, v, attempt) for
    attempt = 0, 1, ... (tag 0 forward, 1 backward).  From half load on,
    it is free[stream64(seed, tag, v, 0) % len(free)], the k-th smallest
    unused value.  Each direction keeps its sorted free list (`forward`
    the free outputs, `backward` the free inputs), built in O(N) the first
    time that direction samples at half load or more.  Every new pair
    then deletes its output from the forward list and its input from the
    backward list, whichever direction made it: one bisect and one O(N)
    memmove per built list, so a full fill costs O(N^2) word moves in C
    rather than O(N^2) Python steps.  Below half load no list exists and
    a fresh sample pays one truthiness test for them.  Forward and
    backward maps stay mutually inverse.
    """

    def __init__(self, bits: int, seed: int, transcript: list | None = None):
        self.bits = bits
        self.seed = seed
        self.forward_map: dict[int, int] = {}
        self.backward_map: dict[int, int] = {}
        self.query_count = 0
        self._transcript = transcript
        self._free: dict[int, list[int]] = {}  # tag -> sorted values unused in its direction

    @property
    def _size(self) -> int:
        return 1 << self.bits

    def _sample(self, tag: int, v: int, used: dict[int, int]) -> int:
        mask = self._size - 1
        if 2 * len(used) < self._size:
            attempt = 0
            while True:
                cand = stream64(self.seed, tag, v, attempt) & mask
                if cand not in used:
                    return cand
                attempt += 1
        free = self._free.get(tag)
        if free is None:
            free = self._free[tag] = [w for w in range(self._size) if w not in used]
        return free[stream64(self.seed, tag, v, 0) % len(free)]

    def _lookup(self, v: int, tag: int, own: dict, other: dict, direction: str) -> int:
        """One query in either direction: `own` maps v to its image, `other` back."""
        if not 0 <= v < self._size:
            raise DomainError(f"input {v:#x} out of domain")
        out = own.get(v)
        if out is None:
            out = self._sample(tag, v, other)
            own[v] = out
            other[out] = v
            if self._free:
                # out is now used by this direction, v by the other one.
                for t, w in ((tag, out), (1 - tag, v)):
                    free = self._free.get(t)
                    if free is not None:
                        del free[bisect_left(free, w)]
            self.query_count += 1
        if self._transcript is not None:
            self._transcript.append(TranscriptEntry("f", direction, None, v, out))
        return out

    def forward(self, x: int) -> int:
        return self._lookup(x, 0, self.forward_map, self.backward_map, FORWARD)

    def backward(self, y: int) -> int:
        return self._lookup(y, 1, self.backward_map, self.forward_map, BACKWARD)

    __call__ = forward


class IdealCipherOracle:
    """Family of independent random permutations over 2n-bit blocks, one per n-bit key."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        self.perms: dict[int, RandomPermutationOracle] = {}

    def _perm(self, key: int) -> RandomPermutationOracle:
        perm = self.perms.get(key)
        if perm is None:
            if not 0 <= key < (1 << self.n):
                raise DomainError("key out of range")
            perm = RandomPermutationOracle(2 * self.n, derive_seed(self.seed, "ic", key))
            self.perms[key] = perm
        return perm

    def encrypt_block(self, key: int, block: int) -> int:
        return self._perm(key).forward(block)

    def decrypt_block(self, key: int, block: int) -> int:
        return self._perm(key).backward(block)


class RelatedKeyOracle:
    """RK[E_k]: answers encryption and decryption under k ^ offset.

    `backend` is a CipherInstance or an IdealCipherOracle.  Every call
    advances the q_e counter; an exact repeat of an earlier (offset,
    direction, block) triple is rejected, matching the convention that
    distinguishers never make redundant queries.  The master key is not
    reachable through the query interface.
    """

    def __init__(
        self,
        key: int,
        backend,
        n: int,
        limit: int | None = None,
        transcript: list | None = None,
    ):
        self._key = key
        self._backend = backend
        self.n = n
        self.limit = limit
        self.query_count = 0
        self._seen: set[tuple[int, str, int]] = set()
        self._transcript = transcript

    def query(self, offset: int, direction: str, block: int) -> int:
        if direction == FORWARD:
            op = self._backend.encrypt_block
        elif direction == BACKWARD:
            op = self._backend.decrypt_block
        else:
            raise DomainError(f"unknown direction {direction!r}")
        if not 0 <= offset < (1 << self.n):
            raise DomainError("offset out of range")
        if not 0 <= block < (1 << (2 * self.n)):
            raise DomainError("block out of range")
        triple = (offset, direction, block)
        if triple in self._seen:
            raise RedundantQuery(f"repeated related-key query {triple}")
        if self.limit is not None and self.query_count >= self.limit:
            raise QueryBudgetExceeded(f"q_e budget {self.limit} exhausted")
        self._seen.add(triple)
        self.query_count += 1
        out = op(self._key ^ offset, block)
        if self._transcript is not None:
            self._transcript.append(TranscriptEntry("rk", direction, offset, block, out))
        return out

    def encrypt(self, offset: int, block: int) -> int:
        return self.query(offset, FORWARD, block)

    def decrypt(self, offset: int, block: int) -> int:
        return self.query(offset, BACKWARD, block)


@dataclass
class FunctionBudget:
    """Shared q_f accounting for an adversary's view of the round function(s).

    Counts fresh (oracle, direction, input) queries only: re-asking what the
    adversary already knows is free, matching the no-redundant-queries
    convention.
    """

    limit: int | None = None
    count: int = 0
    _seen: set = field(default_factory=set)

    def spend(self, key) -> None:
        if key in self._seen:
            return
        if self.limit is not None and self.count >= self.limit:
            raise QueryBudgetExceeded(f"q_f budget {self.limit} exhausted")
        self._seen.add(key)
        self.count += 1


class CountedFunction:
    """Adversary-side view of one round-function oracle, metered by a FunctionBudget."""

    def __init__(self, oracle, budget: FunctionBudget, index: int = 0):
        self._oracle = oracle
        self._budget = budget
        self._index = index

    def query(self, x: int) -> int:
        self._budget.spend((self._index, FORWARD, x))
        if isinstance(self._oracle, RandomPermutationOracle):
            return self._oracle.forward(x)
        return self._oracle.query(x)

    def query_backward(self, y: int) -> int:
        if not isinstance(self._oracle, RandomPermutationOracle):
            raise DomainError("backward queries need a permutation oracle")
        self._budget.spend((self._index, BACKWARD, y))
        return self._oracle.backward(y)

    __call__ = query
