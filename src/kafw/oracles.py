"""Seeded, lazily-sampled ideal objects.

A random function F, a random permutation P, an ideal cipher IC (one
independent permutation per key), and the xor-restricted related-key
oracle RK[E_k](offset, block) = E_{k ^ offset}(block).

All randomness comes from one documented counter-based stream: the
64-bit output of BLAKE2b keyed by the oracle seed over the little-endian
packing of the query coordinates.  The same seed and the same query
sequence always reproduce the same answers.  Nothing here is a
cryptographically strong randomness source; determinism is the point.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import blake2b
from itertools import filterfalse, repeat
from typing import Callable

from .errors import DomainError, QueryBudgetExceeded, RedundantQuery

FORWARD = "forward"
BACKWARD = "backward"

_SEED_MASK = (1 << 64) - 1
_PACK1 = struct.Struct("<Q").pack  # one part below 2^64, as _digest writes it
_PACK3 = struct.Struct("<QQQ").pack  # three parts below 2^64, as _digest writes them


def _keyed(seed: int):
    """BLAKE2b-64 keyed by the seed's low 64 bits, little-endian."""
    return blake2b(digest_size=8, key=(seed & _SEED_MASK).to_bytes(8, "little"))


def _digest(h, parts) -> int:
    """h's 64-bit value after absorbing parts: an int as its low 64 bits,
    little-endian, a str as UTF-8.  With `_keyed`, the stream's one byte format."""
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else (part & _SEED_MASK).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def _digests(state, values: list[int]) -> list[bytes]:
    """The digest of a copy of `state` after absorbing each v in [0, 2^64),
    as `_digest` absorbs it, with no bytecode per value: copy, update and
    digest mapped in C."""
    hs = list(map(blake2b.copy, repeat(state, len(values))))
    deque(map(blake2b.update, hs, map(_PACK1, values)), 0)
    return list(map(blake2b.digest, hs))


def _words(digests: list[bytes], mask: int) -> list[int]:
    """[int.from_bytes(d, "little") & mask for d in digests] in numpy: one
    little-endian uint64 view of the joined digests, one & (none when mask
    keeps all 64 bits), one tolist."""
    import numpy as np  # on first use; `import kafw.cli` does not load it

    words = np.frombuffer(b"".join(digests), "<u8")
    return (words if mask >= _SEED_MASK else words & mask).tolist()


def _packable(values: list[int], size: int) -> bool:
    """Whether every value lies in [0, size) and packs into one 64-bit part."""
    return 0 <= min(values) and max(values) < min(size, _SEED_MASK + 1)


def as_int(x, what: str) -> int:
    """The one operand rule for an x that callers found is not an int (they
    test `type(x) is int` inline): a numpy integer scalar acts as its int,
    and anything else (a bool, float, str, list or array) raises DomainError."""
    import numpy as np  # only for an operand that is not an int

    if isinstance(x, np.integer):
        return int(x)
    raise DomainError(f"{what} is an int, not a {type(x).__name__}")


def stream64(seed: int, *parts: int) -> int:
    """Deterministic 64-bit value for (seed, parts); the package-wide stream."""
    return _digest(_keyed(seed), parts)


def derive_seed(seed: int, *parts) -> int:
    """Child seed for a named sub-stream; string parts are hashed as UTF-8."""
    return _digest(_keyed(seed), parts)


def child_seeds(seed: int) -> Callable[..., int]:
    """parts -> derive_seed(seed, *parts), keying BLAKE2b by the seed once:
    each child absorbs its parts into a copy of that state."""
    copy = _keyed(seed).copy
    return lambda *parts: _digest(copy(), parts)


def _check_width(bits: int) -> None:
    if bits < 0:
        raise DomainError(f"width {bits} is negative")


class RandomFunctionOracle:
    """Lazily-sampled random function over n-bit words.

    Repeated queries return the same output; the counter advances only on
    first-time inputs.
    """

    def __init__(self, n: int, seed: int):
        _check_width(n)
        self.n = n
        self.seed = seed
        self.table: dict[int, int] = {}
        self.query_count = 0
        self._state = None  # BLAKE2b keyed by the seed, built on the first draw

    def _draw(self, x: int) -> int:
        """stream64(seed, x) cut to n bits, from the keyed state the oracle keeps."""
        if self._state is None:
            self._state = _keyed(self.seed)
        return _digest(self._state.copy(), (x,)) & ((1 << self.n) - 1)

    def query(self, x: int) -> int:
        x = x if type(x) is int else as_int(x, "an input")
        if not 0 <= x < (1 << self.n):
            raise DomainError(f"input {x:#x} out of domain")
        y = self.table.get(x)
        if y is None:
            y = self.table[x] = self._draw(x)
            self.query_count += 1
        return y

    __call__ = query

    def query_many(self, xs: list[int]) -> list[int]:
        """[self.query(x) for x in xs], which it is with an input that is
        not an int, or out of the domain (or past 2^64).

        Otherwise the inputs not yet in the table are drawn in one batch,
        in the order they come: digests from `_digests`, cut to n bits by
        `_words`, the same values as `_draw` with no bytecode per input.
        Each value is stream64(seed, x) whatever came before, so a repeat
        inside the batch is drawn twice and kept once, and the count grows
        by the table's growth.  On a birthday-n16 batch of 512 inputs,
        taking the fresh inputs as set(xs).difference(table) made it 1.16x
        slower (iterating a sparse set), and converting each digest with
        int.from_bytes and & 1.17x.  The tests pin these values to
        stream64.
        """
        if set(map(type, xs)) != {int}:
            return [self.query(x) for x in xs]
        table = self.table
        fresh = list(filterfalse(table.__contains__, xs))
        if fresh:
            if not _packable(fresh, 1 << self.n):
                return [self.query(x) for x in xs]
            if self._state is None:
                self._state = _keyed(self.seed)
            before = len(table)
            table.update(zip(fresh, _words(_digests(self._state, fresh), (1 << self.n) - 1)))
            self.query_count += len(table) - before
        return list(map(table.__getitem__, xs))


def order_free(fs) -> bool:
    """Whether every f is a RandomFunctionOracle, so its queries may be
    answered in any order unobserved: each value is stream64(seed, x),
    whatever came before."""
    return all(isinstance(f, RandomFunctionOracle) for f in fs)


class RandomPermutationOracle:
    """Lazily-sampled random permutation over `bits`-bit words.

    `forward` and `backward` answer from their own map when they can.  A
    fresh input goes to `_draw`, the one routine that makes a new pair, in
    either direction (tag 0 forward, 1 backward).  It checks the domain,
    then draws from a copy of the keyed state the oracle keeps, as
    RandomFunctionOracle does, absorbing (tag, v, attempt) as one packed
    update of stream64's bytes, v taken to its low 64 bits.  Below half
    load the output is drawn by rejection against the range already used:
    candidate stream64(seed, tag, v, attempt) for attempt = 0, 1, ...  From
    half load on, it is free[stream64(seed, tag, v, 0) % len(free)], the
    k-th smallest unused value.  Each direction keeps its sorted free list
    (`forward` the free outputs, `backward` the free inputs), built in O(N)
    the first time that direction draws at half load or more.  Every new
    pair from then on leaves both built lists: its output is popped from
    the drawing direction's list at the drawn index, and its input found
    by bisection in the other's.  That is one O(N) memmove per built list,
    so a full fill costs O(N^2) word moves in C rather than O(N^2) Python
    steps.  The two maps always hold as many pairs, so below half load no
    list exists and a draw looks at none.  Forward and backward maps stay
    mutually inverse.
    """

    def __init__(self, bits: int, seed: int):
        _check_width(bits)
        self.bits = bits
        self.seed = seed
        self.forward_map: dict[int, int] = {}
        self.backward_map: dict[int, int] = {}
        self.query_count = 0
        self._free: dict[int, list[int]] = {}  # tag -> sorted values unused in its direction
        self._size = 1 << bits
        self._state = None  # BLAKE2b keyed by the seed, built on the first draw

    def _draw(self, tag: int, v: int, own: dict[int, int], other: dict[int, int]) -> int:
        """A fresh pair for input v in direction `tag`, whose map is `own`
        (v to its image), `other` the map back; returns v's image."""
        size = self._size
        if not 0 <= v < size:
            raise DomainError(f"input {v:#x} out of domain")
        if self._state is None:
            self._state = _keyed(self.seed)
        copy, from_bytes, packed = self._state.copy, int.from_bytes, v & _SEED_MASK
        if 2 * len(other) < size:
            mask, attempt = size - 1, 0
            while True:
                h = copy()
                h.update(_PACK3(tag, packed, attempt))
                out = from_bytes(h.digest(), "little") & mask
                if out not in other:
                    break
                attempt += 1
        else:
            free = self._free
            mine = free.get(tag)
            if mine is None:
                mine = free[tag] = [w for w in range(size) if w not in other]
            h = copy()
            h.update(_PACK3(tag, packed, 0))
            out = mine.pop(from_bytes(h.digest(), "little") % len(mine))
            theirs = free.get(1 - tag)
            if theirs is not None:
                del theirs[bisect_left(theirs, v)]
        own[v] = out
        other[out] = v
        self.query_count += 1
        return out

    def forward(self, x: int) -> int:
        x = x if type(x) is int else as_int(x, "an input")
        y = self.forward_map.get(x)
        return self._draw(0, x, self.forward_map, self.backward_map) if y is None else y

    def backward(self, y: int) -> int:
        y = y if type(y) is int else as_int(y, "an input")
        x = self.backward_map.get(y)
        return self._draw(1, y, self.backward_map, self.forward_map) if x is None else x

    __call__ = forward


class IdealCipherOracle:
    """Family of independent random permutations over 2n-bit blocks, one per n-bit key.

    Key k's permutation is RandomPermutationOracle(2n, derive_seed(seed,
    "ic", k)), but it is built only on k's second query.  The first query,
    in either direction, meets an empty permutation, whose rejection
    sampling accepts attempt 0: its answer is stream64(key seed, tag, v, 0)
    cut to 2n bits, and (key seed, tag, v) is kept: the key seed from a
    copy of the state keyed by `seed` that has absorbed "ic", the answer
    from BLAKE2b keyed by that seed over the packed (tag, v, 0).  The
    second query builds the permutation, replays the first query through
    it, and answers through it.  So every answer and query count is the
    permutation's, in any order of queries, while the birthday attack's
    probes, each on a fresh key, build no permutation at all.
    """

    def __init__(self, n: int, seed: int):
        _check_width(n)
        self.n = n
        self.seed = seed
        self.perms: dict[int, RandomPermutationOracle] = {}
        self._first: dict[int, tuple[int, int, int]] = {}  # key -> (key seed, tag, v) of its first query
        self._ic = _keyed(seed)
        self._ic.update(b"ic")  # derive_seed(seed, "ic", k) is a copy that absorbs k

    def _query(self, key: int, tag: int, v: int) -> int:
        key = key if type(key) is int else as_int(key, "a key")
        v = v if type(v) is int else as_int(v, "a block")
        perm = self.perms.get(key)
        if perm is None:
            if not 0 <= key < (1 << self.n):
                raise DomainError("key out of range")
            first = self._first.pop(key, None)
            if first is None:
                mask = (1 << (2 * self.n)) - 1
                if not 0 <= v <= mask:
                    raise DomainError(f"input {v:#x} out of domain")
                h = self._ic.copy()
                h.update((key & _SEED_MASK).to_bytes(8, "little"))
                key_seed = h.digest()
                self._first[key] = (int.from_bytes(key_seed, "little"), tag, v)
                draw = blake2b(_PACK3(tag, v & _SEED_MASK, 0), digest_size=8, key=key_seed)
                return int.from_bytes(draw.digest(), "little") & mask
            key_seed, tag0, v0 = first
            perm = self.perms[key] = RandomPermutationOracle(2 * self.n, key_seed)
            (perm.backward if tag0 else perm.forward)(v0)  # replays the first query
        return perm.backward(v) if tag else perm.forward(v)

    def encrypt_block(self, key: int, block: int) -> int:
        return self._query(key, 0, block)

    def decrypt_block(self, key: int, block: int) -> int:
        return self._query(key, 1, block)

    def encrypt_many(self, keys: list[int], block: int) -> list[int]:
        """[self.encrypt_block(k, block) for k in keys], which it is unless
        the keys are distinct, never queried before, and they and the block
        ints in range.

        Then each key's first draw is written out as `_query` draws it:
        the key seeds from `_digests`, the (tag 0, block, attempt 0) bytes
        packed once for all keys, and the seeds and draws turned into ints
        by `_words`.  Calling `_query` per key made birthday-n16 trials
        about 1.12x slower.  The tests pin these values to the reference.
        """
        mask, first = (1 << (2 * self.n)) - 1, self._first
        if not (
            set(map(type, keys)) == {int}
            and _packable(keys, 1 << self.n)
            and type(block) is int
            and 0 <= block <= mask
            and len(set(keys)) == len(keys)
            and first.keys().isdisjoint(keys)
            and self.perms.keys().isdisjoint(keys)
        ):
            return [self.encrypt_block(k, block) for k in keys]
        key_seeds = _digests(self._ic, keys)
        first.update(zip(keys, zip(_words(key_seeds, _SEED_MASK), repeat(0), repeat(block))))
        coords = _PACK3(0, block & _SEED_MASK, 0)
        return _words([blake2b(coords, digest_size=8, key=s).digest() for s in key_seeds], mask)


class RelatedKeyOracle:
    """RK[E_k]: answers encryption and decryption under k ^ offset.

    `backend` is a CipherInstance or an IdealCipherOracle.  Every call
    advances the q_e counter; an exact repeat of an earlier (offset,
    direction, block) triple is rejected, matching the convention that
    distinguishers never make redundant queries.  The master key is not
    reachable through the query interface.
    """

    def __init__(self, key: int, backend, n: int, limit: int | None = None):
        _check_width(n)
        if not 0 <= key < (1 << n):
            raise DomainError("master key out of range")
        self._key = key
        self._backend = backend
        self.n = n
        self.limit = limit
        self.query_count = 0
        self._seen: set[tuple[int, str, int]] = set()

    def _admit(self, offset: int, direction: str, block: int) -> tuple[int, int]:
        """Check one query and count it, returning its offset and block as ints; a bad one raises first."""
        offset = offset if type(offset) is int else as_int(offset, "an offset")
        block = block if type(block) is int else as_int(block, "a block")
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
        return offset, block

    def query(self, offset: int, direction: str, block: int) -> int:
        if direction == FORWARD:
            op = self._backend.encrypt_block
        elif direction == BACKWARD:
            op = self._backend.decrypt_block
        else:
            raise DomainError(f"unknown direction {direction!r}")
        offset, block = self._admit(offset, direction, block)
        return op(self._key ^ offset, block)

    def encrypt(self, offset: int, block: int) -> int:
        return self.query(offset, FORWARD, block)

    def encrypt_many(self, offsets: list[int], block: int) -> list[int]:
        """[self.encrypt(off, block) for off in offsets] with one backend call.

        Every query is admitted first, then the backend's `encrypt_many`
        answers them all.  When the block and every offset are ints in range,
        no triple repeats (in the batch or before it) and the budget has room
        for all, the batch is admitted with set operations; otherwise `_admit`
        runs query by query, so a bad offset or block, a repeat or an
        exhausted budget raises at the same query with the same count.
        """
        if (
            set(map(type, offsets)) == {int}
            and _packable(offsets, 1 << self.n)
            and type(block) is int
            and 0 <= block < (1 << (2 * self.n))
            and (self.limit is None or self.query_count + len(offsets) <= self.limit)
            and len(triples := set(zip(offsets, repeat(FORWARD), repeat(block)))) == len(offsets)
            and triples.isdisjoint(self._seen)
        ):
            self._seen |= triples
            self.query_count += len(offsets)
        else:
            offsets = [self._admit(off, FORWARD, block)[0] for off in offsets]
        return self._backend.encrypt_many(list(map(self._key.__xor__, offsets)), block)

    def decrypt(self, offset: int, block: int) -> int:
        return self.query(offset, BACKWARD, block)


@dataclass
class FunctionBudget:
    """Shared q_f accounting for an adversary's view of the round function(s).

    Counts fresh (oracle index, input) queries only: re-asking what the
    adversary already knows is free, matching the no-redundant-queries
    convention.  Round functions are only ever evaluated forward, so each
    oracle's spent inputs are one set of ints.
    """

    limit: int | None = None
    count: int = 0
    _seen: defaultdict = field(default_factory=lambda: defaultdict(set))  # oracle index -> inputs spent

    def spend(self, index: int, x: int) -> None:
        seen = self._seen[index]
        if x in seen:
            return
        if self.limit is not None and self.count >= self.limit:
            raise QueryBudgetExceeded(f"q_f budget {self.limit} exhausted")
        seen.add(x)
        self.count += 1

    def spend_many(self, indices: list[int], columns: list[list[int]]) -> None:
        """For j = 0, 1, ..., spend(index, xs[j]) for each index and xs of
        zip(indices, columns) in order (input j of every round, then j + 1);
        one set update per column when the limit cannot be reached."""
        seen, count = self._seen, self.count
        if self.limit is None or count + sum(map(len, columns)) <= self.limit:
            for index, xs in zip(indices, columns):
                spent = seen[index]
                count -= len(spent)
                spent.update(xs)
                count += len(spent)
            self.count = count
        else:
            for row in zip(*columns):
                for index, x in zip(indices, row):
                    self.spend(index, x)


class CountedFunction:
    """Adversary-side view of one round-function oracle, metered by a FunctionBudget.

    With `make` (and oracle None) the oracle is `make()`, called on the
    first query or the first read of `oracle`: a view nobody queries
    builds nothing.
    """

    def __init__(self, oracle, budget: FunctionBudget, index: int = 0, make: Callable | None = None):
        if make is None:
            self.oracle = oracle  # shadows the property below
        self._make = make
        self.budget = budget
        self.index = index

    @cached_property
    def oracle(self):
        return self._make()

    def query(self, x: int) -> int:
        x = x if type(x) is int else as_int(x, "an input")
        self.budget.spend(self.index, x)
        return self.oracle(x)

    __call__ = query
