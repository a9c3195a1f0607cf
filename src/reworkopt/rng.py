"""Counter-based random streams with hierarchical substream derivation.

Every stochastic entity in a simulation (a machine's environment, a
job's input quality, a suspension-check projection) draws from its own
stream, derived from the run's root stream by a path of integer ids.
Two runs that share a root key replay identical draws entity by entity,
which is what makes paired candidate comparisons and replication
extension stable: adding replication 7 never perturbs replications 0-6.

A stream draws uniforms (``_kernel.u01``) and the integers built on
them; the shop floor's normal and gamma draws are taken inside the
kernel's ``job_step`` and ``run_machine`` from keys derived here.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

from . import _kernel

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_SALT = 0x5851F42D4C957F2D

# substream namespaces (first id on the derivation path)
NS_ENV = 1        # machine environment wear
NS_JOB = 2        # per-entity input quality / noise / induced wear
NS_PILOT = 3      # idle-space pilot run
NS_PROP2 = 4      # maintenance-suspension projections
NS_LABEL = 5      # static labeling replications
NS_ONLINE = 6     # online execution runs
NS_RESCHED = 7    # rescheduling candidate evaluations
NS_SEARCH = 8     # evolutionary operator randomness
NS_INIT = 9       # population / instance initialisation


@lru_cache(maxsize=1 << 16)
def _id_hash(i: int) -> int:
    """Hash of one id on a derivation path; it does not depend on the
    key, so it is computed once per id."""
    return _kernel.mix64((i + 1) * _GOLDEN & _M64)


class _Subkeys(dict):
    """Keys of a stream's substreams by id, each hashed when first read."""

    def __init__(self, key: int):
        self.key = key

    def __missing__(self, i: int) -> int:
        k = self[i] = _kernel.mix64((self.key ^ _id_hash(i)) & _M64)
        return k


# subkey tables of the open shared_draws() scope by stream key; None
# outside a scope, so nothing is kept there
_subkeys: dict[int, _Subkeys] | None = None
# (owner, subkey tables) the last owned outermost scope left, or None
_kept: tuple[object, dict[int, _Subkeys]] | None = None


@contextmanager
def shared_draws(owner=None):
    """The kernel's shared_draws() scope, in which subkeys() tables are
    shared by stream key too, so runs that replay one root hash each
    entity's key once.  Re-entrant.  The outermost scope starts from the
    tables the last owned scope kept when both have the same owner, and
    keeps its own at exit if it has one; an unowned scope or a raise
    drops them.  Planning owns its scopes by its master key."""
    global _subkeys, _kept
    outer = _subkeys
    if outer is None:
        _subkeys = {}
        if owner is not None:
            kept, _kept = _kept, None
            if kept is not None and kept[0] == owner:
                _subkeys = kept[1]
    try:
        with _kernel.shared_draws(owner):
            yield
        if outer is None and owner is not None:
            _kept = owner, _subkeys
    finally:
        _subkeys = outer


class RngStream:
    """A (key, counter) pair over the kernel hash. Cheap to fork."""

    __slots__ = ("key", "ctr")

    def __init__(self, key: int, ctr: int = 0):
        self.key = key & _M64
        self.ctr = ctr

    @classmethod
    def from_seed(cls, seed: int) -> "RngStream":
        return cls(_kernel.mix64((seed ^ _SEED_SALT) & _M64))

    def substream(self, *ids: int) -> "RngStream":
        """Derive an independent stream from a path of integer ids.

        Derivation is order-sensitive: substream(1, 2) != substream(2, 1).
        """
        k = self.key
        for i in ids:
            k = _kernel.mix64((k ^ _id_hash(i)) & _M64)
        return RngStream(k)

    def subkeys(self) -> dict[int, int]:
        """Keys of substream(i) by i, without building the streams; the
        table is shared by key inside a shared_draws() scope."""
        if _subkeys is None:
            return _Subkeys(self.key)
        return _subkeys.setdefault(self.key, _Subkeys(self.key))

    # -- draws ---------------------------------------------------------

    def uniform(self) -> float:
        u = _kernel.u01(self.key, self.ctr)
        self.ctr += 1
        return u

    # -- integer / sequence helpers -----------------------------------

    def randrange(self, n: int) -> int:
        """Integer in [0, n). n must be positive."""
        i = int(self.uniform() * n)
        return n - 1 if i >= n else i

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi] inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
