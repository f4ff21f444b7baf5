"""Permutations of {0,...,n-1} under the right-action convention.

Products compose left to right: ``pt ** (p * q) == (pt ** p) ** q``.  All
group-theoretic code in this package relies on this convention; it matches
the coset-graph adjacency rule (cosets act by right multiplication).

The public ``Permutation(images)`` copies integer images into a fresh int32
array and checks that they form a bijection.  The private ``_wrap`` owns an
array the library computed itself (a product, an inverse, a tree path, an
action's images) without a copy or a check.
"""

from __future__ import annotations

import re
from functools import cache
from math import lcm

import numpy as np

_DTYPE = np.int32

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class DegreeMismatch(ValueError):
    """Two permutations of different degrees were combined."""


class Permutation:
    """A bijection of {0,...,degree-1}, stored as a read-only image array."""

    __slots__ = ("images", "_key")

    def __init__(self, images):
        arr = np.asarray(images)
        if arr.ndim != 1:
            raise ValueError("images must be a one-dimensional sequence")
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError("images must be integers, not %s" % arr.dtype)
        if arr.size and (arr.min() < 0 or arr.max() >= arr.size):
            raise ValueError("image out of range")
        arr = np.array(arr, dtype=_DTYPE)
        if (np.bincount(arr, minlength=arr.size) != 1).any():
            raise ValueError("images are not a bijection")
        arr.setflags(write=False)
        self.images = arr
        self._key = None

    # -- construction helpers

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return _wrap(np.arange(degree, dtype=_DTYPE))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """The product of disjoint cycles; a point repeated within one cycle
        or across two raises ValueError."""
        imgs = np.arange(degree, dtype=_DTYPE)
        seen = set()
        for cyc in cycles:
            if len(cyc) != len(set(cyc)) or not seen.isdisjoint(cyc):
                raise ValueError("repeated point in cycle %r" % (cyc,))
            seen.update(cyc)
            for a, b in zip(cyc, cyc[1:]):
                imgs[a] = b
            if cyc:
                imgs[cyc[-1]] = cyc[0]
        return cls(imgs)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse disjoint-cycle notation over 0-based points, e.g. ``(0 1 2)(3 4)``.

        The identity is written ``()``.  Points may be separated by spaces or
        commas.  The degree is inferred from the largest point unless given.
        """
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty permutation string")
        if _CYCLE_RE.sub("", stripped).strip():
            raise ValueError("unparsable permutation %r" % text)
        cycles = []
        maxpt = -1
        for body in _CYCLE_RE.findall(stripped):
            pts = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if pts:
                cycles.append(pts)
                maxpt = max(maxpt, max(pts))
        n = maxpt + 1 if degree is None else degree
        if maxpt >= n:
            raise ValueError("point %d exceeds degree %d" % (maxpt, n))
        return cls.from_cycles(n, cycles)

    # -- basic protocol

    @property
    def degree(self) -> int:
        return self.images.size

    def key(self) -> bytes:
        if self._key is None:
            self._key = self.images.tobytes()
        return self._key

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images.size == other.images.size and self.key() == other.key()

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    # -- arithmetic

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self.images, other.images
        if a.size != b.size:
            raise DegreeMismatch("degree %d vs %d" % (a.size, b.size))
        return _wrap(b[a])

    def inverse(self) -> "Permutation":
        return _wrap(_inverse_images(self.images))

    def __invert__(self) -> "Permutation":
        return self.inverse()

    def __pow__(self, n: int) -> "Permutation":
        if n == 0:
            return Permutation.identity(self.images.size)
        if n < 0:
            return self.inverse() ** (-n)
        q = self ** (n >> 1)
        q = q * q
        return self * q if n & 1 else q

    def conj(self, h: "Permutation") -> "Permutation":
        """Conjugate self^h = h^-1 * self * h."""
        return h.inverse() * self * h

    # -- structure

    def is_identity(self) -> bool:
        return self.images.tobytes() == _iota(self.images.size).tobytes()

    def first_moved(self) -> int | None:
        moved = np.flatnonzero(self.images != _iota(self.images.size))
        return int(moved[0]) if moved.size else None

    def support(self):
        return np.flatnonzero(self.images != _iota(self.images.size))

    def cycles(self, include_fixed: bool = False):
        """Disjoint cycles, each rotated to start at its smallest point."""
        imgs = self.images.tolist()
        seen = [False] * len(imgs)
        out = []
        for i, j in enumerate(imgs):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = imgs[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Sorted multiset of nontrivial cycle lengths."""
        return tuple(sorted(len(c) for c in self.cycles()))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def is_even(self) -> bool:
        """Whether n minus the number of cycles, fixed points included, is even."""
        imgs = self.images.tolist()
        cycles = 0
        for i in range(len(imgs)):
            if imgs[i] >= 0:
                cycles += 1
                j = i
                while imgs[j] >= 0:  # walk i's cycle, marking its points -1
                    imgs[j], j = -1, imgs[j]
        return (len(imgs) - cycles) % 2 == 0

    def cycle_string(self) -> str:
        return "".join("(%s)" % " ".join(str(p) for p in c) for c in self.cycles()) or "()"

    def __repr__(self):
        return "Permutation[%d] %s" % (self.degree, self.cycle_string())


def _key_view(rows):
    """Each row of the 2-D image array ``rows`` as one np.void scalar of
    its ``Permutation.key`` bytes, which numpy sorts and searches as bytes;
    width 0 has no such type."""
    rows = np.ascontiguousarray(rows, dtype=_DTYPE)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _wrap(arr) -> Permutation:
    """Own ``arr``, an int32 bijection array that owns its buffer and is never
    written again, as a frozen Permutation, unchecked.  Copy a list, another
    dtype or a view of a larger buffer first: ``np.array(x, dtype=_DTYPE)``."""
    arr.setflags(write=False)
    p = object.__new__(Permutation)
    p.images = arr
    p._key = None
    return p


def _inverse_images(arr):
    """The image array of the inverse of the bijection array ``arr``."""
    inv = np.empty_like(arr)
    inv[arr] = _iota(arr.size)
    return inv


@cache
def _iota(n: int):
    """The identity image array of degree n, read-only and shared."""
    arr = np.arange(n, dtype=_DTYPE)
    arr.setflags(write=False)
    return arr


def evaluate_word(word, assignment) -> Permutation:
    """Evaluate a word over generator indices as a left-to-right product.

    ``word`` is a sequence of ``(index, exponent)`` pairs; ``assignment`` maps
    indices to permutations (all of one degree).  The empty word evaluates to
    the identity.
    """
    if not assignment:
        raise ValueError("assignment must contain at least one permutation")
    degree = assignment[0].degree
    if any(p.degree != degree for p in assignment):
        raise DegreeMismatch("assignment permutations must share a degree")
    result = Permutation.identity(degree)
    for idx, exp in word:
        if not 0 <= idx < len(assignment):
            raise IndexError("generator index %d out of range" % idx)
        result = result * assignment[idx] ** exp
    return result
