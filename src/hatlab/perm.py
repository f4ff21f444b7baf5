"""Permutations of {0,...,n-1} under the right-action convention.

Products compose left to right: ``pt ** (p * q) == (pt ** p) ** q``.  All
group-theoretic code in this package relies on this convention; it matches
the coset-graph adjacency rule (cosets act by right multiplication).
"""

from __future__ import annotations

import re

import numpy as np

_DTYPE = np.int32

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class DegreeMismatch(ValueError):
    """Two permutations of different degrees were combined."""


class Permutation:
    """A bijection of {0,...,degree-1}, stored as an image array."""

    __slots__ = ("images", "_key")

    def __init__(self, images, validate: bool = True):
        arr = np.array(images, dtype=_DTYPE)
        if arr.ndim != 1:
            raise ValueError("images must be a one-dimensional sequence")
        if validate and arr.size:
            if arr.min() < 0 or arr.max() >= arr.size:
                raise ValueError("image out of range")
            if (np.bincount(arr, minlength=arr.size) != 1).any():
                raise ValueError("images are not a bijection")
        arr.setflags(write=False)
        self.images = arr
        self._key = None

    # -- construction helpers

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(np.arange(degree, dtype=_DTYPE), validate=False)

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        imgs = np.arange(degree, dtype=_DTYPE)
        for cyc in cycles:
            if len(cyc) != len(set(cyc)):
                raise ValueError("repeated point in cycle %r" % (cyc,))
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

    def _check(self, other):
        if self.images.size != other.images.size:
            raise DegreeMismatch(
                "degree %d vs %d" % (self.images.size, other.images.size)
            )

    def __mul__(self, other: "Permutation") -> "Permutation":
        self._check(other)
        return Permutation(other.images[self.images], validate=False)

    def inverse(self) -> "Permutation":
        inv = np.empty(self.images.size, dtype=_DTYPE)
        inv[self.images] = np.arange(self.images.size, dtype=_DTYPE)
        return Permutation(inv, validate=False)

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
        return bool((self.images == np.arange(self.images.size, dtype=_DTYPE)).all())

    def first_moved(self) -> int | None:
        diff = np.flatnonzero(self.images != np.arange(self.images.size, dtype=_DTYPE))
        return int(diff[0]) if diff.size else None

    def support(self):
        return np.flatnonzero(self.images != np.arange(self.images.size, dtype=_DTYPE))

    def cycles(self, include_fixed: bool = False):
        """Disjoint cycles, each rotated to start at its smallest point."""
        imgs = self.images
        seen = np.zeros(imgs.size, dtype=bool)
        out = []
        for i in range(imgs.size):
            if seen[i]:
                continue
            j = int(imgs[i])
            if j == i:
                seen[i] = True
                if include_fixed:
                    out.append((i,))
                continue
            cyc = [i]
            seen[i] = True
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = int(imgs[j])
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Sorted multiset of nontrivial cycle lengths."""
        return tuple(sorted(len(c) for c in self.cycles()))

    def order(self) -> int:
        from math import lcm

        n = 1
        for c in self.cycles():
            n = lcm(n, len(c))
        return n

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(%s)" % " ".join(str(p) for p in c) for c in cyc)

    def __repr__(self):
        return "Permutation[%d] %s" % (self.degree, self.cycle_string())


def evaluate_word(word, assignment) -> Permutation:
    """Evaluate a word over generator indices as a left-to-right product.

    ``word`` is a sequence of ``(index, exponent)`` pairs; ``assignment`` maps
    indices to permutations (all of one degree).  The empty word evaluates to
    the identity.
    """
    if not assignment:
        raise ValueError("assignment must contain at least one permutation")
    degree = assignment[0].degree
    for p in assignment:
        if p.degree != degree:
            raise DegreeMismatch("assignment permutations must share a degree")
    result = Permutation.identity(degree)
    for idx, exp in word:
        if not 0 <= idx < len(assignment):
            raise IndexError("generator index %d out of range" % idx)
        result = result * assignment[idx] ** exp
    return result
