"""Arithmetic in GF(p^e) with integer-indexed elements.

A field is built once by ``make_field(p, e)`` and then carries all element
operations.  Elements are plain integers: the element sum_i c_i * zeta**i
(digits 0 <= c_i < p on the power basis 1, zeta, ..., zeta**(e-1)) has
index sum_i c_i * p**i.  Index 0 is zero, index 1 is one, and ``zeta`` is
a fixed primitive element, so the encoding is a bijection between
range(p**e) and the field.

The defining polynomial is the lexicographically first primitive monic
polynomial of degree e over F_p, comparing coefficient tuples constant
term first; zeta is the class of x, index p.  For e = 1 the polynomial is
x - g with g the least primitive root mod p, so zeta = g.  Either way a
given (p, e) always produces the same tables, which keeps every derived
artifact reproducible.

Every field carries dense lookup tables (q x q for addition and
multiplication, length q for negation and inversion), built when it is
constructed; all element arithmetic reads them.  ``make_field`` therefore
refuses fields above ``DEFAULT_ELEMENT_CAP`` = 512 elements.

Matrices over F_p (the regular representation below, and the linear maps
in other modules) are numpy integer arrays with entries reduced mod p.
"""

from __future__ import annotations

import functools
import re
from itertools import product
from typing import Iterable

import numpy as np

from .errors import SizingError

DEFAULT_ELEMENT_CAP = 512  # largest field whose q x q tables we build


# ---------------------------------------------------------------------------
# primes and polynomials over F_p (little-endian coefficient tuples)
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_rem(coeffs: list[int], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder mod a monic polynomial, returned with deg(modulus) digits."""
    a = list(coeffs)
    dm = len(modulus) - 1
    if len(a) < dm:
        a += [0] * (dm - len(a))
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top]
        if c:
            for i in range(dm + 1):
                a[top - dm + i] = (a[top - dm + i] - c * modulus[i]) % p
    return tuple(a[:dm])


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...],
                 modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, modulus, p)


def _poly_powmod(base: tuple[int, ...], k: int,
                 modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    e = len(modulus) - 1
    acc = tuple([1] + [0] * (e - 1))
    b = _poly_rem(list(base), modulus, p)
    while k:
        if k & 1:
            acc = _poly_mulmod(acc, b, modulus, p)
        b = _poly_mulmod(b, b, modulus, p)
        k >>= 1
    return acc


def _x_is_primitive(modulus: tuple[int, ...], p: int) -> bool:
    """True iff x generates the multiplicative group of F_p[x]/modulus.

    When x has order p**e - 1 the quotient ring has that many units, so
    every nonzero element is a unit and the ring is a field; the single
    order test therefore implies irreducibility as well.
    """
    e = len(modulus) - 1
    q1 = p ** e - 1
    one = tuple([1] + [0] * (e - 1))
    x = tuple([0, 1] + [0] * (e - 2))
    if _poly_powmod(x, q1, modulus, p) != one:
        return False
    return all(_poly_powmod(x, q1 // r, modulus, p) != one
               for r in _prime_factors(q1))


def _least_primitive_root(p: int) -> int:
    for g in range(1, p):
        acc, k = g, 1
        while acc != 1:
            acc = acc * g % p
            k += 1
        if k == p - 1:
            return g
    raise RuntimeError(f"no primitive root mod {p}")  # p prime: unreachable


# ---------------------------------------------------------------------------
# the field proper
# ---------------------------------------------------------------------------

class Field:
    """One copy of GF(p**e).  Use ``make_field``; the constructor trusts
    its arguments."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...], zeta: int):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus  # monic, length e + 1, constant term first
        self.zeta = zeta
        self._build_tables()

    # -- identity ---------------------------------------------------------

    @property
    def literal(self) -> str:
        return f"{self.p}^{self.e}"

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    # -- encoding ----------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(
                f"element index {a} is out of range for {self}; "
                f"operands must belong to this field")
        return a

    def coords(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a: its coefficients on 1, zeta, ..., zeta**(e-1)."""
        self._check(a)
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self._add_t[self._check(a), self._check(b)])

    def neg(self, a: int) -> int:
        return int(self._neg_t[self._check(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self._mul_t[self._check(a), self._check(b)])

    def inv(self, a: int) -> int:
        if self._check(a) == 0:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        return int(self._inv_t[a])

    def power(self, a: int, k: int) -> int:
        self._check(a)
        if k < 0:
            a, k = self.inv(a), -k
        acc = 1
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            k >>= 1
        return acc

    # -- linear structure ----------------------------------------------------

    def regular_representation(self, a: int) -> np.ndarray:
        """Matrix of multiplication by a on the basis 1, zeta, ..., zeta**(e-1).

        Row i holds the coordinates of zeta**i * a, so coordinate row
        vectors multiply on the right: coords(b*a) = coords(b) @ psi(a) mod p.
        This makes the map a ring homomorphism, psi(a) @ psi(b) = psi(a*b).
        """
        self._check(a)
        rows = []
        zi = 1
        for _ in range(self.e):
            rows.append(self.coords(self.mul(zi, a)))
            zi = self.mul(zi, self.zeta)
        return np.array(rows, dtype=np.int64)

    def is_subfield(self, subset: Iterable[int]) -> bool:
        """True iff the given element indices form a subfield."""
        s = frozenset(subset)
        for a in s:
            self._check(a)
        if 0 not in s or 1 not in s:
            return False
        return all(self.add(a, b) in s and self.mul(a, b) in s
                   for a in s for b in s)

    def subfields(self) -> list[frozenset[int]]:
        """All subfields (one per divisor of e), smallest first.

        The subfield of order p**d is the fixed set of x -> x**(p**d).
        """
        out = []
        for d in range(1, self.e + 1):
            if self.e % d:
                continue
            k = self.p ** d
            out.append(frozenset(a for a in self.elements()
                                 if self.power(a, k) == a))
        return out

    # -- dense tables ----------------------------------------------------------

    def _build_tables(self) -> None:
        p, q, e = self.p, self.q, self.e
        digits = np.zeros((q, e), dtype=np.int64)
        idx = np.arange(q)
        for i in range(e):
            digits[:, i] = idx % p
            idx = idx // p
        scale = p ** np.arange(e)
        self._add_t = ((digits[:, None, :] + digits[None, :, :]) % p @ scale).astype(np.int32)
        self._neg_t = ((-digits) % p @ scale).astype(np.int32)
        # multiplication through the cyclic group generated by zeta
        exp = np.empty(q - 1, dtype=np.int64)
        acc = (1,) + (0,) * (e - 1)
        zc = self.coords(self.zeta) if e > 1 else (self.zeta,)
        for k in range(q - 1):
            exp[k] = int(np.dot(acc, scale))
            acc = _poly_mulmod(acc, zc, self.modulus, p)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=np.int32)
        units = exp  # all nonzero indices, in power order
        ksum = (log[units][:, None] + log[units][None, :]) % (q - 1)
        mul[np.ix_(units, units)] = exp[ksum]
        self._mul_t = mul
        inv = np.zeros(q, dtype=np.int32)
        inv[exp] = exp[(-np.arange(q - 1)) % (q - 1)]
        self._inv_t = inv

    def add_table(self) -> np.ndarray:
        """q x q numpy table of sums."""
        return self._add_t

    def mul_table(self) -> np.ndarray:
        return self._mul_t

    def neg_table(self) -> np.ndarray:
        return self._neg_t


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_field(p: int, e: int) -> Field:
    if e == 1:
        g = _least_primitive_root(p)
        return Field(p, 1, ((-g) % p, 1), g)
    for tail in product(range(p), repeat=e):
        modulus = tail + (1,)
        if _x_is_primitive(modulus, p):
            return Field(p, e, modulus, p)
    raise RuntimeError(f"no primitive polynomial of degree {e} over F_{p}")


def make_field(p: int, e: int) -> Field:
    """Return GF(p**e), reusing a cached instance for repeated calls.

    Fields above DEFAULT_ELEMENT_CAP elements raise SizingError.  A p or
    e too large for the cap is refused before trial division and before
    p**e is formed, so huge literals fail at once."""
    cap = DEFAULT_ELEMENT_CAP
    if e < 1:
        raise ValueError(f"e must be at least 1, got {e}")
    if p <= cap and not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p > cap or e > cap.bit_length():
        raise SizingError(f"GF({p}^{e}) is above the cap of {cap} elements")
    if p ** e > cap:
        raise SizingError(
            f"GF({p}^{e}) has {p ** e} elements, above the cap of {cap}")
    return _build_field(p, e)


_FIELD_LITERAL = re.compile(r"^(\d+)\^(\d+)$")


def parse_field_literal(text: str) -> tuple[int, int]:
    """Parse 'p^e' into (p, e); validation happens in make_field."""
    m = _FIELD_LITERAL.match(text.strip())
    if not m:
        raise ValueError(f"bad field literal {text!r}; expected the form 'p^e'")
    return int(m.group(1)), int(m.group(2))


def field_from_literal(text: str) -> Field:
    return make_field(*parse_field_literal(text))
