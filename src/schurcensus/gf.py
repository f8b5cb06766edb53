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

Each candidate polynomial is tested by one walk over the powers of x (see
``_power_walk``): it is primitive exactly when the walk first returns to 1
after q - 1 steps, and the walk is then the field's exp table.  From it
every field carries dense lookup tables (q x q for addition and
multiplication, length q for negation and discrete logs, and
q x e for the digits of each index), built when it is constructed; all
element arithmetic reads them.  ``make_field`` therefore refuses fields
above ``DEFAULT_ELEMENT_CAP`` = 512 elements.  Fields are cached, so the
tables handed out (sums, products, negatives, digits) are read-only.

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
# primes and the powers of x
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


def _digits(p: int, e: int) -> np.ndarray:
    """(p**e, e) array whose row a holds the base-p digits of a, lowest first."""
    return np.arange(p ** e)[:, None] // p ** np.arange(e) % p


def _power_walk(modulus: tuple[int, ...], p: int) -> np.ndarray | None:
    """The indices of x**0, x**1, ..., x**(q-2) in F_p[x]/modulus, or None
    unless x has multiplicative order q - 1 = p**e - 1 there.

    "Times x" is one vectorized map on all q indices: shift the digits up
    one place and fold the top digit back in through
    x**e = -(m_0 + m_1 x + ... + m_(e-1) x**(e-1)).  Unless m_0 = 0, x is
    a unit, the map permutes the ring, and the walk follows it from 1 until
    it returns to 1.  When that takes q - 1 steps the quotient ring has
    q - 1 units, so it is a field (the order test implies irreducibility)
    and the walk runs through every unit.
    """
    if modulus[0] == 0:  # x divides the modulus
        return None
    e = len(modulus) - 1
    digits = _digits(p, e)
    shifted = np.roll(digits, 1, axis=1)
    shifted[:, 0] = 0
    times_x = ((shifted - np.outer(digits[:, -1], modulus[:-1])) % p
               @ p ** np.arange(e)).tolist()
    walk = [1]
    while (a := times_x[walk[-1]]) != 1:
        walk.append(a)
    return np.array(walk) if len(walk) == p ** e - 1 else None


# ---------------------------------------------------------------------------
# the field proper
# ---------------------------------------------------------------------------

class Field:
    """One copy of GF(p**e), built from its defining polynomial and the
    powers of zeta that ``_power_walk`` found for it.  Use ``make_field``;
    the constructor trusts its arguments."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...],
                 powers: np.ndarray):
        self.p = p
        self.e = e
        self.q = q = p ** e
        self.modulus = modulus  # monic, length e + 1, constant term first
        self._hash = hash((p, e, modulus))
        self._digits_t = digits = _digits(p, e)
        digits.setflags(write=False)
        scale = p ** np.arange(e)
        self._add_t = ((digits[:, None, :] + digits[None, :, :]) % p @ scale).astype(np.int32)
        self._neg_t = ((-digits) % p @ scale).astype(np.int32)
        # multiplication through the cyclic group generated by zeta
        self._exp = exp = powers  # zeta**k for 0 <= k < q - 1
        self._log = log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._mul_t = np.zeros((q, q), dtype=np.int32)
        self._mul_t[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        self.zeta = int(exp[1 % (q - 1)])  # the class of x; GF(2) has only 1
        for table in (self._add_t, self._mul_t, self._neg_t):
            table.setflags(write=False)  # handed out, and the field is cached

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
        return self._hash

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
        return tuple(self._digits_t[self._check(a)].tolist())

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self._add_t[self._check(a), self._check(b)])

    def neg(self, a: int) -> int:
        return int(self._neg_t[self._check(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self._mul_t[self._check(a), self._check(b)])

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k, read from the exp and log tables:
        zeta**(k * log a).  0**0 is 1, and 0**k raises for k < 0."""
        if self._check(a) == 0:
            if k < 0:
                raise ZeroDivisionError(f"inverse of zero in {self}")
            return 0 if k else 1
        return int(self._exp[int(self._log[a]) * k % (self.q - 1)])

    # -- linear structure ----------------------------------------------------

    def regular_representation(self, a: int) -> np.ndarray:
        """Matrix of multiplication by a on the basis 1, zeta, ..., zeta**(e-1).

        Row i holds the coordinates of zeta**i * a, read off the exp,
        multiplication and digit tables, so coordinate row vectors multiply
        on the right: coords(b*a) = coords(b) @ psi(a) mod p.
        This makes the map a ring homomorphism, psi(a) @ psi(b) = psi(a*b).
        """
        return self._digits_t[self._mul_t[self._exp[:self.e], self._check(a)]]

    def is_subfield(self, subset: Iterable[int]) -> bool:
        """True iff the given element indices form a subfield, that is,
        equal one of ``subfields()``."""
        s = frozenset(subset)
        for a in s:
            self._check(a)
        return s in self.subfields()

    def subfields(self) -> list[frozenset[int]]:
        """All subfields (one per divisor of e), smallest first.

        The subfield of order p**d is {0} together with the powers of
        zeta**((q - 1) / (p**d - 1)), read from the exp table.
        """
        return [frozenset(self._exp[::(self.q - 1) // (self.p ** d - 1)].tolist()) | {0}
                for d in range(1, self.e + 1) if self.e % d == 0]

    # -- dense tables ----------------------------------------------------------

    def add_table(self) -> np.ndarray:
        """Read-only q x q numpy table of sums."""
        return self._add_t

    def mul_table(self) -> np.ndarray:
        return self._mul_t

    def neg_table(self) -> np.ndarray:
        return self._neg_t

    def digit_table(self) -> np.ndarray:
        """Read-only (q, e) table whose row a is ``coords(a)``."""
        return self._digits_t


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_field(p: int, e: int) -> Field:
    """The first candidate modulus whose power walk covers every unit: x - g
    for g = 1, 2, ... when e = 1, else monic tails in constant-term-first
    lexicographic order."""
    if e == 1:
        candidates = (((-g) % p, 1) for g in range(1, p))
    else:
        candidates = (tail + (1,) for tail in product(range(p), repeat=e))
    for modulus in candidates:
        powers = _power_walk(modulus, p)
        if powers is not None:
            return Field(p, e, modulus, powers)
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


_FIELD_LITERAL = re.compile(r"^([0-9]+)\^([0-9]+)$")


def parse_field_literal(text: str) -> tuple[int, int]:
    """Parse 'p^e' into (p, e); validation happens in make_field.  Only
    ASCII digits count, as in slope literals, so a fullwidth or Arabic-Indic
    '5^1' is refused.  A p or e with more digits than the element cap is
    refused here, before int() meets its own 4300-digit limit."""
    m = _FIELD_LITERAL.match(text.strip())
    if not m:
        raise ValueError(f"bad field literal {text!r}; expected the form 'p^e'")
    p, e = (digits.lstrip("0") or "0" for digits in m.groups())
    for name, digits in (("p", p), ("e", e)):
        if len(digits) > len(str(DEFAULT_ELEMENT_CAP)):
            raise SizingError(
                f"GF(p^e) with a {len(digits)}-digit {name} is above the cap "
                f"of {DEFAULT_ELEMENT_CAP} elements")
    return int(p), int(e)


def field_from_literal(text: str) -> Field:
    return make_field(*parse_field_literal(text))
