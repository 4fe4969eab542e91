"""Arithmetic for the small binary fields GF(2^k).

Field elements are plain integers in ``[0, 2**k)`` whose bits are the
coefficients of the polynomial-basis representation (bit ``i`` is the
coefficient of ``x**i``).  Every field here has characteristic 2, so
addition is XOR, negation is the identity map and subtraction equals
addition.

Only small degrees are supported (``1 <= k <= 8``).  The rest of the
library works over GF(2) and over GF(4) = {0, 1, z, w}, where w = z + 1
and z*z = w under the default modulus z^2 + z + 1.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

MAX_DEGREE = 8

_SYMBOLS = ("0", "1", "z", "w")  # gf4's; gf2 takes the first two


class FieldError(ValueError):
    """Invalid field parameters or element values."""


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    """Remainder of carry-less division of a by m over GF(2)."""
    dm = _poly_degree(m)
    while a and _poly_degree(a) >= dm:
        a ^= m << (_poly_degree(a) - dm)
    return a


def _is_irreducible(p: int) -> bool:
    """Trial division by every residue polynomial of degree 1..deg(p)//2."""
    d = _poly_degree(p)
    if d < 1:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if _poly_degree(q) >= 1 and _poly_mod(p, q) == 0:
            return False
    return True


def _default_modulus(degree: int) -> int:
    if degree == 1:
        # Degree-1 products never overflow one bit; the modulus is unused.
        return 0b10
    if degree == 2:
        return 0b111
    # Smallest irreducible by integer encoding, for determinism.
    for cand in range(1 << degree, 1 << (degree + 1)):
        if _is_irreducible(cand):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {degree}")


class FieldSpec(namedtuple("FieldSpec", "degree modulus")):
    """Arithmetic context for GF(2^degree).

    Immutable; instances are safe to share between threads.  Use
    :func:`field_make` rather than constructing directly so the modulus
    is validated.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return 1 << self.degree

    @property
    def name(self) -> str:
        return f"gf{self.order}"

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise FieldError(f"{a!r} is not an element of {self.name}")
        return a

    def add(self, a: int, b: int) -> int:
        """Field addition: XOR of coefficient vectors.  add(a, a) == 0."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Shift-xor product reduced by the modulus."""
        acc = 0
        top = 1 << self.degree
        mod = self.modulus
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return acc

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.name}")
        return _inverse_table(self)[a]

    def to_symbol(self, a: int) -> str:
        """Canonical text symbol; defined for gf2 and gf4 only."""
        self.validate(a)
        if self.degree > 2:
            raise FieldError(f"{self.name} has no text symbols")
        return _SYMBOLS[a]

    def from_symbol(self, text: str) -> int:
        """Parse a canonical symbol (case sensitive, bit exact)."""
        if self.degree > 2:
            raise FieldError(f"{self.name} has no text symbols")
        try:
            return _SYMBOLS.index(text, 0, self.order)
        except ValueError:
            raise FieldError(f"{text!r} is not an element symbol of {self.name}") from None

    def __repr__(self) -> str:
        return f"FieldSpec(degree={self.degree}, modulus=0b{self.modulus:b})"


@lru_cache(maxsize=None)
def _inverse_table(spec: FieldSpec) -> tuple[int, ...]:
    table = [0] * spec.order
    for a in range(1, spec.order):
        for b in range(1, spec.order):
            if spec.mul(a, b) == 1:
                table[a] = b
                break
        else:
            raise FieldError(
                f"element {a} has no inverse; modulus 0b{spec.modulus:b} "
                "is not irreducible"
            )
    return tuple(table)


@lru_cache(maxsize=None)
def field_make(degree: int, modulus: int | str = "default") -> FieldSpec:
    """Build a GF(2^degree) context.

    ``modulus`` is a bit-encoded monic polynomial over GF(2) (bit i is
    the coefficient of x^i), or "default" for the built-in choice:
    z^2 + z + 1 for degree 2, the lexicographically smallest irreducible
    otherwise.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise FieldError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    if modulus == "default":
        modulus = _default_modulus(degree)
    if not isinstance(modulus, int):
        raise FieldError(f"modulus must be an int or 'default', got {modulus!r}")
    if _poly_degree(modulus) != degree:
        raise FieldError(
            f"modulus 0b{modulus:b} is not monic of degree {degree}"
        )
    if degree > 1 and not _is_irreducible(modulus):
        raise FieldError(f"modulus 0b{modulus:b} is reducible")
    spec = FieldSpec(degree, modulus)
    _inverse_table(spec)  # force the existence check for every nonzero element
    return spec


GF2 = field_make(1)
GF4 = field_make(2)

#: GF(4) generator z and its square w = z + 1 in the integer encoding.
Z = 0b10
W = 0b11
