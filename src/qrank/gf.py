"""Exact arithmetic in finite fields F_q, q = p^e.

Elements are encoded as integers in [0, q): the coefficient vector
(c_0, ..., c_{e-1}) of the residue polynomial, packed in base p with c_0
least significant.  Fields are refused above q = FIELD_LIMIT, so full
add/mul/inv tables are always precomputed at context creation, since
enumeration workloads dominate everything downstream.  Every field,
F_p included as the case e = 1, comes from one builder: addition digit
by digit in base p, and multiplication from the log/antilog pair of a
primitive element, so building F_256 takes a few hundred polynomial
products instead of q^2 = 65536.
"""

from __future__ import annotations

from .errors import DivisionByZero, InvalidValue, MalformedCode, NonPrimeCharacteristic, ReducibleModulus

# the largest field order accepted; it bounds the primality and modulus
# searches and the arithmetic tables
FIELD_LIMIT = 256


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _digits(v: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(v % p)
        v //= p
    return out


def _undigits(digits, p: int) -> int:
    v = 0
    for c in reversed(digits):
        v = v * p + c
    return v


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mulmod_p(a, b, p):
    # plain polynomial product over F_p, coefficient lists constant-first
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a, b, p):
    # remainder of a mod the monic b over F_p
    a = _poly_trim(list(a))
    db = len(b) - 1
    while len(a) - 1 >= db:
        factor, shift = a[-1], len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
        a = _poly_trim(a)
    return a


def _is_irreducible(poly, p: int) -> bool:
    # poly is monic of degree >= 2
    deg = len(poly) - 1
    if poly[0] == 0:  # divisible by x
        return False
    # trial division by every monic polynomial of degree 1 .. deg//2
    for d in range(1, deg // 2 + 1):
        for t in range(p**d):
            divisor = _digits(t, p, d) + [1]
            if not _poly_rem(poly, divisor, p):
                return False
    return True


def _default_modulus(p: int, e: int):
    # deterministic: smallest packed lower-coefficient value that is irreducible
    for t in range(p**e):
        cand = _digits(t, p, e) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise ReducibleModulus(f"no irreducible polynomial of degree {e} over F_{p}")


class Value:
    """Base of qrank's value types: two values are equal iff they are of
    the same class with equal `_key()` tuples, and a value hashes as its
    key.  An unhashable subclass sets `__hash__ = None`."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class FieldContext(Value):
    """Immutable arithmetic context for F_q, q = p^e."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        if e < 1:
            raise InvalidValue("extension degree must be >= 1")
        # 2^e > FIELD_LIMIT once e reaches its bit length, so p**e is never
        # formed for a huge e
        if p >= 2 and (e >= FIELD_LIMIT.bit_length() or p**e > FIELD_LIMIT):
            raise InvalidValue(f"q = {p}^{e} is above the field limit of {FIELD_LIMIT}")
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        mod = None if modulus is None else tuple(int(c) % p for c in modulus)
        if mod is not None and (len(mod) != e + 1 or mod[-1] != 1):
            raise ReducibleModulus(f"modulus must be monic of degree {e} (constant term first)")
        if e == 1:
            mod = None  # every monic linear polynomial gives F_p
        elif mod is None:
            mod = _default_modulus(p, e)
        elif not _is_irreducible(mod, p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over F_{p}")
        self.p, self.e, self.q, self.modulus = p, e, p**e, mod
        self._build_tables()

    def _build_tables(self):
        # add digit by digit; multiply through the log/antilog pair of a
        # primitive element
        p, q = self.p, self.q
        add, size = [0], 1
        for _ in range(self.e):
            # prepend one low base-p digit: a = a0 + p a1, b = b0 + p b1
            add = [
                (a0 + b0) % p + p * add[a1 * size + b1]
                for a1 in range(size)
                for a0 in range(p)
                for b1 in range(size)
                for b0 in range(p)
            ]
            size *= p
        self._add = tuple(add)
        self._neg = tuple(_undigits([(-c) % p for c in _digits(a, p, self.e)], p) for a in range(q))
        antilog = self._primitive_powers()
        log = [0] * q
        for i, v in enumerate(antilog):
            log[v] = i
        antilog += antilog
        mul = [0] * q
        for a in range(1, q):
            mul += [0] + [antilog[log[a] + log[b]] for b in range(1, q)]
        self._mul = tuple(mul)
        self._inv = (0,) + tuple(antilog[q - 1 - log[a]] for a in range(1, q))

    def _primitive_powers(self):
        # g^0, ..., g^(q-2) for the smallest primitive g, by polynomial
        # products mod the modulus (mod x for F_p); one exists because the
        # modulus is irreducible, but x itself need not be primitive
        p, e, modulus = self.p, self.e, list(self.modulus or (0, 1))
        for g in range(1, self.q):
            gen = _digits(g, p, e)
            powers, x = [1], [1]
            while True:
                x = _poly_rem(_poly_mulmod_p(x, gen, p), modulus, p)
                v = _undigits(x, p)
                if v == 1:
                    break
                powers.append(v)
            if len(powers) == self.q - 1:
                return powers

    # -- public operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._inv[a]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        result, base = 1, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def elements(self):
        return range(self.q)

    @property
    def tables(self):
        """The read-only flat tables (add, mul, neg, inv) behind these
        operations: a + b = add[a * q + b], a * b = mul[a * q + b], -a =
        neg[a] and 1/a = inv[a] for a != 0 (inv[0] is 0).  Hot loops index
        them directly instead of calling a method per element."""
        return self._add, self._mul, self._neg, self._inv

    # -- identity / serialization ------------------------------------------

    def _key(self):
        return (self.p, self.e, self.modulus)

    key = property(_key)

    def __repr__(self):
        if self.e == 1:
            return f"FieldContext(p={self.p})"
        return f"FieldContext(p={self.p}, e={self.e}, modulus={list(self.modulus)})"

    def to_json(self) -> dict:
        if self.e == 1:
            return {"q": self.p}
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, obj) -> "FieldContext":
        """The field of a code document: {"q": prime power} (`field_of_order`)
        or {"p": prime} with optional "e" >= 1 and "modulus" (coefficients,
        constant term first); MalformedCode for anything else."""
        if isinstance(obj, dict) and obj.keys() == {"q"} and _is_int(obj["q"]) and obj["q"] >= 2:
            return field_of_order(obj["q"])
        if (
            isinstance(obj, dict)
            and "p" in obj
            and obj.keys() <= {"p", "e", "modulus"}
            and _is_int(obj["p"])
            and _is_int(obj.get("e", 1))
            and obj.get("e", 1) >= 1
            and isinstance(obj.get("modulus", []), list)
            and all(_is_int(c) for c in obj.get("modulus", []))
        ):
            return cls(obj["p"], obj.get("e", 1), obj.get("modulus"))
        raise MalformedCode(
            'a field is {"q": prime power} or {"p": prime, "e": integer >= 1, "modulus": [integers]}'
        )


def field_of_order(q: int) -> FieldContext:
    """F_q with its default modulus, for a prime power q <= FIELD_LIMIT: a
    finite field is fixed up to isomorphism by its order."""
    if not 2 <= q <= FIELD_LIMIT:
        raise InvalidValue(f"the field order q = {q} is outside [2, {FIELD_LIMIT}]")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = next(e for e in range(1, q.bit_length() + 1) if p**e >= q)
    if p**e != q:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return FieldContext(p, e)


def gf_new(p: int, e: int = 1, modulus=None) -> FieldContext:
    return FieldContext(p, e, modulus)
