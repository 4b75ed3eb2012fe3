"""Exact arithmetic in SL2(Z): generator words, orders, normal forms.

Conventions used throughout the package:

* matrices are row-major ``[[a, b], [c, d]]`` with integer entries and
  determinant ``a*d - b*c == 1`` (arbitrary precision, never floats);
* a word is evaluated left to right, i.e. the leftmost factor is the
  outermost one, the one applied *last* to a column vector;
* the standard generators are

      S = [[0, 1], [-1, 0]]      order 4
      T = [[0, 1], [-1, -1]]     order 3
      U = [[1, 0], [1, 1]]       infinite order, U = S*T*T

  and ``U**a == [[1, 0], [a, 1]]``.

``Mat2`` is the public, validated type: its constructor checks that the
entries are ints and the determinant is 1, so a matrix is validated where
a user builds one and once per matrix the package returns.  Intermediate
products never build a ``Mat2``; they run on plain ``(a, b, c, d)`` int
tuples, since a product of determinant-1 matrices has determinant 1.  One
kernel, :func:`word_product`, multiplies out words U^x0*S * U^x1*S * ...;
it serves ``eval_word``, ``eval_tokens``, ``TSNormalForm.to_matrix``,
``eta.is_eta``, ``eta.word_matrix`` and ``frieze.continuant``, and with
:func:`mul` the matrix frieze in :mod:`quiddity.frieze`.  It is written
once, in :mod:`quiddity.eta` (so testing a quiddity sequence never loads
this module), and imported here under its public name.  :func:`mul` is
the one 2x2 product: ``Mat2``'s ``@`` and ``**`` run on it too.
``ts_normal_form`` descends on tuples.
"""

from collections import namedtuple

from .errors import (NORMAL_FORM_LETTER_CAP, InvalidSequenceError, NotUnimodularError, _check_int,
                     check_limit)
from .eta import _word_product as word_product


class Mat2:
    """A 2x2 integer matrix of determinant 1; equal only to a Mat2 with the same entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if not type(a) is type(b) is type(c) is type(d) is int:  # also refuses bool
            raise InvalidSequenceError(f"matrix entries must be ints, got {[[a, b], [c, d]]}")
        self.a, self.b, self.c, self.d = a, b, c, d
        if a * d - b * c != 1:
            raise NotUnimodularError(f"determinant is not 1: {self.rows()}")

    def __eq__(self, other):
        if type(other) is not Mat2:
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"Mat2(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(*mul(self.entries(), other.entries()))

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, k: int) -> "Mat2":
        """Square and multiply on tuples; an exponent that is not an int is refused."""
        _check_int(k, "exponent")
        a, b, c, d = self.entries()
        base = (a, b, c, d) if k >= 0 else (d, -b, -c, a)  # the inverse
        out = IDENTITY
        k = abs(k)
        while k:
            if k & 1:
                out = mul(out, base)
            base = mul(base, base)
            k >>= 1
        return Mat2(*out)

    def inverse(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]

    def entries(self) -> tuple:
        """(a, b, c, d), the form the integer kernel works on."""
        return self.a, self.b, self.c, self.d

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


I = Mat2(1, 0, 0, 1)
S = Mat2(0, 1, -1, 0)
T = Mat2(0, 1, -1, -1)
U = Mat2(1, 0, 1, 1)


def u_pow(a: int) -> Mat2:
    """U**a without repeated multiplication."""
    return Mat2(1, 0, a, 1)


IDENTITY = (1, 0, 0, 1)


def mul(m, n) -> tuple:
    """Product of two ``(a, b, c, d)`` int tuples."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


class SUWord(namedtuple("SUWord", "factors prefix_s trailing_s", defaults=(False, True))):
    """A word S^b0 * U^a1*S * U^a2*S * ... * U^an * S^b1.

    ``factors`` holds the exponents (a1, ..., an); every factor is followed
    by an S except the last, which carries one only when ``trailing_s``.
    Exponents may be any nonzero integers for evaluation; the quiddity
    criterion additionally wants them all >= 1.
    """

    __slots__ = ()

    def __str__(self):
        parts = ["S"] if self.prefix_s else []
        for i, a in enumerate(self.factors):
            parts.append("U" if a == 1 else f"U^{a}")
            if i + 1 < len(self.factors) or self.trailing_s:
                parts.append("S")
        if not self.factors and self.trailing_s:
            parts.append("S")
        return "*".join(parts) if parts else "I"


def eval_word(word: SUWord) -> Mat2:
    """Multiply out a structured word, leftmost factor first."""
    m = (0, 1, -1, 0) if word.prefix_s else IDENTITY
    factors = word.factors
    if word.trailing_s:
        return Mat2(*word_product(factors or (0,), m))  # U^0*S == S
    if factors:
        m = mul(word_product(factors[:-1], m), (1, 0, factors[-1], 1))  # * U^x
    return Mat2(*m)


def eval_tokens(text: str) -> Mat2:
    """Evaluate a ``*``-separated word of ``S`` and ``U^k`` tokens.

    ``U`` abbreviates ``U^1``; exponents may be negative.  Raises
    ValueError on anything else.
    """
    exponents = []
    x = 0  # exponent of the U run not yet closed by an S
    for tok in text.split("*"):
        tok = tok.strip()
        if tok == "S":
            exponents.append(x)
            x = 0
        elif tok == "U":
            x += 1
        elif tok.startswith("U^"):
            try:
                x += int(tok[2:])
            except ValueError:
                raise ValueError(f"bad word token: {tok!r}") from None
        else:
            raise ValueError(f"bad word token: {tok!r}")
    return Mat2(*mul(word_product(exponents), (1, 0, x, 1)))  # * U^x


_TORSION_ORDER = {-1: 3, 0: 4, 1: 6}


def element_order(m: Mat2):
    """Exact order of m in SL2(Z): an int, or None for infinite order.

    The trace decides it.  |trace| > 2 is hyperbolic and trace +-2 other
    than +-I parabolic, both of infinite order.  For |trace| < 2,
    Cayley-Hamilton (m^2 = trace*m - I) gives m^2 = -I at trace 0,
    m^3 = I at trace -1 and m^3 = -I at trace 1, so the order is 4, 3 or 6.
    """
    if m == I:
        return 1
    tr = m.trace
    if tr == -2:
        return 2 if m == -I else None
    return _TORSION_ORDER.get(tr)


class TSNormalForm(namedtuple("TSNormalForm", "sign b0 exponents b1")):
    """sign * T^b0 * S * T^e1 * S * ... * T^en * S^b1 with each e in {1, 2}.

    b0 ranges over {0, 1, 2}: a leading T^2 (e.g. for the matrix T^2
    itself) cannot be traded away, since the sign only absorbs powers
    of S^2.  b1 is {0, 1}.
    """

    __slots__ = ()

    def to_matrix(self) -> Mat2:
        # T == U^-1*S and S == U^0*S, so the form is one U/S word
        exponents = [-1] * self.b0
        for e in self.exponents:
            exponents += [0] + [-1] * e
        exponents += [0] * self.b1
        a, b, c, d = word_product(exponents)
        s = self.sign
        return Mat2(s * a, s * b, s * c, s * d)

    def __str__(self):
        parts = []
        if self.b0:
            parts.append("T" if self.b0 == 1 else f"T^{self.b0}")
        for e in self.exponents:
            parts.append("S")
            parts.append("T" if e == 1 else f"T^{e}")
        if self.b1:
            parts.append("S")
        body = "*".join(parts) if parts else "I"
        return body if self.sign == 1 else "-" + body


# T^-b0 and S^-b1: T^-1 == T^2 and S^-1 == -S
_T_INV_POWERS = (IDENTITY, (-1, -1, 1, 0), (0, 1, -1, -1))
_S_INV_POWERS = (IDENTITY, (0, -1, 1, 0))


def ts_normal_form(m: Mat2) -> TSNormalForm:
    """Rewrite m as sign * T^b0 * S*T^e1 * ... * S*T^en * S^b1.

    With L = [[1, 1], [0, 1]], S*T == -L and S*T^2 == U, so the form is
    sign * T^b0 * (+-P) * S^b1 with P a product of L and U.  Such products
    are exactly the determinant-1 matrices without negative entries, and
    Stern-Brocot descent reads P off: it starts with L^q when its first
    row dominates the second, else with U^q.  PSL2(Z) is the free product
    of <S> and <T>, of orders 2 and 3, so the form is unique and exactly
    one b0 in {0, 1, 2} and b1 in {0, 1} leave such a +-P.  A form of more
    than NORMAL_FORM_LETTER_CAP letters raises InvalidSequenceError before
    any exponent is written.
    """
    for k in range(6):
        b0, b1 = divmod(k, 2)
        p = mul(mul(_T_INV_POWERS[b0], m.entries()), _S_INV_POWERS[b1])
        if min(p) >= 0 or max(p) <= 0:
            break
    sign = 1 if min(p) >= 0 else -1
    a, b, c, d = (sign * x for x in p)
    runs = []  # (exponent, run length), leftmost first
    while b or c:  # P != I
        if a >= c and b >= d:  # P = L^q * rest; d >= 1 since a*d - b*c == 1
            q = b // d if c == 0 else min(a // c, b // d)
            a, b = a - q * c, b - q * d
            runs.append((1, q))
            if q % 2:
                sign = -sign  # each S*T is -L
        else:  # P = U^q * rest; a >= 1 likewise
            q = c // a if b == 0 else min(c // a, d // b)
            c, d = c - q * a, d - q * b
            runs.append((2, q))
    size = (b0 > 0) + 2 * sum(q for _, q in runs) + b1
    check_limit(size, NORMAL_FORM_LETTER_CAP, "normal form needs {} S/T letters")
    exponents = tuple(e for e, q in runs for _ in range(q))
    return TSNormalForm(sign=sign, b0=b0, exponents=exponents, b1=b1)
