"""Integer polynomials: all arithmetic on count-polynomial coefficients, as
tuples of ints, constant first, with no trailing zeros.  No Fraction enters:
gcds and the square-free split keep primitive parts (content 1, leading
coefficient > 0), which by Gauss's lemma divide over the integers what they
divide over the rationals.
"""

import math


def product(a, b) -> tuple[int, ...]:
    """a b, by convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def power(p, k: int) -> tuple[int, ...]:
    """p^k, for k >= 0, by k products."""
    out = (1,)
    for _ in range(k):
        out = product(out, p)
    return out


def evaluate(p, num: int, den: int) -> int:
    """The numerator of p(num/den) over den^deg p, by Horner's rule."""
    total, scale = 0, 1
    for c in reversed(p):
        total, scale = total * num + c * scale, scale * den
    return total


def divide(a, b) -> tuple[int, ...]:
    """a / b; ArithmeticError unless b divides a over the integers."""
    r, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(q))):
        q[i] = r[i + len(b) - 1] // b[-1]
        for j, y in enumerate(b):
            r[i + j] -= q[i] * y
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def _primitive(p) -> tuple[int, ...]:
    """p over its content, with a positive leading coefficient; () for 0."""
    g = math.gcd(*p) * (-1 if p and p[-1] < 0 else 1)
    return tuple(c // g for c in p) if g else ()


def gcd(a, b) -> tuple[int, ...]:
    """The primitive gcd, by primitive pseudo-remainders: while deg r >= deg
    b, r is scaled by lead(b) and its leading term cancelled."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            top, shift = r[-1], len(r) - len(b)
            r = [c * b[-1] for c in r]
            for j, y in enumerate(b):
                r[shift + j] -= top * y
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive(r)
    return a


def squarefree(p) -> list[tuple[tuple[int, ...], int]]:
    """Musser's split: primitive square-free pairwise coprime f_k with p =
    c * prod f_k^k for a constant c, as (f_k, k) in increasing k.  With a =
    gcd(p, p') and b = p / a, the product of every f_k, for k = 1, 2, ...
    while b is not constant: c = gcd(a, b), f_k = b / c, then a, b = a / c, c."""
    p = _primitive(p)
    a = gcd(p, [k * c for k, c in enumerate(p)][1:])
    b, out, k = divide(p, a), [], 1
    while len(b) > 1:
        c = gcd(a, b)
        f = divide(b, c)
        if len(f) > 1:
            out.append((f, k))
        a, b, k = divide(a, c), c, k + 1
    # Checked by a raise, so that it holds under python -O.
    if sum(m * (len(f) - 1) for f, m in out) != len(p) - 1:
        raise ArithmeticError("square-free split: factor degrees do not sum to the degree")
    return out
