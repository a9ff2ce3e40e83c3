"""The expression reader against the ring operators as an oracle.

Seeded random expression trees are rendered to text, and `parse_ring_elem`
on that text must equal the value built from the same tree with the
`RingElem` operators.  The renderer writes the fewest parentheses the
grammar needs, plus some redundant ones, and writes each exponent bare,
signed or parenthesized.  Every error message of the reader is pinned by
one input.
"""

import random
import re

import pytest

from qweyl.qring import ONE, Q, X, RingElem, parse_ring_elem

# binding levels: a child below the level its place needs is parenthesized
SUM, PRODUCT, SIGN, POWER, ATOM = range(5)
DIVISION_BY_ZERO = "division by zero in expression"


def random_tree(rng, depth):
    """A random tree of nested tuples, at most `depth` operators deep."""
    if depth == 0 or rng.random() < 0.25:
        return ("atom", rng.choice([str(rng.randint(0, 9)), "x", "q"]))
    kind = rng.choice(["+", "-", "*", "/", "sign", "^", "paren"])
    if kind == "sign":
        return ("sign", rng.choice("+-"), random_tree(rng, depth - 1))
    if kind == "^":
        n = rng.randint(-3, 3)
        styles = ["signed", "paren"] + (["bare"] if n >= 0 else [])
        return ("^", random_tree(rng, depth - 1), n, rng.choice(styles))
    if kind == "paren":
        return ("paren", random_tree(rng, depth - 1))
    return (kind, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def level(tree):
    kind = tree[0]
    if kind in ("atom", "paren"):
        return ATOM
    return {"+": SUM, "-": SUM, "*": PRODUCT, "/": PRODUCT,
            "sign": SIGN, "^": POWER}[kind]


def render(tree, need=SUM):
    """The text of tree, parenthesized when it binds looser than `need`."""
    kind = tree[0]
    if kind == "atom":
        text = tree[1]
    elif kind == "paren":
        text = "(%s)" % render(tree[1])
    elif kind == "sign":
        text = tree[1] + render(tree[2], SIGN)
    elif kind == "^":
        _, base, n, style = tree
        exp = {"bare": str(n), "signed": "%+d" % n, "paren": "(%+d)" % n}[style]
        text = "%s^%s" % (render(base, POWER), exp)
    else:
        # left-associative: the right operand must bind tighter
        text = "%s %s %s" % (render(tree[1], level(tree)), kind,
                             render(tree[2], level(tree) + 1))
    return text if level(tree) >= need else "(%s)" % text


def value(tree):
    """The tree's value built with the RingElem operators."""
    kind = tree[0]
    if kind == "atom":
        return {"x": X, "q": Q}.get(tree[1]) or RingElem.from_rational(int(tree[1]))
    if kind == "paren":
        return value(tree[1])
    if kind == "sign":
        v = value(tree[2])
        return -v if tree[1] == "-" else v
    if kind == "^":
        return value(tree[1]) ** tree[2]
    a, b = value(tree[1]), value(tree[2])
    if kind == "/" and b.is_zero:
        raise ValueError(DIVISION_BY_ZERO)
    return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__, "/": a.__truediv__}[kind](b)


@pytest.mark.parametrize("seed", range(4))
def test_random_trees_match_ring_operators(seed):
    rng = random.Random(seed)
    zero_divisions = 0
    for _ in range(250):
        # three levels keep every power within MAX_POWER_SIZE: (q^9)^3 at most
        tree = random_tree(rng, 3)
        text = render(tree)
        try:
            expected = value(tree)
        except (ValueError, ZeroDivisionError) as exc:
            # 0^-n raises from the ring itself, as it does through the reader
            zero_divisions += 1
            with pytest.raises(type(exc), match="^%s$" % re.escape(str(exc))):
                parse_ring_elem(text)
            continue
        assert parse_ring_elem(text) == expected, text
    assert zero_divisions > 0


def test_renderer_needs_few_parentheses():
    assert render(("sign", "-", ("^", ("atom", "x"), 2, "bare"))) == "-x^2"
    assert render(("^", ("sign", "-", ("atom", "x")), 2, "bare")) == "(-x)^2"
    assert render(("-", ("atom", "1"), ("-", ("atom", "x"), ("atom", "q")))) \
        == "1 - (x - q)"
    assert render(("*", ("atom", "2"), ("sign", "-", ("atom", "x")))) == "2 * -x"


@pytest.mark.parametrize("text, expected", [
    ("x^2^3", X ** 6),                       # ^ is left-associative
    ("-x^2", -(X ** 2)),                     # signs bind looser than ^
    ("2*-x", -2 * X),
    ("x^(+2)", X ** 2),
    ("x^-2", X ** -2),
    ("1 - x - q", ONE - X - Q),
])
def test_pinned_values(text, expected):
    assert parse_ring_elem(text) == expected


@pytest.mark.parametrize("text, message", [
    ("y", "unexpected character 'y' in expression 'y'"),
    ("1/0", "division by zero in expression"),
    ("x^513", "power ^513 is too large: |exponent| times the size of its base "
              "must be at most 512"),
    ("(x", "missing closing parenthesis"),
    (")", "unexpected token ')' in expression"),
    ("x^x", "exponent must be an integer"),
    ("x^(2", "missing closing parenthesis in exponent"),
    ("x)", "trailing input in expression 'x)'"),
    pytest.param("(" * 3000 + "1" + ")" * 3000, "expression nested too deeply",
                 id="3000 parentheses"),
    ("", "unexpected end of expression"),
    ("x +", "unexpected end of expression"),
])
def test_error_messages(text, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse_ring_elem(text)
