"""An independent oracle for `repn.products_equal`: on seeded random chains
of Laurent-polynomial matrices its verdict must be the verdict of the exact
products, `product(lhs) == product(rhs)`, whether or not the two sides are
cleared by the same total scaling; tampered twins must read False, and a
factor with a non-constant denominator must leave the verdict to the exact
path (None).  Chains that share a run of factors, which the image
multiplies out once, are checked in every layout of that run."""

import hashlib
import io
import random
from fractions import Fraction

import pytest

from qweyl import cli
from qweyl.qring import Q, LaurentPoly, RingElem, parse_ring_elem
from qweyl.repn import QMatrix, _shared_run, product, products_equal
from qweyl.reports import matrix_check, product_check

SEEDS = range(240)


def rand_entry(rng):
    """Zero about a third of the time, else up to four terms with exponents
    of every class mod 8, negative ones included, and rational coefficients."""
    if rng.random() < 0.3:
        return RingElem(LaurentPoly({}))
    return RingElem(LaurentPoly({
        rng.randint(-12, 12): Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
        for _ in range(rng.randint(1, 4))}))


def rand_matrix(rng, rows, cols):
    return QMatrix([[rand_entry(rng) for _ in range(cols)] for _ in range(rows)])


def copy(m):
    return QMatrix(m.entries)


# scalars that move a factor's clearing: its denominator, its power of q,
# or both
SCALARS = tuple(map(parse_ring_elem, ("2", "1/3", "5/2*x^-8", "-x^3", "3*q^2")))


def chain_pair(seed):
    """Two chains of 2 to 4 factors: the same chain rebuilt (rectangular
    factors allowed), a shuffle of the same square factors, or a factor
    swapped with a polynomial in itself.  A third of the right-hand chains
    then carry a scalar c on their first factor and 1/c on their last, and
    a third are multiplied out to one factor, so the two sides are mostly
    cleared by different total scalings; neither move changes the product."""
    rng = random.Random(seed)
    length = rng.randint(2, 4)
    kind = seed % 3
    if kind == 0:
        dims = [rng.randint(1, 4) for _ in range(length + 1)]
        lhs = [rand_matrix(rng, a, b) for a, b in zip(dims, dims[1:])]
        rhs = [copy(f) for f in lhs]
    else:
        n = rng.randint(1, 4)
        lhs = [rand_matrix(rng, n, n) for _ in range(length)]
        if kind == 1:
            rhs = lhs[:]
            rng.shuffle(rhs)
        else:
            # a polynomial in a commutes with a
            a = lhs[0]
            m = a * a + a.scale(RingElem.x_power(rng.randint(-9, 9))) \
                + QMatrix.identity(n).scale(Fraction(rng.randint(1, 5), 2))
            lhs, rhs = [a, m] + lhs[1:], [m, a] + lhs[1:]
    move = rng.randrange(3)
    if move == 1:
        c = rng.choice(SCALARS)
        rhs = [rhs[0].scale(c)] + rhs[1:-1] + [rhs[-1].scale(c.inverse())]
    elif move == 2:
        rhs = [product(rhs)]
    return lhs, rhs


def bumped(m, i, j, top, sign):
    """m with sign * 1 added to the coefficient of the highest (top) or
    lowest exponent of entry (i, j)."""
    poly = m[i, j].num
    e = poly.max_exp() if top else poly.min_exp()
    rows = [list(r) for r in m.entries]
    rows[i][j] = rows[i][j] + RingElem.x_power(e) * sign
    return QMatrix(rows)


def twins(m, rng):
    """Tampered copies of m: +-1 on the highest and on the lowest coefficient
    of one nonzero entry.  A sign that cancels the coefficient changes the
    entry's exponent range, and so the twin's scaling."""
    spots = [(i, j) for i in range(m.rows) for j in range(m.cols) if m[i, j]]
    if not spots:
        return
    i, j = rng.choice(spots)
    for top in (True, False):
        for sign in (1, -1):
            yield bumped(m, i, j, top, sign)


@pytest.mark.parametrize("seed", SEEDS)
def test_verdict_matches_exact_products(seed):
    lhs, rhs = chain_pair(seed)
    verdict = products_equal(lhs, rhs)
    assert verdict is not None
    assert verdict == (product(lhs) == product(rhs))


def test_oracle_sees_both_verdicts():
    verdicts = [products_equal(*chain_pair(seed)) for seed in SEEDS]
    assert verdicts.count(True) >= 120 and verdicts.count(False) >= 40


@pytest.mark.parametrize("seed", SEEDS[:80])
def test_tampered_product_is_told_apart(seed):
    # one factor, the exact product itself: the bump sits on the highest or
    # the lowest digit of the entry's image
    rng = random.Random(seed)
    lhs, _ = chain_pair(seed)
    p = product(lhs)
    for bad in twins(p, rng):
        assert products_equal([p], [bad]) is False


@pytest.mark.parametrize("seed", SEEDS[:80])
def test_tampered_factor_is_told_apart(seed):
    rng = random.Random(seed)
    lhs, _ = chain_pair(seed)
    k = rng.randrange(len(lhs))
    for bad in twins(lhs[k], rng):
        rhs = lhs[:k] + [bad] + lhs[k + 1:]
        assert products_equal(lhs, rhs) == (product(lhs) == product(rhs))


def test_tampered_factors_mostly_change_the_product():
    differ = 0
    for seed in SEEDS[:80]:
        rng = random.Random(seed)
        lhs, _ = chain_pair(seed)
        k = rng.randrange(len(lhs))
        for bad in twins(lhs[k], rng):
            differ += products_equal(lhs, lhs[:k] + [bad] + lhs[k + 1:]) is False
    assert differ >= 100


def shared_run_layouts(seed):
    """Pairs of chains that share the run (a, b, c), the same objects, each
    with the run's (lhs offset, rhs offset, length) as `_shared_run` must
    find it; and the factors b, inside the run, and d, outside it.  d is a
    polynomial in the product a b c, so it commutes with the run and every
    pair has equal products."""
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    a, b, c, e = (rand_matrix(rng, n, n) for _ in range(4))
    d = (a * b * c).scale(RingElem.x_power(rng.randint(-9, 9))) \
        + QMatrix.identity(n).scale(Fraction(rng.randint(1, 5), 2))
    layouts = {
        "rotation": ((a, b, c, d), (d, a, b, c), (0, 1, 3)),
        "prefix": ((a, b, c, d), (a, b, c, copy(d)), (0, 0, 3)),
        "suffix": ((d, a, b, c), (copy(d), a, b, c), (1, 1, 3)),
        "identical": ((a, b, c, d), (a, b, c, d), (0, 0, 4)),
        "offsets": ((e, d, a, b, c), (e, a, b, c, d), (2, 1, 3)),
    }
    return layouts, b, d


LAYOUTS = ("rotation", "prefix", "suffix", "identical", "offsets")


@pytest.mark.parametrize("layout", LAYOUTS)
def test_shared_run_is_found(layout):
    lhs, rhs, run = shared_run_layouts(0)[0][layout]
    assert _shared_run(lhs, rhs) == run
    assert _shared_run(rhs, lhs) == (run[1], run[0], run[2])


def test_chains_of_copies_share_no_run():
    lhs, rhs = chain_pair(0)
    assert _shared_run(lhs, rhs)[2] == 0


@pytest.mark.parametrize("layout", LAYOUTS)
def test_shared_run_verdicts_match_exact_products(layout):
    for seed in SEEDS[:40]:
        lhs, rhs, _ = shared_run_layouts(seed)[0][layout]
        assert product(lhs) == product(rhs)
        assert products_equal(lhs, rhs) is True


def swapped(chain, old, new):
    return tuple(new if f is old else f for f in chain)


@pytest.mark.parametrize("layout", ("rotation", "prefix", "suffix", "offsets"))
def test_tampered_inside_or_outside_the_run_reads_false(layout):
    # a twin of b in the left chain only, which breaks the run; where d sits
    # on the other side of the run in the two chains, a twin of b in both,
    # which keeps the run shared; a twin of d in the left chain only, outside
    # the run.  A twin can leave the product as it was (a zero column of a
    # times the bumped row of b), so the verdict follows the exact products.
    cases = false = 0
    for seed in SEEDS[:40]:
        rng = random.Random(seed)
        layouts, b, d = shared_run_layouts(seed)
        lhs, rhs, _ = layouts[layout]
        bad_b, bad_d = next(twins(b, rng)), next(twins(d, rng))
        tampered = [(swapped(lhs, b, bad_b), rhs), (swapped(lhs, d, bad_d), rhs)]
        if layout in ("rotation", "offsets"):
            tampered.append((swapped(lhs, b, bad_b), swapped(rhs, b, bad_b)))
        for tl, tr in tampered:
            verdict = products_equal(tl, tr)
            assert verdict == (product(tl) == product(tr))
            cases += 1
            false += verdict is False
    assert false >= 0.8 * cases


@pytest.mark.parametrize("k", range(1, 81))
def test_power_of_two_is_not_q(k):
    # 2^k and q collide in the image at width w = k; the width must be
    # above the bound on both sides
    assert products_equal([QMatrix([[2 ** k]])], [QMatrix([[Q]])]) is False
    assert products_equal([QMatrix([[Q]])], [QMatrix([[2 ** k]])]) is False


@pytest.mark.parametrize("k", range(2, 81))
def test_bound_covers_the_difference_of_the_sides(k):
    # 2^(k-1) - (q - 2^(k-1)) = 2^k - q: each side stays below 2^k, their
    # difference does not, and it vanishes at width k
    half = 2 ** (k - 1)
    assert products_equal([QMatrix([[half]])], [QMatrix([[Q - half]])]) is False


@pytest.mark.parametrize("k", range(3, 81))
def test_bound_counts_the_paths(k):
    # four paths of 2^(k-2) sum to 2^k, which collides with q at width k
    ones = QMatrix([[1, 1, 1, 1]])
    column = QMatrix([[2 ** (k - 2)]] * 4)
    assert products_equal([ones, column], [QMatrix([[Q]])]) is False


def test_bound_reached_with_equal_sides():
    # every path adds the largest coefficients with one sign, so each entry
    # of the product has an l1 norm of exactly B
    j = QMatrix([[RingElem.from_rational(7) + Q * 7] * 3] * 3)
    assert products_equal([j, j, j], [copy(j), copy(j), copy(j)]) is True
    top = bumped(j, 2, 2, True, 1)
    assert products_equal([j, j, top], [j, j, j]) is False
    assert products_equal([j, j, j], [-j, -j, -j]) is False


POLE = parse_ring_elem("1/(q-2)")


def test_rational_function_entry_leaves_it_to_the_exact_path():
    f = QMatrix([[POLE, 1], [0, Q]])
    a = rand_matrix(random.Random(1), 2, 2)
    assert products_equal([f], [f]) is None
    assert products_equal([a, f], [f, a]) is None
    assert product_check("pole", [a, f], [a, f]) == ("pole", True, "")


def test_different_scalings_are_crossed():
    # the left side is cleared by 2, then by q; the right side by 1
    half, two, one = (QMatrix([[v]]) for v in (Fraction(1, 2), 2, 1))
    assert products_equal([half, two], [one, one]) is True
    assert products_equal([one, one], [half, two]) is True
    x_inv, x_one = QMatrix([[RingElem.x_power(-1)]]), QMatrix([[RingElem.x_power(1)]])
    assert products_equal([x_inv, x_one], [one, one]) is True
    assert products_equal([one, one], [x_inv, x_one]) is True


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_against_its_own_product(seed):
    lhs, _ = chain_pair(seed)
    assert products_equal(lhs, [product(lhs)]) is True


@pytest.mark.parametrize("c", ("2", "1/3", "5/2*x^-8"))
def test_scalar_moved_between_factors(c):
    c = parse_ring_elem(c)
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)
        assert products_equal([a.scale(c), b.scale(c.inverse())], [a, b]) is True


def test_width_bounds_the_crossed_sides():
    # q/4 against 256 is crossed to q against 4 * 256 = 2^10, which collides
    # with q at width 10; B_lhs + B_rhs = 257 alone would give that width
    assert products_equal([QMatrix([[Q * Fraction(1, 4)]])], [QMatrix([[256]])]) is False
    assert products_equal([QMatrix([[256]])], [QMatrix([[Q * Fraction(1, 4)]])]) is False


def test_shapes():
    rng = random.Random(2)
    a, b = rand_matrix(rng, 2, 3), rand_matrix(rng, 2, 2)
    with pytest.raises(ValueError, match="shape mismatch"):
        products_equal([a, b], [a, b])
    # products of different shapes are not equal
    c = rand_matrix(rng, 3, 2)
    assert products_equal([a, c], [c, a]) is False


@pytest.mark.parametrize("seed", SEEDS[:60])
def test_product_check_reads_as_matrix_check(seed):
    lhs, rhs = chain_pair(seed)
    assert product_check("c", lhs, rhs) == matrix_check("c", product(lhs), product(rhs))


def test_four_braid_with_a_pole_in_beta1_keeps_its_bytes():
    # each check on V2 and up meets a rational-function entry of the twist,
    # so it runs on the exact path; the digest is of the output before the
    # ring image existed
    buf = io.StringIO()
    assert cli.run(["verify", "four-braid", "--max-dim", "3", "--beta1", "1/(q-2)"],
                   out=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "39b9f41787b5e839693197f2415cf255ecc7d3245d566ca64f0f84412108d7a8"
