"""The package's records are named tuples: read-only fields, equality and
hashing by value, keyword construction with defaults, and a repr that names
each field."""

import re
from fractions import Fraction

import pytest

from qweyl.braidrep import BraidWord, RepBundle
from qweyl.qring import ONE
from qweyl.repn import QMatrix, irrep
from qweyl.reports import Check, Report
from qweyl.twist import TwistConfig, beta_coeffs, twist_t

RECORDS = [
    (Check(name="c", ok=True), "ok"),
    (Report(title="r", checks=()), "checks"),
    (irrep(2), "H"),
    (TwistConfig(beta1=1), "beta1"),
    (beta_coeffs(2, 1), "betas"),
    (BraidWord(n=2, letters=((0, 1),)), "letters"),
    (RepBundle(d=1, n=1, twist=QMatrix.identity(1), braid=QMatrix.identity(1)), "twist"),
]


@pytest.mark.parametrize("record, field", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_fields_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_twist_config_by_value():
    by_keyword, by_position = TwistConfig(beta1=1), TwistConfig(1, "standard")
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert by_keyword.beta1 == ONE and by_keyword.alpha is None
    # the cache of twist_t is keyed by the config, so both find one matrix
    assert twist_t(3, by_keyword) is twist_t(3, by_position)
    assert TwistConfig(1, "k_conjugate", 1) != TwistConfig(1, "k_conjugate", Fraction(1, 2))


def test_repr_names_the_fields():
    assert repr(Check("c", False)) == "Check(name='c', ok=False, detail='')"
    assert repr(TwistConfig(beta1=0, variant="k_conjugate", alpha=Fraction(1, 2))) == \
        "TwistConfig(beta1=RingElem(0), variant='k_conjugate', alpha=Fraction(1, 2))"
    assert repr(BraidWord.parse("1' 0", 2)) == "BraidWord(n=2, letters=((1, -1), (0, 1)))"


@pytest.mark.parametrize("build, message", [
    (lambda: BraidWord(n=2, letters=((2, 1),)),
     "generator index 2 out of range for 2 strands"),
    (lambda: BraidWord(n=2, letters=((0, 2),)), "exponent must be +1 or -1, got 2"),
    (lambda: TwistConfig(beta1=1, variant="nonsense"), "unknown variant 'nonsense' "
     "(choose from standard, w_inverse, k_conjugate, u_conjugate, affine)"),
    (lambda: TwistConfig(beta1=1, variant="k_conjugate"), "k_conjugate needs an alpha"),
    (lambda: TwistConfig(1, "k_conjugate", Fraction(1, 3)),
     "alpha must be a half-integer, got 1/3"),
    (lambda: TwistConfig(beta1=1, alpha=1),
     "alpha is only meaningful for the k_conjugate variant"),
    # _replace builds the record again, through the same checks
    (lambda: TwistConfig(beta1=1)._replace(variant="k_conjugate"),
     "k_conjugate needs an alpha"),
    (lambda: BraidWord.parse("0 1", 2)._replace(n=1),
     "generator index 1 out of range for 1 strands"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build()
