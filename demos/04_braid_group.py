#!/usr/bin/env python3
"""Tensor representations of the type-B braid group.

The braid matrix represents the ordinary generators; the twist matrix on
the first tensor factor represents the cylinder generator.  All defining
relations are checked exactly, and arbitrary braid words can be evaluated.
A bundle is built from beta1 alone, here beta1 = 1, with the standard twist.
"""

from qweyl import (
    ONE,
    BraidWord,
    QMatrix,
    eval_braid_word,
    verify_zbn_relations,
    zbn_generators,
)

print("== relation suite on three strands ==")
for d in (2, 3):
    report = verify_zbn_relations(d, 3, ONE)
    print("V%d^(x3):" % d)
    for line in report.lines():
        print("  ", line)

print()
print("== four strands over V2 ==")
report = verify_zbn_relations(2, 4, ONE)
print(report.summary())

print()
print("== word evaluation ==")
bundle = zbn_generators(2, 2, ONE)
lhs = eval_braid_word(BraidWord.parse("0 1 0 1", 2), bundle)
rhs = eval_braid_word(BraidWord.parse("1 0 1 0", 2), bundle)
print("word 0 1 0 1 equals word 1 0 1 0:", lhs == rhs)
print("the common 4x4 value:")
print(lhs)

print()
cancel = eval_braid_word(BraidWord.parse("0 1 1' 0'", 2), bundle)
print("word 0 1 1' 0' is the identity:", cancel == QMatrix.identity(4))
