"""Read the package's JSON back into ring elements and matrices.

The package only writes JSON.  Decoding it here, independently of the
writer, lets the tests check that to_json() keeps everything: an element or
a matrix decoded from its JSON, after a pass through json.dumps, is equal to
the original.
"""

import json
from fractions import Fraction

from qweyl.qring import LaurentPoly, RingElem
from qweyl.repn import QMatrix


def _poly(pairs):
    return LaurentPoly({int(e): Fraction(c) for e, c in pairs})


def elem_from_json(obj):
    return RingElem(_poly(obj["num"]), _poly(obj["den"]))


def matrix_from_json(obj):
    m = QMatrix([[elem_from_json(a) for a in row] for row in obj["entries"]])
    assert (m.rows, m.cols) == (obj["rows"], obj["cols"])
    return m


def through_text(obj):
    """obj as a reader of the printed JSON sees it."""
    return json.loads(json.dumps(obj))
