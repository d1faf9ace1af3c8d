"""Byte pins for the verify reports and the element serializers.

Each digest is the sha256 of json.dumps(..., sort_keys=True), or of the
repr. Check names, check order, configs and element JSON are read by users
and by the benchmark goldens, so a refactor must leave them byte-identical.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from hallcontract import hall
from hallcontract.hall import (TensorElement, char_function, circ, coproduct,
                               tensor, zero_element)
from hallcontract.scalars import SqrtQScalar


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(report: dict) -> str:
    return _digest(json.dumps(report, sort_keys=True))


#: suite -> digest of its report at q = 2, max_dim 1, Kronecker at p -> m (e)
PINNED_REPORTS = {
    "verify_embedding": "c2df0afee14dff6e9630e9c64df059d51f91dc15b1adfc4cbc4adfbd6c14b550",
    "verify_pbw": "486a583a9699706debc0de170f58dc5815e94bca51554b6138e6ce1bd10f38ae",
    "verify_ideal": "fbfacccead4dfb4e2e3f2814fbc5c9d728664e6a774026800cefe31bc4ddf7f8",
    "verify_ses": "4b0ec912f51cb717b0e1cc32214601fe0f0565df6e06233b5185d9fc4455f81d",
    "verify_bialgebra": "3afe80a6e0781bdba253ead22f8df8963a23cd49050fc35b5f8ee8d5662582ec",
    "comult_compat": "f3a814f34642f6fe4190d6772c5f905e56eecb31fa2f2b45f871e9c6fb25b53f",
}


@pytest.mark.parametrize("suite", sorted(PINNED_REPORTS))
def test_verify_reports_are_pinned(suite, kron_ctx, kron_heart):
    arg = kron_ctx if suite == "verify_bialgebra" else kron_heart
    report = getattr(hall, suite)(arg, max_dim=1)
    assert _report_digest(report) == PINNED_REPORTS[suite]


def _mixed_element(ctx):
    """Three grades, coefficients with both rational and sqrt(q) parts."""
    a = char_function(ctx, (1, 0), 0)
    b = char_function(ctx, (0, 1), 0)
    c = char_function(ctx, (1, 1), 2)
    return (circ(a, b).scale(SqrtQScalar(ctx.q, Fraction(2, 3), Fraction(-1, 5)))
            + a.scale(Fraction(1, 2)) + b.scale(Fraction(-7, 4))
            + c.scale(SqrtQScalar(ctx.q, 0, 3)))


PINNED_ELEMENT = {
    "json": "d4898fbf17ad771bcf497ffcd584316a27589559c3a01eef61dc3df15b9a1bfa",
    "repr": "c6df3e8d144b401d677c8ca770a50c96c9fc2e633dd9c243e301fa93a90ba226",
}
PINNED_TENSOR = {
    "json": "b1fed8a15b8de95b7ff6ff4361cf6e82f3612650b029c6f3f3cb1bf08b880afc",
    "repr": "8e63db98407e0b4d1d4cd084ce0c399ebe15277d4f35d17c924e0c3a21231bd6",
}


def test_element_serializers_are_pinned(kron_ctx):
    f = _mixed_element(kron_ctx)
    assert _report_digest(f.to_json()) == PINNED_ELEMENT["json"]
    assert _digest(repr(f)) == PINNED_ELEMENT["repr"]
    assert repr(zero_element(kron_ctx)) == "HallElement(0)"


def test_repr_parenthesizes_coefficients_with_two_parts(kron_ctx):
    # a coefficient a + b*sqrt(q) with a, b != 0 is one factor of its term;
    # one with a single part needs no parentheses
    c = char_function(kron_ctx, (1, 1), 0)
    mixed = c.scale(SqrtQScalar(kron_ctx.q, Fraction(1, 3), Fraction(-1, 10)))
    assert repr(mixed) == "HallElement((1/3 + -1/10*sqrt(2))*P[(1, 1),o0])"
    assert (repr(c.scale(SqrtQScalar(kron_ctx.q, 0, 3)))
            == "HallElement(3*sqrt(2)*P[(1, 1),o0])")
    assert repr(c.scale(Fraction(-7, 4))) == "HallElement(-7/4*P[(1, 1),o0])"
    t = tensor(c, c.scale(SqrtQScalar(kron_ctx.q, 1, 1)))
    assert repr(t) == "TensorElement((1 + 1*sqrt(2))*P[(1, 1),o0]⊗P[(1, 1),o0])"


def test_tensor_serializers_are_pinned(kron_ctx):
    f = _mixed_element(kron_ctx)
    t = coproduct(f) + tensor(f, char_function(kron_ctx, (0, 1), 0))
    assert _report_digest(t.to_json()) == PINNED_TENSOR["json"]
    assert _digest(repr(t)) == PINNED_TENSOR["repr"]
    assert repr(TensorElement(kron_ctx, {})) == "TensorElement(0)"
