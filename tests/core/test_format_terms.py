"""``FormatDecl.instantiate`` on a literal table.

Each row pins the :class:`Term` a declaration instantiates to for one
instance's params, or the exact :class:`FormatError` text.  The scope is
``d`` throughout, so unresolved names become ``d.<name>`` variables.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.formats import FormatError, Term, parse_format


def dims(*entries) -> Term:
    return Term(dims=tuple(entries))


def const(value: int) -> tuple:
    return ("const", value)


def var(name: str, num: int = 1, den: int = 1) -> tuple:
    return ("var", (name, Fraction(num, den)))


TERMS = [
    # constants
    ("kind=plane shape=8,4 block=8", {},
     Term(kind="plane", dims=(const(8), const(4)), block=8)),
    ("shape=16/2,3*4", {}, dims(const(8), const(12))),
    # /k and *k over a param
    ("shape=height/2", {"height": 16}, dims(const(8))),
    ("shape=width*3", {"width": 5}, dims(const(15))),
    # /param and *param
    ("shape=height/factor", {"height": 16, "factor": 4}, dims(const(4))),
    ("shape=width*factor", {"width": 5, "factor": 3}, dims(const(15))),
    # a name resolved to a param, and names left as variables
    ("shape=height", {"height": 9}, dims(const(9))),
    ("shape=rows/2,cols", {}, dims(var("d.rows", 1, 2), var("d.cols"))),
    ("shape=rows/factor", {"factor": 4}, dims(var("d.rows", 1, 4))),
    # a bool is no integer: the name stays a variable
    ("shape=height", {"height": True}, dims(var("d.height"))),
    # ?v and *
    ("shape=?h*2,?w", {}, dims(var("d.?h", 2), var("d.?w"))),
    ("shape=*,width", {"width": 7}, dims(("any", None), const(7))),
    # dtype tokens: a numpy name, a param name, an unset name, ?var
    ("dtype=uint8", {}, Term(dtype=("val", "uint8"))),
    ("dtype=sample", {"sample": "float32"}, Term(dtype=("val", "float32"))),
    ("dtype=sample", {}, Term(dtype=("var", "d.sample"))),
    ("dtype=?T", {}, Term(dtype=("var", "d.?T"))),
    # colorspace tags are taken as written
    ("colorspace=y", {}, Term(colorspace=("val", "y"))),
    ("colorspace=?cs", {}, Term(colorspace=("var", "d.?cs"))),
]

NOT_POSITIVE = ("dimension 'height/factor': scale parameter 'factor' does "
                "not resolve to a positive integer")

ERRORS = [
    # non-integral
    ("shape=height/2", {"height": 9},
     "dimension 'height/2' resolves to the non-integral value 9*1/2"),
    ("shape=9/2", {},
     "dimension '9/2' resolves to the non-integral value 9*1/2"),
    ("shape=height/factor", {"height": 10, "factor": 4},
     "dimension 'height/factor' resolves to the non-integral value 10*1/4"),
    # negative
    ("shape=height/2", {"height": -4},
     "dimension 'height/2' resolves to the non-integral value -4*1/2"),
    ("shape=height*2", {"height": -3},
     "dimension 'height*2' resolves to the non-integral value -3*2"),
    # a scale param that is zero, negative, a bool or no int at all
    ("shape=height/factor", {"height": 16, "factor": 0}, NOT_POSITIVE),
    ("shape=height/factor", {"height": 16, "factor": -2}, NOT_POSITIVE),
    ("shape=height/factor", {"height": 16, "factor": True}, NOT_POSITIVE),
    ("shape=height/factor", {"height": 16, "factor": "4"}, NOT_POSITIVE),
    ("shape=height/factor", {"height": 16}, NOT_POSITIVE),
    # a dtype param naming no dtype
    ("dtype=sample", {"sample": "nonsense"}, "invalid dtype 'nonsense'"),
]


@pytest.mark.parametrize("text, params, term", TERMS,
                         ids=[f"{t} {p}" for t, p, _ in TERMS])
def test_instantiate(text, params, term):
    assert parse_format(text).instantiate(params, "d") == term


@pytest.mark.parametrize("text, params, message", ERRORS,
                         ids=[f"{t} {p}" for t, p, _ in ERRORS])
def test_instantiate_error(text, params, message):
    with pytest.raises(FormatError) as info:
        parse_format(text).instantiate(params, "d")
    assert str(info.value) == message


def test_constant_and_variable_dims_keep_their_types():
    """A constant dim is a plain int; a variable's scale a Fraction."""
    (c,) = parse_format("shape=height/2").instantiate({"height": 16}, "d").dims
    assert type(c[1]) is int
    (v,) = parse_format("shape=rows*3").instantiate({}, "d").dims
    assert type(v[1][1]) is Fraction
