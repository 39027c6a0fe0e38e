"""The element vocabulary: one adjoined zero and one literal grammar.

The readers are compared with the three separate readers they replaced,
written out here as the reference: the same verdict, the same value and
the same exception type and message on every string.
"""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from brext import bicyclic, bruck_reilly, cli
from brext.bicyclic import BicyclicElem
from brext.bruck_reilly import BRElem, Box
from brext.clifford import CliffordElement
from brext.config import data_path
from brext.errors import ParseError

OLD_PAIR = re.compile(r"^\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)$")
OLD_TRIPLE = re.compile(r"^\(\s*([0-9]+)\s*,\s*([0-9]+)\s*:\s*([0-9]+)\s*,\s*([0-9]+)\s*\)$")
OLD_BOX = re.compile(r"^(\()?\s*([0-9]+)\s*,\s*([0-9]+)\s*(?(1)\))$")


def old_pair(text):
    s = text.strip()
    if s == "0":
        return bicyclic.ZERO
    m = OLD_PAIR.match(s)
    if not m:
        raise ValueError(f"cannot parse bicyclic element {text!r}")
    return BicyclicElem(int(m.group(1)), int(m.group(2)))


def old_triple(text):
    s = text.strip()
    if s == "0":
        return bruck_reilly.ZERO
    m = OLD_TRIPLE.match(s)
    if not m:
        raise ValueError(f"cannot parse extension element {text!r}")
    i, level, elem, j = (int(g) for g in m.groups())
    return BRElem(i, CliffordElement(level, elem), j)


def old_box(text):
    m = OLD_BOX.match(text.strip())
    if not m:
        raise ParseError(f"cannot parse box {text!r}")
    return Box(int(m.group(2)), int(m.group(3)))


# (name, reader, the replaced reader, the refusal's type and noun)
GRAMMARS = [
    ("pair", bicyclic.parse_elem, old_pair, ValueError, "bicyclic element"),
    ("triple", bruck_reilly.parse_elem, old_triple, ValueError, "extension element"),
    ("box", cli._parse_box, old_box, ParseError, "box"),
]


def outcome(read, text):
    try:
        return "read", read(text)
    except Exception as exc:
        return type(exc), str(exc)


def write(name, value):
    """A read literal in the element grammar; a box as its bicyclic pair."""
    if name == "triple":
        return bruck_reilly.format_elem(value)
    return bicyclic.format_elem(value if name == "pair" else BicyclicElem(*value))


space = st.text(alphabet=" \t\n　\xa0", max_size=2)
index = st.integers(0, 10**30).map(str)


@st.composite
def literals(draw, name):
    """A valid literal of the grammar, with whitespace anywhere it may go."""
    seps = {"pair": ",", "triple": ",:,", "box": ","}[name]
    body = draw(space) + draw(index)
    for sep in seps:
        body += draw(space) + sep + draw(space) + draw(index)
    body += draw(space)
    paren = name != "box" or draw(st.booleans())
    text = f"({body})" if paren else body
    if name != "box" and draw(st.integers(0, 9)) == 0:
        text = "0"
    return draw(space) + text + draw(space)


@st.composite
def near_misses(draw, name):
    """A valid literal with one character replaced, inserted or deleted."""
    text = draw(literals(name))
    at = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from("0١٣０(),:+-_ x"))
    how = draw(st.sampled_from(["replace", "insert", "delete"]))
    return text[:at] + ("" if how == "delete" else c) + text[at + (how != "insert"):]


@pytest.mark.parametrize("name,read,old,error,what", GRAMMARS, ids=[g[0] for g in GRAMMARS])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_valid_literals_round_trip_through_format_elem(name, read, old, error, what, data):
    text = data.draw(literals(name))
    assert outcome(read, text) == outcome(old, text)
    assert write(name, read(text)) == re.sub(r"\s", "", text if name != "box" or "(" in text else f"({text})")


@pytest.mark.parametrize("name,read,old,error,what", GRAMMARS, ids=[g[0] for g in GRAMMARS])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_string_gets_the_replaced_readers_verdict(name, read, old, error, what, data):
    text = data.draw(near_misses(name) | st.text(alphabet="0123456789١٣０(),:+-_ \t", max_size=12))
    assert outcome(read, text) == outcome(old, text)


NEAR_MISSES = {
    "pair": ["(٣,1)", "(１,2)", "(+5,1)", "(-1,2)", "(1_0,2)", "((1,2))", "1,2", "", "00", "(1,2"],
    "triple": ["(٣,0:0,1)", "(１,0:0,1)", "(+5,0:0,1)", "(0,-1:0,1)", "(1_0,0:0,1)",
               "((1,0:0,1))", "1,0:0,1", "", "(1,2)", "(1,2:3)"],
    "box": ["٣,2", "１,2", "+5,1", "-1,5", "1_0,2", "((1,2))", "(1,2", "1,2)", "", "0"],
}


@pytest.mark.parametrize("name,read,old,error,what", GRAMMARS, ids=[g[0] for g in GRAMMARS])
def test_near_misses_are_refused_with_the_old_messages(name, read, old, error, what):
    for text in NEAR_MISSES[name]:
        want = error, f"cannot parse {what} {text!r}"
        assert outcome(read, text) == outcome(old, text) == want, text


def test_one_zero_for_the_extension_and_the_bicyclic_monoid():
    assert bruck_reilly.ZERO is bicyclic.ZERO
    assert bruck_reilly.is_zero is bicyclic.is_zero
    assert bruck_reilly.eta(bruck_reilly.ZERO) is bruck_reilly.ZERO
    assert bruck_reilly.parse_elem("0") is bicyclic.parse_elem(" 0 ") is bicyclic.ZERO


# an index has at most 4,299 digits, so a product index (at most one digit
# longer) prints under CPython's 4,300-digit str limit
CAPPED = "9" * 4299


@pytest.mark.parametrize("name,read,old,error,what", GRAMMARS, ids=[g[0] for g in GRAMMARS])
def test_an_index_of_4300_digits_is_refused_by_the_reader(name, read, old, error, what):
    shapes = {"pair": "({},1)", "triple": "(0,0:0,{})", "box": "{},1"}
    accepted = shapes[name].format(CAPPED)
    assert outcome(read, accepted)[0] == "read"
    text = shapes[name].format("1" + CAPPED)
    assert outcome(read, text) == (error, f"cannot parse {what} {text!r}")


def test_the_product_of_two_capped_indices_prints(capsys):
    code = cli.main(["mul", f"({CAPPED},0)", f"({CAPPED},0)", "--json"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert json.loads(out.out)["result"] == f"(1{'9' * 4298}8,0)"


@pytest.mark.parametrize(
    "argv,what",
    [
        (["mul", f"(1{CAPPED},0)", "(1,0)"], "bicyclic element"),
        (["inv", f"(0,0:0,1{CAPPED})", "--system", str(data_path("c2c2"))], "extension element"),
        (["pushforward", "excluded_boxes", "--exclude", f"1{CAPPED},1"], "box"),
    ],
    ids=["pair", "triple", "box"],
)
def test_the_cli_refuses_an_index_of_4300_digits(capsys, argv, what):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.startswith(f"error: cannot parse {what} ") and out.err.count("\n") == 1
