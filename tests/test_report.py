"""Canonical serializer tests."""

import json
import math

import pytest

from hhcert.report import dumps_canonical, format_float


def test_seventeen_digit_floats_round_trip():
    for x in [0.1, 1.0 / 3.0, 2.0**-52, 1e300, -1.5e-300, 0.0, -7.25]:
        assert float(format_float(x)) == x


def test_non_finite_rejected():
    for bad in [math.inf, -math.inf, math.nan]:
        with pytest.raises(ValueError):
            format_float(bad)


def test_scalars_and_containers():
    doc = {"b": True, "n": None, "i": 3, "f": 0.5, "s": "hi", "l": [1, 2.5, "x"]}
    text = dumps_canonical(doc)
    assert json.loads(text) == doc
    # insertion order is preserved, not sorted
    assert text.index('"b"') < text.index('"n"') < text.index('"i"')


def test_string_escaping():
    tricky = 'quote " backslash \\ newline \n tab \t bell \x07'
    text = dumps_canonical({"s": tricky})
    assert json.loads(text)["s"] == tricky
    controls = "".join(map(chr, range(0x20)))
    for s in (controls, '"', "\\", "\x7f", "\u2028", "\U0001f600", tricky + controls):
        text = dumps_canonical({s: [s]})
        assert json.loads(text) == {s: [s]}
        assert dumps_canonical(json.loads(text)) == text
        # only '"', '\\' and the controls are escaped, as json.dumps does
        assert text == json.dumps({s: [s]}, ensure_ascii=False, separators=(",", ":"))


def test_reserialization_is_a_fixed_point():
    doc = {"outputs": {"value": 1.4626517459071816, "terms": [["a", 0.1], ["b", -2.0]]}}
    once = dumps_canonical(doc)
    assert dumps_canonical(json.loads(once)) == once


def test_unserializable_type_raises():
    with pytest.raises(TypeError):
        dumps_canonical({"x": object()})
