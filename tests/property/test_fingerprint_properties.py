"""Property: the one-pass context encoder equals the recursive reference.

The persistent store names its files by the SHA-256 of
:func:`~repro.engine.fingerprint._canonical_encode`, so the encoding must
stay byte-identical to the recursive definition below for any key material,
or stores written earlier would stop warming.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.fingerprint import _canonical_encode


def _reference_encode(value: object) -> bytes:
    """The recursive encoder, one call per element (the definition)."""
    if value is None:
        return b"N;"
    if isinstance(value, bool):
        return b"B1;" if value else b"B0;"
    if isinstance(value, int):
        return b"I" + str(value).encode("ascii") + b";"
    if isinstance(value, float):
        return b"F" + value.hex().encode("ascii") + b";"
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return b"S" + str(len(payload)).encode("ascii") + b":" + payload
    if isinstance(value, bytes):
        return b"Y" + str(len(value)).encode("ascii") + b":" + value
    if isinstance(value, (tuple, list)):
        items = b"".join(_reference_encode(item) for item in value)
        return b"T" + str(len(value)).encode("ascii") + b":" + items + b")"
    raise TypeError(type(value).__name__)


_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324])

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    _SPECIAL_FLOATS,
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=0x80), min_size=1),
    st.sampled_from(["P1", "N1", "é", "é中\U0001f600"]),
    st.binary(),
)

_KEY_MATERIAL = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
    ),
    max_leaves=40,
)


def _outcome(encode, value):
    """The encoding, or the type of the error raised in its place.

    ``st.text()`` draws lone surrogates (``"\\ud800"``), which have no UTF-8
    encoding: there the definition raises, and the one-pass encoder must
    raise the same error rather than produce some bytes.
    """
    try:
        return encode(value)
    except UnicodeEncodeError as error:
        return type(error)


@settings(max_examples=300, deadline=None)
@given(_KEY_MATERIAL)
def test_one_pass_encoding_equals_the_recursive_definition(value):
    assert _outcome(_canonical_encode, value) == _outcome(_reference_encode, value)


def test_a_lone_surrogate_raises_in_both_encoders():
    for value in ("\ud800", ["P1", ("\udfff",)]):
        assert _outcome(_canonical_encode, value) is UnicodeEncodeError
        assert _outcome(_reference_encode, value) is UnicodeEncodeError

