"""Corruption-fuzz tests for synopsis persistence.

Property: for ANY corruption of a serialized sketch — bit flips in the
raw bytes, truncation, or structured mutations of the JSON payload —
``sketch_from_dict``/``load_sketch`` must either produce a sketch
equivalent to the original or raise ``SynopsisIntegrityError`` (a
``SynopsisError``).  Never a silent wrong estimate, never a bare
``KeyError``/``TypeError``/``ValueError``.

CI runs these under the ``fuzz`` hypothesis profile (larger example
budget, registered in ``conftest.py``) by exporting
``HYPOTHESIS_PROFILE=fuzz``.
"""

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import movie_document
from repro.errors import SynopsisError, SynopsisIntegrityError
from repro.synopsis import (
    TwigXSketch,
    XSketchConfig,
    payload_digest,
    sketch_from_dict,
    sketch_to_dict,
    validate_sketch,
)


def _base_sketch():
    return TwigXSketch.coarsest(
        movie_document(), XSketchConfig(initial_value_buckets=4)
    )


BASE_SKETCH = _base_sketch()
BASE_PAYLOAD = json.loads(json.dumps(sketch_to_dict(BASE_SKETCH)))
BASE_TEXT = json.dumps(BASE_PAYLOAD)
BASE_BYTES = BASE_TEXT.encode("utf8")
BASE_DIGEST = BASE_PAYLOAD["digest"]


def _loads_equal_or_integrity_error(payload):
    """Byte-level corruption property: the digest is NOT re-forged, so
    any change to the payload must be detected — an accepted load can
    only be the original synopsis."""
    try:
        loaded = sketch_from_dict(payload)
    except SynopsisIntegrityError:
        return
    except SynopsisError:
        # version negotiation rejects unsupported versions with the
        # parent type; that is still a typed, documented outcome.
        return
    # Accepted: the payload must describe the same synopsis.
    assert validate_sketch(loaded) == []
    assert loaded.graph.node_count == BASE_SKETCH.graph.node_count
    assert loaded.graph.edge_count == BASE_SKETCH.graph.edge_count
    assert sketch_to_dict(loaded)["digest"] == BASE_DIGEST


def _typed_outcome_or_valid(payload):
    """Forged-digest property: a mutated payload whose digest was
    recomputed is indistinguishable from a freshly written file, so it
    cannot be required to equal the base.  The guarantee is weaker but
    still absolute: a strict load either raises the typed error or
    yields a synopsis satisfying every invariant — never a sketch that
    silently serves wrong or non-finite estimates, never a stray
    ``KeyError``/``TypeError``."""
    try:
        loaded = sketch_from_dict(payload, strict=True)
    except SynopsisIntegrityError:
        return
    except SynopsisError:
        return
    assert validate_sketch(loaded) == []


class TestBitFlips:
    @given(
        offset=st.integers(min_value=0, max_value=len(BASE_BYTES) - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_single_bit_flip(self, offset, bit):
        corrupted = bytearray(BASE_BYTES)
        corrupted[offset] ^= 1 << bit
        try:
            payload = json.loads(bytes(corrupted).decode("utf8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # load_sketch maps decode failures to SynopsisIntegrityError;
            # nothing further to check at the dict layer.
            return
        if not isinstance(payload, dict):
            with pytest.raises(SynopsisIntegrityError):
                sketch_from_dict(payload)
            return
        _loads_equal_or_integrity_error(payload)

    @given(
        offsets=st.lists(
            st.integers(min_value=0, max_value=len(BASE_BYTES) - 1),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    def test_multi_byte_corruption(self, offsets):
        corrupted = bytearray(BASE_BYTES)
        for offset in offsets:
            corrupted[offset] ^= 0xFF
        try:
            payload = json.loads(bytes(corrupted).decode("utf8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        if not isinstance(payload, dict):
            with pytest.raises(SynopsisIntegrityError):
                sketch_from_dict(payload)
            return
        _loads_equal_or_integrity_error(payload)


class TestTruncation:
    @given(length=st.integers(min_value=0, max_value=len(BASE_TEXT)))
    def test_truncated_text(self, length):
        text = BASE_TEXT[:length]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return
        if not isinstance(payload, dict):
            with pytest.raises(SynopsisIntegrityError):
                sketch_from_dict(payload)
            return
        _loads_equal_or_integrity_error(payload)


def _all_paths(payload, prefix=()):
    """Every (path, container, key) triple addressing a payload slot."""
    slots = []
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, list):
        items = enumerate(payload)
    else:
        return slots
    for key, value in items:
        slots.append((prefix + (key,), payload, key))
        slots.extend(_all_paths(value, prefix + (key,)))
    return slots


_SLOT_COUNT = len(_all_paths(BASE_PAYLOAD))

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
)


class TestStructuredMutation:
    """Mutate one slot of the decoded payload, re-forge the digest so the
    checksum cannot mask the damage, and require a typed outcome."""

    @given(
        slot=st.integers(min_value=0, max_value=_SLOT_COUNT - 1),
        junk=_JUNK,
    )
    def test_replace_any_slot(self, slot, junk):
        payload = copy.deepcopy(BASE_PAYLOAD)
        _, container, key = _all_paths(payload)[slot]
        container[key] = junk
        try:
            payload["digest"] = payload_digest(payload)
        except (TypeError, ValueError):
            # the junk is not canonically serializable; the stored file
            # could never contain it
            return
        _typed_outcome_or_valid(payload)

    @given(slot=st.integers(min_value=0, max_value=_SLOT_COUNT - 1))
    def test_delete_any_dict_key(self, slot):
        payload = copy.deepcopy(BASE_PAYLOAD)
        _, container, key = _all_paths(payload)[slot]
        if not isinstance(container, dict):
            return
        del container[key]
        if isinstance(payload, dict) and "digest" in payload:
            payload["digest"] = payload_digest(payload)
        _typed_outcome_or_valid(payload)
