"""Property tests of the instance file format (needs hypothesis)."""

import math

import pytest
from test_core import indented_json

from wsptools.core import DirectedGraph, WspInstance, instance_from_json, instance_to_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
json_scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] != p[1]), max_size=20))
    arcs = tuple((u, v, draw(positive.filter(math.isfinite))) for u, v in sorted(pairs))
    horizon = draw(positive)
    times = sorted(draw(st.sets(st.floats(min_value=0.0, max_value=horizon, exclude_min=True),
                                max_size=4)))
    schedule = tuple((t, draw(st.integers(min_value=1, max_value=5))) for t in times)
    return WspInstance(
        graph=DirectedGraph(n, arcs),
        ignition=draw(st.integers(0, n - 1)),
        horizon=horizon,
        delay=draw(st.floats(min_value=0.0, allow_infinity=False)),
        schedule=schedule,
        meta=draw(st.dictionaries(st.text(), json_values, max_size=3)),
    )


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(instances())
def test_round_trip(instance):
    text = instance_to_json(instance)
    assert text == indented_json(instance)
    back = instance_from_json(text)
    assert back == instance
    assert back.meta == instance.meta
    assert instance_to_json(back) == text
