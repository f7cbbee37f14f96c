"""Property test: graph parsing is total.

Any JSON values under the ``nodes``, ``streams`` and ``latches`` keys, and
under each stream's ``policy`` and ``watchdog``, either parse or raise
``SchemaError``; no other exception escapes.
"""

from math import inf, nan

from hypothesis import given, settings, strategies as st

from flowbot.flowcore import SchemaError, graph_from_json

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
numbers = st.integers(-2, 20) | st.floats(-2.0, 20.0) | st.sampled_from([inf, -inf, nan])


@st.composite
def perturbed(draw, valid, keys):
    """A valid object with up to two of ``keys`` removed or set to a small
    number, a non-finite float or any JSON value. Starting from valid objects
    lets most documents reach the deeper keys."""
    doc = dict(draw(valid))
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(numbers | json_values)
    return doc


policy = perturbed(
    st.sampled_from([
        {"kind": "lossy", "capacity": 4, "max_successive_misses": 3},
        {"kind": "lossless", "deadline_us": 2000},
    ]),
    ["kind", "capacity", "max_successive_misses", "deadline_us"],
)
watchdog = perturbed(
    st.just({"max_latency_us": 1000, "min_throughput_hz": 50.0, "window_us": 100_000}),
    ["max_latency_us", "min_throughput_hz", "window_us"],
)
node = perturbed(
    st.builds(lambda i: {"id": f"n{i}", "kind": "sink", "params": {}}, st.integers(0, 3)),
    ["id", "kind", "params"],
)
stream = perturbed(
    st.fixed_dictionaries({
        "id": st.just("s"), "from_node": st.just("n0"), "from_port": st.just("out"),
        "to_node": st.just("n1"), "to_port": st.just("in"),
        "policy": policy, "watchdog": watchdog,
    }),
    ["id", "from_node", "from_port", "to_node", "to_port", "policy", "watchdog"],
)
latch = perturbed(
    st.just({"stream_id": "s", "control_stream_id": "c", "initial_state": "closed"}),
    ["stream_id", "control_stream_id", "initial_state"],
)
graph_docs = perturbed(
    st.fixed_dictionaries({
        "nodes": st.lists(node, max_size=3),
        "streams": st.lists(stream, max_size=3),
        "latches": st.lists(latch, max_size=2),
    }),
    ["nodes", "streams", "latches"],
)


@settings(max_examples=300, deadline=None)
@given(graph_docs)
def test_graph_from_json_returns_or_raises_schema_error(doc):
    try:
        graph_from_json(doc)
    except SchemaError:
        pass
