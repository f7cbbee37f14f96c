"""Property test: scenario loading is total.

Any JSON values under the scenario keys either load or raise
``ScenarioError``; no other exception escapes. Loading only parses, so the
test never synthesises audio, whatever ``duration_s`` it draws.
"""

from hypothesis import given, settings, strategies as st

from flowbot.harness import ScenarioError, load_scenario

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


# small numbers, so that many drawn documents are valid and reach the
# deeper keys
numbers = st.integers(-2, 20) | st.floats(-2.0, 20.0)


def shaped(*keys, **special):
    """Objects holding some of ``keys``; each holds a value from ``special``,
    a small number or any JSON value."""
    return st.fixed_dictionaries(
        {}, optional={k: special.get(k, numbers) | json_values for k in keys}
    )


def lists_of(objects):
    return json_values | st.lists(objects | json_values, max_size=3)


synthetic = shaped(
    "kind", "sample_rate_hz", "duration_s", "amp", "freq_hz", "bursts",
    kind=st.sampled_from(["silence", "tone", "bursts", "noise"]),
    bursts=lists_of(shaped("start_s", "end_s", "amp", "freq_hz")),
)
audio = (
    st.fixed_dictionaries({"synthetic": synthetic})
    | st.fixed_dictionaries({"wav": st.text(max_size=4)})
    | json_values
)
interpretation = shaped("skill_id", "entities", "confidence", entities=st.just({}))
scenario_docs = st.fixed_dictionaries(
    {"audio": audio},
    optional={
        "annotations": lists_of(shaped("start_s", "end_s", "label")),
        "interpreter_script": lists_of(
            shaped(
                "trigger_window_index", "skill_id", "entities", "confidence", "interpretation",
                entities=st.just({}), interpretation=interpretation,
            )
        ),
        "time_limit_s": numbers | json_values,
        "seed": numbers | json_values,
        "ultrasonic_scene": json_values,
    },
)


@settings(max_examples=200, deadline=None)
@given(scenario_docs)
def test_load_scenario_returns_or_raises_scenario_error(doc):
    try:
        load_scenario(doc)
    except ScenarioError:
        pass
