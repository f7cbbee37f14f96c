"""The port table of ``docs/graph_schema.md`` names the ports the code declares.

Each row of the table under ``### Node kinds`` lists a kind's input and
output ports as ``name`` (payload), with ``optional`` at the end of an
optional port's payload. Every packaged kind is built, and its
``input_ports()`` / ``output_ports()`` names and ``optional`` flags must be
the row's. A row that says "one per name in ``outputs``" or "one per
interface in ``routing``" is read against the packaged graph's params, from
which the ``splitter`` and ``io_manager`` ports are built. Payload types are
not compared: the code's type tags are not yet the table's.
"""

import re
from pathlib import Path

import numpy as np

from flowbot.flowcore import SampleChunk
from flowbot.harness import harness_kind_registry, packaged_graph

ROOT = Path(__file__).resolve().parent.parent


def documented_ports(schema: str) -> dict[str, dict[str, dict[str, bool]]]:
    """Per kind, per side (``in``/``out``), each port name and its ``optional`` flag."""
    table = schema.split("\n### Node kinds\n", 1)[1].split("\n\n| kind | ports (payload) |\n", 1)[1]
    params = {nd.kind: nd.params for nd in packaged_graph().nodes}
    rows = {}
    for line in table.split("\n\n", 1)[0].splitlines()[1:]:
        kind, cell = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        rows[kind] = sides = {}
        for side in re.split(r"; (?=out: )", cell):
            name, ports = side.split(": ", 1)
            per_param = re.fullmatch(r"one per \w+ in `(\w+)` \((.*)\)", ports)
            if per_param:
                value = params[kind][per_param.group(1)]
                names = value if isinstance(value, list) else [n for ns in value.values() for n in ns]
                sides[name] = {n: False for n in names}
            else:
                found = re.findall(r"`(\w+)` \(([^)]*)\)", ports)
                sides[name] = {n: payload.endswith(", optional") for n, payload in found}
    return rows


def declared_ports(node) -> dict[str, dict[str, bool]]:
    sides = {"in": node.input_ports(), "out": node.output_ports()}
    return {side: {n: spec.optional for n, spec in ports.items()} for side, ports in sides.items() if ports}


def test_every_kind_declares_the_ports_the_table_documents():
    documented = documented_ports((ROOT / "docs" / "graph_schema.md").read_text(encoding="utf-8"))
    registry = harness_kind_registry()
    assert sorted(documented) == sorted(registry._factories)
    params = {nd.kind: nd.params for nd in packaged_graph().nodes}
    env = {"audio": SampleChunk(np.zeros(16000), 16000)}  # audio_source needs scenario audio
    for kind, sides in documented.items():
        node = registry.create(kind, kind, params.get(kind, {}), env)
        assert declared_ports(node) == sides, kind
