#!/usr/bin/env python3
"""Run the shipped demo scenario through the reference pipeline, summarize it
and write the report to ``demo_report.json`` in the working directory. The
copy committed at the repository root is this script's output."""

import json
from pathlib import Path

from flowbot.harness import load_scenario, reference_pipeline, run_scenario
from flowbot.harness.config import packaged_config_text


def main():
    scenario = load_scenario(json.loads(packaged_config_text("demo_scenario.json")))
    report = run_scenario(reference_pipeline(), scenario)

    print(f"status={report['status']} stop={report['stop_reason']} "
          f"end={report['end_time_us'] / 1e6:.2f}s seed={report['seed']}")
    latch = report["latches"]["s_win_gated"]
    print(f"gate: openings={latch['openings']} forwarded={latch['forwarded']} "
          f"suppressed={latch['suppressed']}")
    for inv in report["skill_invocations"]:
        print(f"skill @{inv['t_us'] / 1e6:.2f}s: {inv['skill_id']}({inv['entities']})")
    for line in report["extras"].get("speech", []):
        print(f"speaker @{line['t_us'] / 1e6:.2f}s: {line['text']!r}")
    print("led:", " -> ".join(f"{s['state']}@{s['t_us'] / 1e6:.2f}s" for s in report["led_states"]))
    print("conservation_ok:", report["conservation_ok"])

    out = Path("demo_report.json")
    out.write_text(json.dumps(report, sort_keys=True, indent=2))
    print(f"full report written to {out}")


if __name__ == "__main__":
    main()
