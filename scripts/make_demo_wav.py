#!/usr/bin/env python3
"""Synthesize a demo WAV (tone burst on silence) plus a matching scenario file.

The resulting pair drives the RMS-detector pipeline from a real audio file:

    python scripts/make_demo_wav.py out/
    flowbot run --scenario out/wav_scenario.json
"""

import json
import sys
from pathlib import Path

from flowbot.dsp import write_wav
from flowbot.harness import synthesize_audio


def main():
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_assets")
    out_dir.mkdir(parents=True, exist_ok=True)
    audio = synthesize_audio({
        "kind": "bursts",
        "duration_s": 4.0,
        "sample_rate_hz": 16000,
        "bursts": [{"start_s": 2.0, "end_s": 2.5, "freq_hz": 440.0, "amp": 0.8}],
    })
    wav_path = out_dir / "keyword_burst.wav"
    write_wav(wav_path, audio)

    scenario = {
        "audio": {"wav": str(wav_path)},
        "annotations": [{"start_s": 2.0, "end_s": 2.5}],
        "interpreter_script": [
            {"trigger_window_index": 5, "skill_id": "get_time",
             "entities": {}, "confidence": 0.9}
        ],
        "seed": 0,
    }
    scenario_path = out_dir / "wav_scenario.json"
    scenario_path.write_text(json.dumps(scenario, indent=2))
    print(f"wrote {wav_path} and {scenario_path}")


if __name__ == "__main__":
    main()
