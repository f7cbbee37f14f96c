"""flowbot: deterministic dataflow runtime for a speech-gated assistant.

Subpackages:
  flowcore   - packets, streams, watchdogs, latches, graph runtime; the
               aggregator and attention kernels
  skills     - skill registry, dispatch and slot-filling manager
  dsp        - PCM/WAV, resampling, log-mel features, noise augmentation
  perception - embedding matching, int8 quantization, image normalization,
               layer parameter accounting
  robotics   - locomotion wire codec, time-of-flight and sweep geometry
  harness    - simulated devices, the pipeline's node kinds, scenario runner
               and CLI

Importing ``flowbot`` loads no subpackage. ``harness`` loads all its
modules; ``flowcore``, ``dsp``, ``robotics``, ``perception`` and ``skills``
load a submodule when one of its names is first used, so ``flowbot run``
imports only what the run needs and ``import flowbot.flowcore`` loads no
numpy. Value classes are plain slotted classes or
``typing.NamedTuple``s (see :mod:`flowbot.flowcore.record`), so no class
is built by generating code at import.
"""

__version__ = "0.1.0"
