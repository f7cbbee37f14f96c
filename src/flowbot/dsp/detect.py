"""Energy-based detector used as the default attention stub.

It lives in :mod:`flowbot.flowcore.attention`, so the core does not import
``dsp``; it is re-exported here with the other audio kernels.
"""

from ..flowcore.attention import rms_detect

__all__ = ["rms_detect"]
