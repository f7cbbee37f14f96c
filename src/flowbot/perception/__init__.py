"""Embedding matching, int8 quantization, pixel normalization, param counts.

A public name is imported from its submodule on first use; ``flowbot run``
loads none of them.
"""

from .._lazy import lazy_exports

# ``quantize`` names both a submodule and its function. Importing the function
# here keeps it the package attribute, which ``import
# flowbot.perception.quantize`` would otherwise replace with the submodule.
from .quantize import quantize

__all__, __getattr__ = lazy_exports(__name__, {
    "embedding": (
        "EMBEDDING_DIM", "EmbeddingError", "Identity", "PredicateMode", "Unknown", "as_embedding",
        "identifier_predicate", "identify", "l2_squared", "load_gallery", "save_gallery",
    ),
    "image": ("ImageError", "normalize_image"),
    "layers": (
        "LayerSpec", "LayerSpecError", "ParamRow", "ParamTable", "kws_reference_layers",
        "kws_reference_table", "layer_param_count", "model_param_table",
    ),
    "quantize": (
        "INT8_MAX", "INT8_MIN", "QuantError", "QuantParams", "dequantize", "quantize",
        "representable_range",
    ),
})
