"""Identity matching over 128-dimensional face embeddings.

The score is the squared Euclidean distance S between a query and a
reference. Two predicate modes ship: DISTANCE_MATCH (default; small S means
the same identity, boundary inclusive) and HIGH_PASS (1 iff S >= threshold),
kept as an explicit alternative convention.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import NamedTuple, Union

import numpy as np

EMBEDDING_DIM = 128


class EmbeddingError(ValueError):
    pass


def as_embedding(values) -> np.ndarray:
    e = np.asarray(values, dtype=np.float64)
    if e.shape != (EMBEDDING_DIM,):
        raise EmbeddingError(f"embedding must have shape ({EMBEDDING_DIM},), got {e.shape}")
    return e


def l2_squared(e, e_ref) -> float:
    """S = sum_i (e_i - e_ref_i)^2 over the 128 components."""
    a = as_embedding(e)
    b = as_embedding(e_ref)
    d = a - b
    return float(np.dot(d, d))


class PredicateMode(Enum):
    DISTANCE_MATCH = "distance_match"
    HIGH_PASS = "high_pass"


def identifier_predicate(
    s: float, threshold: float, mode: PredicateMode = PredicateMode.DISTANCE_MATCH
) -> int:
    """Match bit from a score. Both modes treat the boundary as a match."""
    if threshold < 0:
        raise EmbeddingError("threshold must be >= 0")
    if mode is PredicateMode.HIGH_PASS:
        return 1 if s >= threshold else 0
    return 1 if s <= threshold else 0


class Identity(NamedTuple):
    name: str
    score: float


class Unknown(NamedTuple):
    min_score: float


def identify(embedding, gallery: dict, threshold: float) -> Union[Identity, Unknown]:
    """Match against a named gallery; nearest entry wins if within threshold.

    Ties on the score break lexicographically by name.
    """
    if not gallery:
        raise EmbeddingError("gallery is empty")
    query = as_embedding(embedding)
    best_name, best_score = None, None
    for name in sorted(gallery):
        score = l2_squared(query, gallery[name])
        if best_score is None or score < best_score:
            best_name, best_score = name, score
    if identifier_predicate(best_score, threshold, PredicateMode.DISTANCE_MATCH):
        return Identity(name=best_name, score=best_score)
    return Unknown(min_score=best_score)


def load_gallery(path) -> dict:
    """Load {name, embedding: [128 numbers]} entries from a JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise EmbeddingError("gallery document must be a JSON list")
    gallery = {}
    for i, entry in enumerate(doc):
        if "name" not in entry or "embedding" not in entry:
            raise EmbeddingError(f"gallery entry {i} needs 'name' and 'embedding'")
        name = str(entry["name"])
        if name in gallery:
            raise EmbeddingError(f"duplicate gallery name {name!r}")
        gallery[name] = as_embedding(entry["embedding"])
    return gallery


def save_gallery(path, gallery: dict) -> None:
    doc = [
        {"name": name, "embedding": [float(v) for v in as_embedding(emb)]}
        for name, emb in sorted(gallery.items())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
