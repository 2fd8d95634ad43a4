"""Gradient statistics: why the codecs behave the way they do.

Small analysis helpers used by the experiment write-ups:

* :func:`heavy_tail_index` — the ratio ``σ / E|v|`` that predicts the
  sign codec's failure (≈1.25 for a Gaussian; ≫ that for real training
  gradients, where the message-wide σ then poisons small coordinates);
* :func:`per_parameter_scales` — the per-layer gradient RMS table that
  shows the scale heterogeneity of BN-free VGG nets;
* :func:`codec_error_profile` — NMSE of every registered codec on a
  vector, at a list of trim rates, in one call.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence

import numpy as np

from ..transforms.prng import shared_generator
from .codec import available_codecs, codec_by_name, nmse

__all__ = ["heavy_tail_index", "per_parameter_scales", "codec_error_profile"]

#: sigma / E|v| of a zero-mean Gaussian: sqrt(pi/2).
GAUSSIAN_TAIL_INDEX = float(np.sqrt(np.pi / 2))


def heavy_tail_index(flat: np.ndarray) -> float:
    """``σ / E|v|`` — 1.2533 for Gaussian, larger for heavy tails.

    The sign codec decodes trimmed coordinates to ``±σ``; when this
    index is large, σ vastly overstates the typical coordinate and the
    decode is mostly noise — the paper's divergence regime.
    """
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    if flat.size == 0:
        raise ValueError("empty vector")
    mean_abs = float(np.mean(np.abs(flat)))
    if mean_abs <= 0.0:
        return float("inf") if np.std(flat) > 0 else 1.0
    return float(np.std(flat)) / mean_abs


class SupportsParameters(Protocol):
    """Anything exposing ``parameters()`` over grad-bearing tensors."""

    def parameters(self) -> Iterable[Any]: ...


def per_parameter_scales(model: SupportsParameters) -> List[Dict[str, object]]:
    """Gradient RMS per parameter tensor (after a backward pass).

    ``model`` is anything with a ``parameters()`` method returning
    tensors with ``data``/``grad`` (duck-typed so :mod:`repro.core`
    stays independent of :mod:`repro.nn`).

    Returns one record per parameter: shape, size, rms.  The spread of
    these values across a model is the mechanism behind the sign codec's
    global-σ damage: one σ per message serves every layer.
    """
    records: List[Dict[str, object]] = []
    for index, param in enumerate(model.parameters()):
        grad = param.grad if param.grad is not None else np.zeros_like(param.data)
        records.append(
            {
                "index": index,
                "shape": str(param.shape),
                "size": int(param.size),
                "rms": float(np.sqrt(np.mean(grad**2))),
            }
        )
    return records


def codec_error_profile(
    flat: np.ndarray,
    trim_rates: Sequence[float] = (0.02, 0.1, 0.5, 1.0),
    codecs: Optional[Sequence[str]] = None,
    root_seed: int = 0,
    mask_seed: int = 1,
) -> Dict[str, Dict[float, float]]:
    """NMSE per codec per trim rate, one call.

    Args:
        flat: the gradient vector to profile.
        trim_rates: per-coordinate Bernoulli trim probabilities.
        codecs: codec names (default: every registered codec).
        root_seed / mask_seed: determinism knobs.

    Returns:
        ``{codec_name: {trim_rate: nmse}}``.
    """
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    names = list(codecs) if codecs is not None else available_codecs()
    profile: Dict[str, Dict[float, float]] = {}
    for name in names:
        codec = codec_by_name(name, root_seed=root_seed)
        enc = codec.encode(flat, epoch=0, message_id=1)
        rng = shared_generator(mask_seed, purpose="trim")
        profile[name] = {}
        for rate in trim_rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"trim rate must be in [0, 1], got {rate}")
            mask = rng.random(enc.length) < rate
            profile[name][rate] = nmse(flat, codec.decode(enc, trimmed=mask))
    return profile
