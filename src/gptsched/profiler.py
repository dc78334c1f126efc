"""Demand profiling: turn request attributes into resource demands.

When a request carries an explicit demand it wins unchanged. Otherwise the
demand is estimated from model size and token counts with a linear model:

    compute      = flops_per_param_token * params_b * total_tokens
    memory_gib   = weight_mem_gib_per_b * params_b
                   + kv_mem_gib_per_ktoken_per_b * params_b * total_tokens / 1000
    storage_gib  = storage_gib_per_b * params_b

where total_tokens = prompt_tokens + output_tokens. The defaults make a 7B
model with 1000 total tokens cost 14 compute units, 14.14 GiB of memory and
14 GiB of storage.
"""

from __future__ import annotations

import math

from .model import GptRequest, GptSchedError, ResourceVector, ValidationError, echo, plain_amounts, record, trusted


class UnprofilableRequestError(GptSchedError):
    """The request has no explicit demand and no positive model size."""


@record
class ProfilerCoefficients:
    """Linear coefficients of the demand model. All must be finite and >= 0."""

    flops_per_param_token: float = 0.002
    weight_mem_gib_per_b: float = 2.0
    kv_mem_gib_per_ktoken_per_b: float = 0.02
    storage_gib_per_b: float = 2.0

    def __post_init__(self) -> None:
        for name in self.__match_args__:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


DEFAULT_COEFFICIENTS = ProfilerCoefficients()
_new_vector = trusted(ResourceVector)


def estimate_demand(
    request: GptRequest, coeffs: ProfilerCoefficients = DEFAULT_COEFFICIENTS
) -> ResourceVector:
    """Resolve the request's resource demand.

    Returns explicit_demand when present; otherwise applies the linear model
    above. Raises UnprofilableRequestError when neither an explicit demand
    nor a positive model_params_b is available.
    """

    if request.explicit_demand is not None:
        return request.explicit_demand
    if request.model_params_b <= 0.0:
        raise UnprofilableRequestError(
            f"request {echo(request.id)} has no explicit demand and no model size"
        )
    params = request.model_params_b
    total_tokens = request.prompt_tokens + request.output_tokens
    compute = coeffs.flops_per_param_token * params * total_tokens
    memory = (
        coeffs.weight_mem_gib_per_b * params
        + coeffs.kv_mem_gib_per_ktoken_per_b * params * total_tokens / 1000.0
    )
    storage = coeffs.storage_gib_per_b * params
    if plain_amounts(compute, memory, storage):  # else an overflow, which the check refuses
        return _new_vector(compute, memory, storage)
    return ResourceVector(compute=compute, memory_gib=memory, storage_gib=storage)
