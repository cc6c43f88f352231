"""Model parameters and the constants derived from them.

The growth model is controlled by five numbers: event probabilities
(alpha, beta, gamma) summing to one, and nonnegative attractiveness
offsets (delta_in, delta_out).  Everything downstream (tail exponents,
mixing indices, the Bernoulli split) is a closed-form function of these.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

from .errors import DegenerateTail, DomainError, InvalidParams

SUM_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """The five parameters of the directed growth model.

    alpha : probability of adding a new source node with an edge to an
        existing node picked by in-degree.
    beta  : probability of adding an edge between two existing nodes.
    gamma : probability of adding a new target node with an edge from an
        existing node picked by out-degree.
    delta_in, delta_out : nonnegative offsets added to in/out degrees in
        the attachment probabilities.
    """

    alpha: float
    beta: float
    gamma: float
    delta_in: float
    delta_out: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DerivedConstants:
    """Constants determined by the model parameters.

    c1, c2 : mixing indices of the in/out tails; c1 = 1/(alpha_in - 1)
        and c2 = 1/(alpha_out - 1) hold exactly.
    a : the ratio c2/c1.
    alpha_in, alpha_out : marginal power-law exponents of the limiting
        in/out degree distribution.
    gamma_in, gamma_out : regular-variation indices of the scaling
        functions b(t) = t**(1/gamma); equal to alpha - 1 per margin.
    """

    c1: float
    c2: float
    a: float
    alpha_in: float
    alpha_out: float
    gamma_in: float
    gamma_out: float

    def as_dict(self) -> dict:
        return asdict(self)


def validate(params: ModelParams) -> ModelParams:
    """Check the parameter invariants, renormalizing tiny round-off.

    The sum alpha+beta+gamma may be off by at most ``SUM_TOL`` (config
    files carry decimal round-off); within that tolerance the three
    probabilities are silently rescaled to sum to one.  Anything worse
    raises InvalidParams naming the violated constraint.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    for name, v in (("alpha", a), ("beta", b), ("gamma", g)):
        if not math.isfinite(v) or v < 0:
            raise InvalidParams(f"{name} < 0 (got {v})")
        if v >= 1:
            raise InvalidParams(f"{name} = {v} but each of alpha, beta, gamma must be < 1")
    s = a + b + g
    if abs(s - 1.0) > SUM_TOL:
        raise InvalidParams(f"alpha+beta+gamma != 1 (got {s!r})")
    for name, v in (("delta_in", params.delta_in), ("delta_out", params.delta_out)):
        if not math.isfinite(v) or v < 0:
            raise InvalidParams(f"{name} < 0 (got {v})")
    if s != 1.0:
        params = ModelParams(a / s, b / s, g / s, params.delta_in, params.delta_out)
    return params


def derive(params: ModelParams) -> DerivedConstants:
    """Compute the tail exponents and mixing constants.

    Raises DegenerateTail when a marginal power law is not asserted,
    i.e. when alpha*delta_in + gamma = 0 or gamma*delta_out + alpha = 0.
    """
    params = validate(params)
    a, b, g = params.alpha, params.beta, params.gamma
    din, dout = params.delta_in, params.delta_out
    if a * din + g <= 0:
        raise DegenerateTail("alpha*delta_in + gamma = 0: in-degree power law not available")
    if g * dout + a <= 0:
        raise DegenerateTail("gamma*delta_out + alpha = 0: out-degree power law not available")
    c1 = (a + b) / (1.0 + din * (a + g))
    c2 = (b + g) / (1.0 + dout * (a + g))
    alpha_in = 1.0 + 1.0 / c1
    alpha_out = 1.0 + 1.0 / c2
    return DerivedConstants(
        c1=c1,
        c2=c2,
        a=c2 / c1,
        alpha_in=alpha_in,
        alpha_out=alpha_out,
        gamma_in=alpha_in - 1.0,
        gamma_out=alpha_out - 1.0,
    )


def split_probability(params: ModelParams) -> float:
    """P[B = 1] = gamma/(alpha+gamma) for the two-component split of (I, O)."""
    s = params.alpha + params.gamma
    if s <= 0:
        raise DegenerateTail("alpha + gamma = 0: the joint limit law is degenerate")
    return params.gamma / s


def check_component(component, combined: bool = False):
    """A mixture component: the integer 1 or 2, or "combined" where it is allowed.

    A bool or a float is a DomainError even where it equals 1 or 2;
    numpy integers pass and come back as int.
    """
    if combined and isinstance(component, str) and component == "combined":
        return component
    if (isinstance(component, numbers.Integral) and not isinstance(component, bool)
            and component in (1, 2)):
        return int(component)
    allowed = "1, 2 or 'combined'" if combined else "1 or 2"
    raise DomainError(f"component must be {allowed}, got {component!r}")


def tail_ready(params: ModelParams) -> ModelParams:
    """Validate and additionally require delta_in > 0 and delta_out > 0.

    The joint tail-measure results need strictly positive offsets.
    """
    params = validate(params)
    if params.delta_in <= 0 or params.delta_out <= 0:
        raise InvalidParams("tail-measure operations require delta_in > 0 and delta_out > 0")
    return params


def load_params(path) -> ModelParams:
    """Read parameters from a flat key=value text file.

    Blank lines and lines starting with '#' are ignored.  Keys are
    alpha, beta, gamma, delta_in, delta_out (dashes accepted).
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParams(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            try:
                values[key] = float(val.strip())
            except ValueError as exc:
                raise InvalidParams(f"{path}:{lineno}: bad number {val.strip()!r}") from exc
    required = ("alpha", "beta", "gamma", "delta_in", "delta_out")
    missing = [k for k in required if k not in values]
    if missing:
        raise InvalidParams(f"{path}: missing keys {missing}")
    extra = [k for k in values if k not in required]
    if extra:
        raise InvalidParams(f"{path}: unknown keys {extra}")
    return validate(ModelParams(**values))


def save_params(params: ModelParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in params.as_dict().items():
            fh.write(f"{key} = {val!r}\n")
