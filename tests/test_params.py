import numpy as np
import pytest

from heavytail_pa import (
    DegenerateTail,
    DomainError,
    InvalidParams,
    LimitDistribution,
    ModelParams,
    TailMeasure,
    derive,
    load_params,
    save_params,
    split_probability,
    validate,
)


def test_validate_accepts_canonical():
    p = ModelParams(0.3, 0.5, 0.2, 1.0, 1.0)
    assert validate(p) == p


def test_validate_rejects_bad_sum():
    with pytest.raises(InvalidParams, match="!= 1"):
        validate(ModelParams(0.5, 0.5, 0.1, 1.0, 1.0))


def test_validate_rejects_negative_delta():
    with pytest.raises(InvalidParams, match="delta_in"):
        validate(ModelParams(0.3, 0.5, 0.2, -0.1, 1.0))
    with pytest.raises(InvalidParams, match=r"alpha < 0 \(got -0.1\)"):
        validate(ModelParams(-0.1, 0.9, 0.2, 1.0, 1.0))


def test_validate_rejects_probability_one():
    with pytest.raises(InvalidParams, match="gamma"):
        validate(ModelParams(0.0, 0.0, 1.0, 1.0, 1.0))


def test_validate_renormalizes_roundoff():
    p = ModelParams(0.3, 0.5, 0.2 + 4e-13, 1.0, 1.0)
    q = validate(p)
    assert abs(q.alpha + q.beta + q.gamma - 1.0) < 1e-15


def test_derive_canonical_constants():
    d = derive(ModelParams(0.3, 0.5, 0.2, 1.0, 1.0))
    assert d.c1 == pytest.approx(8 / 15, abs=1e-15)
    assert d.c2 == pytest.approx(7 / 15, abs=1e-15)
    assert d.a == pytest.approx(7 / 8, abs=1e-15)
    assert d.alpha_in == pytest.approx(2.875, abs=1e-12)
    assert d.alpha_out == pytest.approx(22 / 7, abs=1e-12)


def test_derive_is_pure():
    p = ModelParams(0.25, 0.45, 0.3, 0.7, 2.3)
    assert derive(p) == derive(p)


def test_derive_identities_hold_exactly():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = rng.dirichlet([1.0, 1.0, 1.0]) * 0.98
        p = ModelParams(w[0], w[1], w[2] + 0.02, rng.uniform(0.01, 3), rng.uniform(0.01, 3))
        d = derive(p)
        assert d.c1 * (d.alpha_in - 1.0) == pytest.approx(1.0, abs=1e-12)
        assert d.c2 * (d.alpha_out - 1.0) == pytest.approx(1.0, abs=1e-12)
        assert d.a == pytest.approx(d.c2 / d.c1, abs=1e-15)


def test_derive_symmetry_swaps_margins():
    p = ModelParams(0.3, 0.5, 0.2, 1.5, 0.4)
    q = ModelParams(0.2, 0.5, 0.3, 0.4, 1.5)
    dp, dq = derive(p), derive(q)
    assert dp.c1 == pytest.approx(dq.c2, abs=1e-15)
    assert dp.alpha_in == pytest.approx(dq.alpha_out, abs=1e-12)
    assert dp.a == pytest.approx(1.0 / dq.a, rel=1e-14)


def test_symmetric_params_give_equal_exponents():
    d = derive(ModelParams(0.25, 0.5, 0.25, 0.8, 0.8))
    assert d.alpha_in == pytest.approx(d.alpha_out, abs=1e-14)
    assert d.a == pytest.approx(1.0, abs=1e-14)


def test_degenerate_tail_raised_per_margin():
    # alpha*delta_in + gamma = 0 kills the in-margin power law
    with pytest.raises(DegenerateTail, match="in-degree"):
        derive(ModelParams(0.4, 0.6, 0.0, 0.0, 1.0))
    with pytest.raises(DegenerateTail, match="out-degree"):
        derive(ModelParams(0.0, 0.6, 0.4, 1.0, 0.0))


def test_split_probability():
    assert split_probability(ModelParams(0.3, 0.5, 0.2, 1, 1)) == pytest.approx(0.4)
    with pytest.raises(DegenerateTail):
        split_probability(ModelParams(0.0, 0.999999999999, 0.0, 1, 1))


def test_params_file_roundtrip(tmp_path):
    path = tmp_path / "model.cfg"
    p = ModelParams(0.3, 0.5, 0.2, 1.25, 0.5)
    save_params(p, path)
    assert load_params(path) == p


def test_params_file_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("alpha = 0.3\nbeta = 0.5\n")
    with pytest.raises(InvalidParams, match="missing"):
        load_params(path)
    path.write_text("alpha = 0.3\nbeta=0.5\ngamma=0.2\ndelta_in=1\ndelta_out=1\nzeta=3\n")
    with pytest.raises(InvalidParams, match="unknown"):
        load_params(path)
    path.write_text("alpha 0.3\n")
    with pytest.raises(InvalidParams, match="key=value"):
        load_params(path)
    path.write_text("alpha = 0.3\nbeta = half\n")
    with pytest.raises(InvalidParams, match=r"bad.cfg:2: bad number 'half'"):
        load_params(path)


CANONICAL = ModelParams(0.3, 0.5, 0.2, 1.0, 1.0)
# every public method that takes a mixture component, called on it with valid other arguments
COMPONENT_CALLS = {
    "pgf_component": lambda c: LimitDistribution(CANONICAL).pgf_component(c, 0.5, 0.5),
    "pmf_component": lambda c: LimitDistribution(CANONICAL).pmf_component(c, 2, 2),
    "pmf_component_table": lambda c: LimitDistribution(CANONICAL).pmf_component_table(c, 2, 2),
    "sample_component": lambda c: LimitDistribution(CANONICAL).sample_component(
        c, 10, np.random.default_rng(0)),
    "density": lambda c: TailMeasure(CANONICAL).density(c, 1.0, 1.0),
    "rect_mass": lambda c: TailMeasure(CANONICAL).rect_mass(c, 1.0, 1.0),
    "marginal_mass_closed_form": lambda c: TailMeasure(CANONICAL).marginal_mass_closed_form(c, 1.0),
}


@pytest.mark.parametrize("bad", [True, False, np.True_, 1.0, 2.0, 0, 3, "1", None, "combined"],
                         ids=repr)
@pytest.mark.parametrize("call", sorted(COMPONENT_CALLS))
def test_component_must_be_the_integer_1_or_2(call, bad):
    """A bool or a float equal to 1 or 2 is not a component; "combined" only
    where the tail measure takes it."""
    if bad == "combined" and call in ("density", "rect_mass"):
        assert COMPONENT_CALLS[call](bad) > 0
        return
    with pytest.raises(DomainError, match="^component must be"):
        COMPONENT_CALLS[call](bad)


@pytest.mark.parametrize("call", sorted(COMPONENT_CALLS))
def test_numpy_integer_components_pass(call):
    for c in (1, 2):
        want, got = COMPONENT_CALLS[call](c), COMPONENT_CALLS[call](np.int64(c))
        assert np.array_equal(np.asarray(got), np.asarray(want))
