"""The public surface: every ``__all__`` entry resolves, and names removed
from the package stay removed.

Tooling that walks ``__all__`` with ``getattr`` (tracers, wrappers) breaks
on a stale entry, so each module's list is checked against the module.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import octoplane
from octoplane.geometry import JordanMatrix
from octoplane.poisson import (
    CZReport,
    EigenProfile,
    HardyNormResult,
    M2Result,
    OperatorNormResult,
    _geodesic_mean_sq,
    boundary_recover_gt,
    cz_suite,
    hardy_norm,
    operator_norm_est,
)
from octoplane.quadrature import QuadratureSpec, _radial_rule, ball_integrate
from octoplane.special import gauss_2f1

MODULES = sorted(m.name for m in pkgutil.iter_modules(octoplane.__path__))
REMOVED = ("Octonion", "OctPair", "SpherePoint", "slot1", "slot2", "plam_one",
           "MoleculeTools", "molecule_tools", "SpectralParam", "_lam_value",
           "molecule_check", "MoleculeCheck", "_molecule_sample", "delta_j_kernel", "oct_re",
           "_phi_at_radii", "_phi_scaled_at",
           "_quaternion_products", "_cayley_dickson_structure", "_oriented_fano_triples",
           "_f21_series", "_NORM_BLOCK")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    mod = importlib.import_module(f"octoplane.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(octoplane, name)
    for mod_name in MODULES:
        assert not hasattr(importlib.import_module(f"octoplane.{mod_name}"), name)


def test_removed_options_and_methods_are_gone():
    assert "radial" not in inspect.signature(ball_integrate).parameters
    for attr in ("zeros", "scale", "jordan", "__add__", "__sub__"):
        assert not hasattr(JordanMatrix, attr)
    # profiles evaluate through special.spherical_fn / spherical_fn_scaled
    for attr in ("profile", "boundary_scaled"):
        assert not hasattr(EigenProfile, attr)


def test_removed_parameters_and_fields_are_gone():
    removed = {
        hardy_norm: ("lam",),
        operator_norm_est: ("max_iter", "rtol", "r_cap"),
        cz_suite: ("delta_grid", "slack", "n_samples"),
        _geodesic_mean_sq: ("panels_per_unit", "order"),
        _radial_rule: ("order",),
    }
    for fn, names in removed.items():
        assert not set(names) & set(inspect.signature(fn).parameters), fn.__name__
    assert list(inspect.signature(hardy_norm).parameters) == ["F", "p", "r_grid", "spec"]
    params = inspect.signature(boundary_recover_gt).parameters
    assert list(params) == ["lam", "F", "t_grid", "spec", "omega"]
    assert params["omega"].kind is inspect.Parameter.KEYWORD_ONLY
    assert list(inspect.signature(cz_suite).parameters) == ["lams", "spec", "r_grid"]
    fields = {f.name for f in dataclasses.fields(CZReport)}
    assert not {"delta_grid", "truncated_per_cell", "lam", "size_constant",
                "smooth_constant", "truncated_constant"} & fields
    assert "r_cap" not in {f.name for f in dataclasses.fields(QuadratureSpec)}
    # result fields that only echoed an argument
    echoes = {HardyNormResult: {"r_grid"}, M2Result: {"t_grid"}, CZReport: {"seed"},
              OperatorNormResult: {"n", "r", "lam", "seed"}}
    for cls, names in echoes.items():
        assert not names & {f.name for f in dataclasses.fields(cls)}, cls.__name__
    assert [f.name for f in dataclasses.fields(OperatorNormResult)] == [
        "value", "residual", "iterations"]


def test_gauss_2f1_path_keywords():
    # perfbench's tracer reads the z_switch default to classify 2F1 paths
    params = inspect.signature(gauss_2f1).parameters
    assert list(params) == ["a", "b", "c", "z", "z_switch"]
    assert params["z_switch"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["z_switch"].default == 0.75
