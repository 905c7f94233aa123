"""The public surface: every ``__all__`` entry resolves, names removed from
the package stay removed, and no module imports a name it never reads.

Tooling that walks ``__all__`` with ``getattr`` (tracers, wrappers) breaks
on a stale entry, so each module's list is checked against the module.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

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
    poisson_transform,
)
from octoplane.quadrature import QuadratureSpec, _radial_rule, ball_integrate
from octoplane.special import gauss_2f1

MODULES = sorted(m.name for m in pkgutil.iter_modules(octoplane.__path__))
REMOVED = ("Octonion", "OctPair", "SpherePoint", "slot1", "slot2", "plam_one",
           "MoleculeTools", "molecule_tools", "SpectralParam", "_lam_value",
           "molecule_check", "MoleculeCheck", "_molecule_sample", "delta_j_kernel", "oct_re",
           "_phi_at_radii", "_phi_scaled_at",
           "_quaternion_products", "_cayley_dickson_structure", "_oriented_fano_triples",
           "_f21_series", "_NORM_BLOCK", "_Fill", "_fill_normal", "_cz_samples", "E2",
           "BoundaryZonal", "_radius_aligned", "eta_j", "weight_omega", "psi_from_bracket",
           "_CZ_ROWS", "_positioned_copies", "_BLOCK", "_norm_sq_cols")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    mod = importlib.import_module(f"octoplane.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_public_names_are_in_some_all():
    # perfbench's tracer wraps only __all__ entries, so a re-export outside
    # every module's list would escape its spans
    listed = {attr for name in MODULES
              for attr in getattr(importlib.import_module(f"octoplane.{name}"), "__all__", ())}
    public = {attr for attr, val in vars(octoplane).items()
              if not attr.startswith("_") and not inspect.ismodule(val)}
    assert sorted(public - listed) == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(octoplane, name)
    for mod_name in MODULES:
        assert not hasattr(importlib.import_module(f"octoplane.{mod_name}"), name)


def test_removed_options_and_methods_are_gone():
    assert "radial" not in inspect.signature(ball_integrate).parameters
    for attr in ("zeros", "scale", "jordan", "__add__", "__sub__", "diag_unit"):
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
    params = inspect.signature(poisson_transform).parameters
    assert "return_stderr" not in params
    assert list(params) == ["lam", "f", "x", "spec"]
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


def unread_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source (``__future__``
    aside) that no expression of the module reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_unread_imports_are_found():
    source = "import os.path\nfrom typing import Sequence\nimport numpy as np\nnp.zeros(os.sep)\n"
    assert unread_imports(source) == ["Sequence"]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_read(name):
    path = Path(octoplane.__file__).parent / f"{name}.py"
    assert unread_imports(path.read_text()) == []


def imported_modules(name: str) -> set[str]:
    """Dotted names of the modules that octoplane.<name> imports anywhere."""
    tree = ast.parse((Path(octoplane.__file__).parent / f"{name}.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    return imported


@pytest.mark.parametrize("name", MODULES)
def test_module_starts_no_threads(name):
    # every suite runs on the caller's thread, with no extra malloc arena;
    # a thread needs its own measurement first (ROADMAP item 5)
    assert not {"threading", "concurrent.futures", "multiprocessing"} & imported_modules(name)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_no_test_extra(name):
    # the package depends on numpy alone; scipy, mpmath and hypothesis are
    # the `test` extras of pyproject.toml and serve only as test references
    roots = {m.partition(".")[0] for m in imported_modules(name)}
    assert not {"scipy", "mpmath", "hypothesis"} & roots


def test_gauss_2f1_path_keywords():
    # perfbench's tracer reads the z_switch default to classify 2F1 paths
    params = inspect.signature(gauss_2f1).parameters
    assert list(params) == ["a", "b", "c", "z", "z_switch"]
    assert params["z_switch"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["z_switch"].default == 0.75
