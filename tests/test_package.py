import ast
import copy
import dataclasses
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import hyptri

SRC = str(Path(__file__).parent.parent / "src")

# the public namespace of hyptri, by defining submodule
PUBLIC = {
    "core": [
        "DEFAULT_TOL", "DomainCap", "HypTriError", "InvalidInput", "InvalidPoint",
        "InvalidTriangle", "NoBracket", "NonConvergence", "NumericalFailure",
        "ToleranceConfig", "Triangle", "TriangleAngles", "TriangleSides", "defect",
        "law_of_cosines_residual", "law_of_sines_residual", "solve_from_angles",
        "solve_from_asa", "solve_from_sas", "solve_from_sss",
    ],
    "cevian": [
        "BisectorData", "CevianResiduals", "RatioResiduals", "bisector_lengths",
        "subtriangle_residuals", "unconditional_identities",
    ],
    "diskmodel": [
        "DiskPoint", "GeodesicArc", "disk_angle", "disk_distance", "embed_triangle",
        "geodesic_arc", "point_toward", "render_svg", "svg_document",
    ],
    "rng": ["SplitMix64"],
    "steiner_lehmus": [
        "SCAN_TOL", "EqualBisectorSolve", "EqualityStudy", "MonotonicityResult", "ProofTrace",
        "ScanReport", "check_monotonicity", "equal_bisector_report", "equality_study",
        "proof_trace", "sample_angles", "scan_random",
    ],
}
NAMES = sorted([*PUBLIC, *(n for names in PUBLIC.values() for n in names)])


def fresh(code):
    """Run code in a new interpreter that imports hyptri from src; its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, check=True
    )
    return json.loads(result.stdout)


def test_public_names_are_pinned():
    assert len(NAMES) == 53
    assert sorted(hyptri.__all__) == NAMES
    assert sorted(n for n in dir(hyptri) if not n.startswith("__")) == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_are_the_submodules_objects(module):
    sub = importlib.import_module(f"hyptri.{module}")
    assert getattr(hyptri, module) is sub
    # the submodule's __all__ is exactly what the package exports from it
    assert sorted(sub.__all__) == sorted(PUBLIC[module])
    for name in PUBLIC[module]:
        assert getattr(hyptri, name) is getattr(sub, name)


def unreferenced_private_names(package):
    """Module-level ``_``-prefixed functions and assigned names of the
    package's modules that no name, attribute or ``from`` import in the
    package refers to outside their own definition. Dunder hooks such as a
    module's ``__getattr__`` are called by Python."""
    defined = set()
    used = set()
    for path in sorted(Path(package).glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                owners = {top.name}
            elif isinstance(top, ast.Assign):
                owners = {n.id for t in top.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                owners = set()
            defined |= {n for n in owners if n.startswith("_") and not n.startswith("__")}
            # names (their id), attributes (their attr) and imported names;
            # a definition's references to itself do not count
            refs = {
                getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
                for n in ast.walk(top) if not isinstance(n, ast.FunctionDef)
            }
            used |= refs - owners
    return sorted(defined - used)


def test_every_private_function_is_used_in_the_package(tmp_path):
    package = Path(SRC, "hyptri")
    assert unreferenced_private_names(package) == []
    # a helper called only by itself or from nowhere is found, and so is a
    # constant that nothing reads
    (tmp_path / "m.py").write_text(
        "def _loop(n):\n    return _loop(n - 1)\n\n\ndef _used():\n    pass\n\n\n"
        "def _dead():\n    pass\n\n\nclass K:\n    f = staticmethod(_used)\n\n\n"
        "_CONST = 1\n_READ, _TOO = 2, 3\n_SELF = _SELF or _READ\n"
    )
    (tmp_path / "n.py").write_text("from .m import _TOO\n")
    assert unreferenced_private_names(tmp_path) == ["_CONST", "_SELF", "_dead", "_loop"]


def literal_all_modules(package):
    """Modules of the package that assign a list or tuple literal to ``__all__``."""
    return sorted(
        path.stem
        for path in Path(package).glob("*.py")
        for top in ast.parse(path.read_text()).body
        if isinstance(top, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets)
        and isinstance(top.value, (ast.List, ast.Tuple))
    )


def test_public_names_are_listed_only_in_the_package_table(tmp_path):
    # each submodule reads its __all__ from hyptri._SUBMODULE
    assert literal_all_modules(Path(SRC, "hyptri")) == []
    (tmp_path / "m.py").write_text("__all__ = ['f']\n")
    (tmp_path / "n.py").write_text("__all__ = ('g',)\n")
    (tmp_path / "o.py").write_text("__all__ = sorted({'h'})\n")
    assert literal_all_modules(tmp_path) == ["m", "n"]


def test_fresh_namespace_matches_star_import_and_dir():
    seen = fresh(
        "import json, sys, hyptri\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('hyptri'))\n"
        "before = [n for n in dir(hyptri) if not n.startswith('__')]\n"
        "cached = sorted(set(before) & set(vars(hyptri)))\n"
        "ns = {}\n"
        "exec('from hyptri import *', ns)\n"
        "after = [n for n in dir(hyptri) if not n.startswith('__')]\n"
        "print(json.dumps([loaded, before, cached, sorted(set(ns) - {'__builtins__'}), after,\n"
        "                  sorted(set(after) & set(vars(hyptri)))]))\n"
    )
    # nothing is bound before first use, and every name is cached after it
    assert seen == [["hyptri"], NAMES, [], NAMES, NAMES, NAMES]


def test_submodule_attributes_after_bare_import():
    seen = fresh(
        "import json, hyptri\n"
        "scan = hyptri.steiner_lehmus.scan_random\n"
        "print(json.dumps([scan.__module__, hyptri.core.__name__, hyptri.SplitMix64(7).random()]))\n"
    )
    assert seen == ["hyptri.steiner_lehmus", "hyptri.core", hyptri.SplitMix64(7).random()]


@pytest.mark.parametrize("name", ["x", "importlib", "import_module", "annotations"])
def test_no_other_attribute(name):
    assert not hasattr(hyptri, name)
    with pytest.raises(AttributeError, match=rf"^module 'hyptri' has no attribute '{name}'$"):
        getattr(hyptri, name)


def test_report_types_are_frozen_dataclasses_without_slots():
    # one value of each public dataclass: the five report types of
    # steiner_lehmus (the record types of cevian and diskmodel are frozen
    # slotted classes, tested beside the core types in test_core.py)
    t = hyptri.solve_from_sss(hyptri.TriangleSides(1.0, 1.2, 1.5))
    values = [
        hyptri.proof_trace(t), hyptri.check_monotonicity(t),
        hyptri.equal_bisector_report(0.9, 0.7), hyptri.scan_random(5, 0),
        hyptri.equality_study(2, 0),
    ]
    assert sorted(type(v).__name__ for v in values) == [
        n for n in NAMES
        if isinstance(getattr(hyptri, n), type) and dataclasses.is_dataclass(getattr(hyptri, n))
    ]
    for value in values:
        before = repr(value)
        # a name that is no field is refused too; with slots=True the 3.10 and
        # 3.11 dataclasses raised TypeError there
        for name in [f.name for f in dataclasses.fields(value)] + ["other"]:
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=rf"^cannot assign to field '{name}'$"):
                setattr(value, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=rf"^cannot delete field '{name}'$"):
                delattr(value, name)
        assert repr(value) == before
        assert not hasattr(type(value), "__slots__")
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for restored in copies:
            assert type(restored) is type(value)
            assert restored == value
