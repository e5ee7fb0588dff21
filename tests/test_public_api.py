"""Tests of the top-level public API surface."""

import importlib
import importlib.metadata
import json
import os
import re
import subprocess
import sys
import textwrap
import tomllib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.backends.registry import BACKEND_ENV_VAR, available_backends


class TestExports:
    def test_version_and_paper(self):
        assert repro.__version__
        assert "Segregation" in repro.PAPER

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_key_classes_exported(self):
        for name in (
            "ModelConfig",
            "GlauberDynamics",
            "KawasakiDynamics",
            "Simulation",
            "TorusGrid",
            "SitePercolation",
            "FirstPassagePercolation",
            "ResultTable",
        ):
            assert name in repro.__all__

    def test_theory_functions_exported(self):
        assert repro.tau1() > repro.tau2()
        assert repro.classify_regime(0.45).value == "exponential_monochromatic"


class TestQuickstartFlow:
    def test_readme_quickstart(self):
        config = repro.ModelConfig.square(side=30, horizon=2, tau=0.45)
        result = repro.simulate(config, seed=0)
        metrics = repro.segregation_metrics(
            result.final_spins, config, max_region_radius=6
        )
        assert result.terminated
        assert metrics.unhappy_fraction == 0.0
        assert metrics.local_homogeneity > 0.6

    def test_docstring_example_names_exist(self):
        # The module docstring references these names; keep them importable.
        from repro import ModelConfig, segregation_metrics, simulate  # noqa: F401

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core
        import repro.experiments
        import repro.percolation
        import repro.theory
        import repro.viz

        assert repro.core.neighborhood_size(2) == 25
        assert repro.percolation.SQUARE_SITE_CRITICAL_PROBABILITY > 0.5


#: Not runtime dependencies in ``pyproject.toml`` (scipy is a test extra,
#: and the compiled backend binds its kernel with stdlib ``ctypes``):
#: nothing ``repro`` runs may import them.
UNDECLARED = ("networkx", "scipy", "cffi", "pycparser")

#: Loaded on first use of a serving name or a paper experiment, never by
#: ``import repro``, ``repro info`` or ``repro sweep``.
LAZY_MODULES = (
    "repro.serving",
    "http.server",
    "repro.experiments.figures",
    "repro.experiments.validation",
)

#: A child interpreter that blocks the comma-separated top-level names in
#: ``argv[1]`` with a ``sys.meta_path`` finder (which works whether or not
#: they are installed), then imports ``repro`` or, given more
#: arguments, runs ``python -m repro`` with them and exits with its code.
#: Its last stdout line is JSON: every module it loaded, with its file.
BLOCKED_CHILD = textwrap.dedent(
    """
    import json
    import runpy
    import sys


    class Blocker:
        def __init__(self, names):
            self.names = set(names)

        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in self.names:
                raise ModuleNotFoundError(f"No module named {name!r}")
            return None


    blocked, *command = sys.argv[1:]
    sys.meta_path.insert(0, Blocker(blocked.split(",")))
    before = set(sys.modules)
    code = 0
    if command:
        sys.argv = ["repro", *command]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            code = stop.code or 0
    else:
        import repro
    loaded = {
        name: getattr(sys.modules[name], "__file__", None)
        for name in set(sys.modules) - before
    }
    print(json.dumps(loaded))
    sys.exit(code)
    """
)


#: A two-worker checkpointed sweep; the store directory follows.
SWEEP = (
    "sweep", "--side", "10", "--horizon", "1", "--taus", "0.3,0.45",
    "--replicates", "1", "--workers", "2", "--checkpoint-dir",
)


def run_blocked(*command: str, blocked: tuple[str, ...] = UNDECLARED) -> dict:
    """Run :data:`BLOCKED_CHILD` with ``blocked`` (default :data:`UNDECLARED`).

    The child picks its backend itself: ``REPRO_BACKEND`` is not passed on.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop(BACKEND_ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_CHILD, ",".join(blocked), *command],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def canonical(name: str) -> str:
    """PEP 503 normalised distribution name."""
    return re.sub(r"[-_.]+", "-", name).lower()


def declared_distributions() -> set[str]:
    """``[project].dependencies`` of ``pyproject.toml``, canonical names."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    requirements = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    return {
        canonical(re.match(r"[A-Za-z0-9._-]+", req).group()) for req in requirements
    }


def third_party_distributions(loaded: dict) -> set[str]:
    """The distributions of the third-party top-level modules in ``loaded``.

    Modules without a file (Cython's shared runtime modules) belong to the
    extension that created them, and the stdlib needs no declaration.
    """
    distributions = importlib.metadata.packages_distributions()
    return {
        canonical(dist)
        for name, origin in loaded.items()
        if "." not in name
        and origin is not None
        and name != "repro"
        and name not in sys.stdlib_module_names
        for dist in distributions.get(name, [name])
    }


def sweep_backends(store: Path) -> list[str]:
    """The backend a checkpointed sweep's manifest and each record name."""
    manifest = json.loads((store / "manifest.json").read_text())
    records = (store / "metrics.jsonl").read_text().splitlines()
    assert records
    return [manifest["backend"], *(json.loads(line)["backend"] for line in records)]


class TestDeclaredDependencies:
    def test_import_loads_theory_but_no_lazy_module(self):
        loaded = run_blocked()
        assert "repro.theory" in loaded
        assert not set(LAZY_MODULES) & set(loaded)

    def test_import_loads_only_declared_distributions(self):
        """The third-party top-level modules ``import repro`` loads are declared."""
        third_party = third_party_distributions(run_blocked())
        assert "numpy" in third_party
        assert third_party <= declared_distributions()

    @pytest.mark.parametrize(
        "command",
        [("info", "--tau", "0.45"), (*SWEEP, "{store}")],
        ids=["info", "sweep"],
    )
    def test_cli_runs_on_declared_dependencies(self, command, tmp_path):
        store = tmp_path / "store"
        loaded = run_blocked(*(arg.format(store=store) for arg in command))
        assert not set(LAZY_MODULES) & set(loaded)
        if command[0] == "sweep" and "cffi" in available_backends():
            # The compiled backend loads without cffi: no quiet numpy fallback.
            assert set(sweep_backends(store)) == {"cffi"}

    def test_compiled_sweep_loads_only_declared_distributions(self, tmp_path):
        """With nothing blocked, a compiled sweep loads only declared packages.

        The kernel is bound with stdlib ``ctypes``, so an installed cffi is
        not imported either.
        """
        store = tmp_path / "store"
        loaded = run_blocked(*SWEEP, str(store), "--backend", "cffi", blocked=())
        third_party = third_party_distributions(loaded)
        assert "numpy" in third_party
        assert third_party <= declared_distributions()
        if "cffi" in available_backends():
            assert set(sweep_backends(store)) == {"cffi"}

    @pytest.mark.parametrize(
        "package, name, home",
        [
            ("repro", "QueryEngine", "repro.serving.query"),
            ("repro", "reproduce_store", "repro.serving.store"),
            ("repro", "theorem1_scaling", "repro.experiments.figures"),
            ("repro.experiments", "Figure1Result", "repro.experiments.figures"),
            ("repro.experiments", "firewall_experiment", "repro.experiments.validation"),
        ],
    )
    def test_lazy_names_are_home_module_objects(self, package, name, home):
        value = getattr(importlib.import_module(package), name)
        assert value is getattr(importlib.import_module(home), name)

    def test_from_import_of_lazy_name(self):
        from repro import QueryEngine
        from repro.serving.query import QueryEngine as home

        assert QueryEngine is home

    @pytest.mark.parametrize("package", ["repro", "repro.experiments"])
    def test_dir_lists_every_public_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name  # noqa: B018
