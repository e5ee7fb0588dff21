"""Tests of the top-level public API surface."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro


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


class TestDeclaredDependencies:
    def test_import_needs_no_networkx(self):
        """``import repro`` succeeds with networkx unavailable.

        Nothing declares networkx (no install line, no README line), so no
        module reachable from ``import repro`` may need it.  The child
        interpreter blocks it with a ``sys.meta_path`` finder, which works
        whether or not networkx is installed here.
        """
        script = textwrap.dedent(
            """
            import sys

            class BlockNetworkx:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "networkx":
                        raise ModuleNotFoundError(f"No module named {name!r}")
                    return None

            sys.meta_path.insert(0, BlockNetworkx())
            import repro
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
