"""The docs subsystem's gates.

Hand-rolled (AST-based, no linter dependencies) enforcement that the
public API stays documented and the generated registry reference stays
fresh.  The freshness check runs ``repro docs --check`` in a *fresh
interpreter* so registrations made by other test files (e.g. the
``hh_variant`` sweeps) cannot leak into the comparison — the committed
``docs/REGISTRY.md`` must match a pristine import of the library,
which is exactly what CI sees.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import docgen

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestDocstringAudit:
    def test_public_api_is_fully_documented(self):
        assert docgen.audit_docstrings() == []

    def test_registered_callables_are_documented(self):
        assert docgen.audit_registrations() == []

    def test_audit_catches_missing_docstrings(self, tmp_path):
        """The gate itself must bite: a bare public surface fails."""
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Module docstring."""\n'
            "def exposed():\n    pass\n"
            "def _private():\n    pass\n"
            "class Public:\n"
            '    """Documented."""\n'
            "    def method(self):\n        pass\n"
        )
        problems = docgen.audit_file(bad)
        assert [p.split(": ", 1)[1] for p in problems] == [
            "public function exposed has no docstring",
            "public method Public.method has no docstring",
        ]

    def test_audit_requires_module_docstring(self, tmp_path):
        bad = tmp_path / "bare.py"
        bad.write_text("x = 1\n")
        assert docgen.audit_file(bad) == [
            "bare.py: module has no docstring"
        ]


class TestRegistryReference:
    def test_every_registry_is_rendered(self):
        text = docgen.registry_markdown()
        for title, dotted, registry in docgen.DOCUMENTED_REGISTRIES:
            assert f"## {title} (`{dotted}`)" in text
            for key in registry.keys():
                assert f"| `{key}` |" in text

    def test_no_entry_renders_undocumented(self):
        assert "(undocumented)" not in docgen.registry_markdown()

    def test_committed_reference_is_fresh(self):
        """`repro docs --check` must pass against the committed file.

        Runs in a subprocess so this comparison sees the pristine
        registries CI sees, not whatever earlier tests registered.
        """
        out = subprocess.run(
            [sys.executable, "-m", "repro", "docs", "--check"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "docs OK" in out.stdout

    def test_check_flags_a_stale_reference(self, tmp_path):
        stale = tmp_path / "REGISTRY.md"
        stale.write_text("# out of date\n")
        from repro.cli import main

        assert main(["docs", "--check", "--out", str(stale)]) == 2

    def test_regeneration_is_a_no_op_when_fresh(self, tmp_path):
        target = tmp_path / "REGISTRY.md"
        docgen.write_registry_doc(target)
        before = target.read_text()
        docgen.write_registry_doc(target)
        assert target.read_text() == before
        assert docgen.registry_doc_is_fresh(target)


class TestArchitectureDoc:
    @pytest.fixture(scope="class")
    def text(self) -> str:
        return (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()

    def test_layer_map_names_every_layer(self, text):
        for layer in ("core/", "workloads/", "api/", "store/", "serving/",
                      "qos/", "analysis/", "cli.py", "perfbench/"):
            assert layer in text

    def test_paper_artifact_table_is_complete(self, text):
        for artifact in ("Table I", "Table II", "Table III", "Table IV",
                         "Table V", "Table VI", "Fig. 4", "Fig. 5",
                         "Fig. 6"):
            assert artifact in text
        for bench in sorted(
            p.name for p in (REPO_ROOT / "benchmarks").glob("test_bench_*.py")
        ):
            if "ablation" in bench:
                continue  # covered collectively by the ablation row
            assert bench in text, f"{bench} missing from the artifact table"

    def test_differential_convention_is_written_down(self, text):
        for marker in ("REPRO_SCALAR_DP", "REPRO_SCALAR_RUNTIME",
                       "scalar_dp()", "scalar_runtime()", "bit-identical"):
            assert marker in text
