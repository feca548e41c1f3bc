"""The incremental lint cache: hits, misses, invalidation, and degradation."""

import json
import shutil
from pathlib import Path

import pytest

import repro.lint.cache as cache_module
from repro.lint import LintCache, known_rule_ids, lint_paths

LINT_SOURCES = Path(cache_module.__file__).parent

FILES = {
    "clock.py": "import time\n\ndef f():\n    return time.time()\n",
    "clean.py": "def g():\n    return 1\n",
    "other.py": "def h(x):\n    return x + 1\n",
}


@pytest.fixture
def tree(tmp_path):
    """Three files under a repro/engine package, one with a D1 finding."""
    root = tmp_path / "repro" / "engine"
    root.mkdir(parents=True)
    for name, source in FILES.items():
        (root / name).write_text(source)
    return root


def run(tree, cache_path, select=None):
    selected = select if select is not None else known_rule_ids()
    cache = LintCache(str(cache_path), selected)
    return lint_paths([str(tree)], select=select, cache=cache)


def hits_and_misses(report):
    return report.cache_hits, report.cache_misses


class TestLintCache:
    def test_changed_linter_fingerprint_misses_every_entry(self, tree, tmp_path,
                                                            monkeypatch):
        # Editing a rule must not replay results the old rule computed.
        cache_path = tmp_path / "cache.json"
        run(tree, cache_path)
        monkeypatch.setattr(cache_module, "linter_fingerprint",
                            lambda: "an-edited-rule")
        assert hits_and_misses(run(tree, cache_path)) == (0, 3)

    def test_fingerprint_covers_every_linter_source(self, tmp_path,
                                                    monkeypatch):
        copy = tmp_path / "lint"
        shutil.copytree(LINT_SOURCES, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = cache_module.linter_fingerprint()
        monkeypatch.setattr(cache_module, "__file__", str(copy / "cache.py"))
        assert cache_module.linter_fingerprint() == before
        rule_file = copy / "determinism.py"
        rule_file.write_text(rule_file.read_text() + "\n# edited\n")
        assert cache_module.linter_fingerprint() != before

    def test_unchanged_tree_is_all_hits_with_the_same_report(self, tree,
                                                             tmp_path):
        cache_path = tmp_path / "cache.json"
        cold = run(tree, cache_path)
        warm = run(tree, cache_path)
        assert hits_and_misses(cold) == (0, 3)
        assert hits_and_misses(warm) == (3, 0)
        assert warm.violations == cold.violations
        assert [v.rule for v in warm.violations] == ["D1"]

    def test_one_edited_file_is_one_miss(self, tree, tmp_path):
        cache_path = tmp_path / "cache.json"
        run(tree, cache_path)
        (tree / "other.py").write_text("def h(x):\n    return x + 2\n")
        assert hits_and_misses(run(tree, cache_path)) == (2, 1)

    def test_select_run_does_not_reuse_full_run_entries(self, tree, tmp_path):
        cache_path = tmp_path / "cache.json"
        run(tree, cache_path)
        subset = run(tree, cache_path, select=["D2"])
        assert hits_and_misses(subset) == (0, 3)
        assert subset.ok

    def test_deleted_files_are_dropped_on_save(self, tree, tmp_path):
        cache_path = tmp_path / "cache.json"
        run(tree, cache_path)
        (tree / "clean.py").unlink()
        run(tree, cache_path)
        files = json.loads(cache_path.read_text())["files"]
        assert sorted(Path(path).name for path in files) == [
            "clock.py", "other.py"]

    def test_unwritable_cache_path_degrades_to_an_uncached_run(self, tree,
                                                               tmp_path):
        cache_path = tmp_path / "missing-dir" / "cache.json"
        uncached = lint_paths([str(tree)])
        for _ in range(2):
            report = run(tree, cache_path)
            assert hits_and_misses(report) == (0, 3)
            assert report.violations == uncached.violations
        assert not cache_path.exists()
