"""The repo passes its own linter: src and tests are violation-free."""

import re
from pathlib import Path

from repro.lint import lint_paths, rule_classes

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSelfCheck:
    def test_src_and_tests_are_clean(self):
        report = lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        assert report.ok, "\n" + "\n".join(v.format() for v in report.violations)
        assert report.files_checked > 100  # the whole tree, not a subset

    def test_rule_table_is_complete(self):
        ids = [cls.rule_id for cls in rule_classes()]
        assert ids == ["D1", "D2", "D3", "D4", "H1", "H3", "W1"]
        for cls in rule_classes():
            assert cls.name and cls.description and cls.hint

    def test_design_rule_table_lists_every_rule(self):
        # DESIGN.md §9's table rows, in order: the live rules plus E1.
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        section = design.split("### Rule table", 1)[1].split("\n### ", 1)[0]
        ids = re.findall(r"^\| ([A-Z]\d) \|", section, flags=re.MULTILINE)
        assert ids == [cls.rule_id for cls in rule_classes()] + ["E1"]
