"""The reprolint CLI surface: suppression comments, JSON output, exit codes,
and the self-lint gate (the shipped tree must be clean)."""

import json
import os
import textwrap

import repro
from repro.devtools import lint as lint_mod


def write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


DIRTY = """\
    def f(value):
        return value == SUPPRESSED
"""


class TestSuppression:
    def test_disable_comment_suppresses_on_its_line(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(value):
                return value == SUPPRESSED  # reprolint: disable=sentinel-identity
        """)
        assert lint_mod.run([str(tmp_path)]) == []

    def test_disable_all_suppresses_every_rule(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(value):
                return value == SUPPRESSED  # reprolint: disable=all
        """)
        assert lint_mod.run([str(tmp_path)]) == []

    def test_disable_list_with_reason_suffix(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(lock, value):
                lock.acquire()  # reprolint: disable=lock-discipline,sentinel-identity -- ffi handoff
        """)
        assert lint_mod.run([str(tmp_path)]) == []

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(value):
                return value == SUPPRESSED  # reprolint: disable=lock-discipline
        """)
        assert len(lint_mod.run([str(tmp_path)])) == 1

    def test_comment_on_other_line_does_not_suppress(self, tmp_path):
        write(tmp_path, "mod.py", """\
            # reprolint: disable=sentinel-identity
            def f(value):
                return value == SUPPRESSED
        """)
        assert len(lint_mod.run([str(tmp_path)])) == 1


class TestOutputFormats:
    def test_json_shape(self, tmp_path, capsys):
        write(tmp_path, "mod.py", DIRTY)
        code = lint_mod.main([str(tmp_path), "--format=json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["tool"] == "reprolint"
        assert report["paths"] == [str(tmp_path)]
        assert report["count"] == len(report["findings"]) == 1
        finding = report["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "sentinel-identity"
        assert finding["line"] == 2
        assert "reprolint" not in finding["message"]  # message is the defect

    def test_json_clean_report(self, tmp_path, capsys):
        write(tmp_path, "mod.py", "x = 1\n")
        assert lint_mod.main([str(tmp_path), "--format=json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 0 and report["findings"] == []

    def test_human_format_lists_findings_and_summary(self, tmp_path, capsys):
        write(tmp_path, "mod.py", DIRTY)
        assert lint_mod.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "mod.py:2:" in out
        assert "[sentinel-identity]" in out
        assert "1 finding(s)" in out

    def test_human_clean_summary(self, tmp_path, capsys):
        write(tmp_path, "mod.py", "x = 1\n")
        assert lint_mod.main([str(tmp_path)]) == 0
        assert "reprolint: clean" in capsys.readouterr().out


class TestCliBehavior:
    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        write(tmp_path, "mod.py", "x = 1\n")
        assert lint_mod.main([str(tmp_path), "--rules=no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_rules_subset_runs_only_selected(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(lock, value):
                lock.acquire()
                return value == SUPPRESSED
        """)
        findings = lint_mod.run([str(tmp_path)], rule_names=["lock-discipline"])
        assert [f.rule for f in findings] == ["lock-discipline"]

    def test_list_rules(self, capsys):
        assert lint_mod.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("sentinel-identity", "executor-confinement",
                     "lock-discipline", "no-swallowed-abort", "single-fanout",
                     "wal-exhaustive", "frame-tag-exhaustive"):
            assert rule in out

    def test_syntax_error_reported_as_parse_error(self, tmp_path):
        write(tmp_path, "broken.py", "def f(:\n")
        findings = lint_mod.run([str(tmp_path)])
        assert len(findings) == 1
        assert findings[0].rule == "parse-error"

    def test_explicit_file_argument(self, tmp_path):
        path = write(tmp_path, "mod.py", DIRTY)
        assert len(lint_mod.run([str(path)])) == 1

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        write(tmp_path, "a.py", """\
            def f(value):
                if value == SUPPRESSED:
                    return 1
                return value == REMOVED
        """)
        write(tmp_path, "b.py", DIRTY)
        findings = lint_mod.run([str(tmp_path)])
        keys = [(f.path, f.line) for f in findings]
        assert keys == sorted(keys)


class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        """The tier-1 gate: reprolint over the installed repro package."""
        package_dir = os.path.dirname(repro.__file__)
        findings = lint_mod.run([package_dir])
        assert findings == [], "\n".join(f.format() for f in findings)
