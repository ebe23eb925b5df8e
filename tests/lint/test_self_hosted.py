"""The linter gates its own repository: ``src/repro`` must be clean.

This is the acceptance bar of the lint subsystem — every rule runs
over the real tree against the checked-in ``lint-baseline.json``, so
any regression of a bug class the project has already paid for
(unstable seeds, torn writes, mode leaks, raw queue transitions ...)
fails tier-1 here before it can corrupt a result.  The baseline
itself is constrained: only RL009 (bespoke-sweep) entries may appear
in it, grandfathering the Table 1/2 window sweeps — every other rule
must hold with zero suppressions.
"""

from dataclasses import replace
from pathlib import Path

from repro.lint import apply_baseline, available_rules, lint_paths, load_baseline

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint-baseline.json"


def _relative_to_repo(findings):
    # The checked-in baseline fingerprints repo-relative paths (it is
    # written by `repro lint src/repro ...` from the repo root).
    return [
        replace(f, path=str(Path(f.path).relative_to(REPO_ROOT)))
        for f in findings
    ]


class TestSelfHosted:
    def test_src_repro_is_clean(self):
        findings = _relative_to_repo(lint_paths([SRC]))
        fresh, _ = apply_baseline(findings, load_baseline(BASELINE))
        assert fresh == [], "\n".join(f.render() for f in fresh)

    def test_baseline_only_grandfathers_sweep_oracles(self):
        # The baseline exists solely for RL009's pre-campaign Table 1/2
        # window sweeps.  Any other rule id in it means a true positive
        # got suppressed instead of fixed.
        baseline = load_baseline(BASELINE)
        assert sum(baseline.values()) > 0
        assert {rule for rule, _path, _text in baseline} == {"RL009"}

    def test_src_is_clean_without_rl009_baseline(self):
        # Everything except the grandfathered sweeps must be clean
        # with NO baseline at all.
        findings = [f for f in lint_paths([SRC]) if f.rule != "RL009"]
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_all_rules_ran(self):
        # The clean result above must come from the full rule set, not
        # an accidentally empty registry.
        assert len(available_rules()) >= 9

    def test_lint_package_lints_itself(self):
        findings = lint_paths([SRC / "lint"])
        assert findings == [], "\n".join(f.render() for f in findings)
