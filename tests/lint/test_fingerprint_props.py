"""Property tests: finding fingerprints are content addresses.

The baseline workflow depends on one invariant - a finding's
fingerprint hashes ``rule | path | stripped line text`` and nothing
else - so editing *around* an accepted violation (inserting or deleting
unrelated lines, re-indenting the file) must never resurrect it from
the baseline, and moving the file must.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lint import LintConfig, run_lint
from repro.lint.findings import finding_fingerprint

from .conftest import write_tree

#: The one DET001 violation whose fingerprint the properties track.
VIOLATION = "    return np.random.normal(0.0, 1.0)"

HEADER = [
    "import numpy as np",
    "",
    "def draw():",
]

FOOTER = [
    "",
    "def unrelated(x):",
    "    y = x + 1",
    "    return y",
]

#: Innocuous module-level lines an edit may sprinkle anywhere between
#: the header and the violation's function, or after the footer.  Each
#: is a complete statement, so any drawn combination still parses.
FILLER = st.sampled_from(
    [
        "# a comment",
        "",
        "CONSTANT = 7",
        "OTHER = 'text'",
        "PAIR = (1, 2)",
    ]
)

_counter = itertools.count()


def lint_violation(tmp_path, lines):
    root = write_tree(
        tmp_path / f"t{next(_counter)}",
        {"repro/mod.py": "\n".join(lines) + "\n"},
    )
    report = run_lint(
        root,
        config=LintConfig(),
        select=["DET001"],
        baseline_path=False,
    )
    assert [f.rule for f in report.active] == ["DET001"]
    return report.active[0]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    before=st.lists(FILLER, max_size=4),
    after=st.lists(FILLER, max_size=4),
)
def test_fingerprint_survives_unrelated_insertions(tmp_path, before, after):
    baseline = lint_violation(
        tmp_path, HEADER + [VIOLATION] + FOOTER
    ).fingerprint
    edited = lint_violation(
        tmp_path,
        ["import numpy as np", ""]
        + before
        + ["def draw():", VIOLATION]
        + FOOTER
        + after,
    )
    assert edited.fingerprint == baseline
    # The location moved; the identity did not.
    assert edited.line_text.strip() == VIOLATION.strip()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(drop_footer=st.booleans(), extra_blank=st.integers(0, 3))
def test_fingerprint_survives_deletions(tmp_path, drop_footer, extra_blank):
    full = lint_violation(
        tmp_path, HEADER + [VIOLATION] + [""] * extra_blank + FOOTER
    ).fingerprint
    trimmed_lines = HEADER + [VIOLATION] + ([] if drop_footer else FOOTER)
    trimmed = lint_violation(tmp_path, trimmed_lines).fingerprint
    assert trimmed == full


@settings(max_examples=20, deadline=None)
@given(
    rule=st.sampled_from(["DET001", "DET002", "CONC001"]),
    path=st.sampled_from(["repro/a.py", "repro/b.py"]),
    pad_left=st.text(alphabet=" \t", max_size=6),
    pad_right=st.text(alphabet=" \t", max_size=6),
)
def test_fingerprint_is_whitespace_insensitive(
    rule, path, pad_left, pad_right
):
    body = "x = np.random.normal()"
    padded = finding_fingerprint(rule, path, pad_left + body + pad_right)
    assert padded == finding_fingerprint(rule, path, body)
    # ...but rule and path are part of the identity.
    assert padded != finding_fingerprint(rule, "repro/other.py", body)
    other_rule = "DET002" if rule == "DET001" else "DET001"
    assert padded != finding_fingerprint(other_rule, path, body)


def test_renamed_file_changes_the_fingerprint(tmp_path):
    lines = HEADER + [VIOLATION] + FOOTER
    a = lint_violation(tmp_path, lines)
    root = write_tree(
        tmp_path / "renamed",
        {"repro/moved.py": "\n".join(lines) + "\n"},
    )
    report = run_lint(
        root, config=LintConfig(), select=["DET001"], baseline_path=False
    )
    assert report.active[0].fingerprint != a.fingerprint
