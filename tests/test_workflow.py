"""The CI workflow parses as YAML and keeps its console-script,
whole-shape sweep and tier-1 steps: a workflow file that does not parse
runs nothing, and nothing else in the suite reads it."""

import re
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_the_workflow_parses_and_keeps_its_tier_1_steps():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = {step.get("name", ""): step.get("run", "") for step in workflow["jobs"]["tier-1"]["steps"]}
    console = [run for name, run in steps.items() if name.startswith("Console script")]
    assert len(console) == 1 and "qrank check all" in console[0]
    # thirteen large codes, folded or eliminated, are checked against the lattice
    # route, which exits 1 on a wrong count; `qrank wd` exits 0 whatever it prints
    codes = ("c18", "c20", "c54", "c43f3", "c12f3", "c33f4", "c44f3", "c220", "c8f5", "c66", "c44f3k2", "c33f8",
             "c24f16")  # fmt: skip
    for code in codes:
        assert re.search(rf"^ *timeout \d+ qrank check greene {code}\.json$", console[0], re.M), code
        assert not re.search(rf"^ *timeout \d+ qrank wd {code}\.json$", console[0], re.M), code
    assert "python -m pytest" in steps["Tier-1 tests"]
    # four whole-shape sweeps, n < m and n > m over F_3 and F_2: every code of
    # Mat(2x3, F_3), Mat(3x2, F_3), Mat(2x4, F_2) and Mat(4x2, F_2) through check_all
    sweeps = [run for run in steps.values() if "check_every_code.py" in run]
    assert sweeps == [
        "timeout 300 python tests/check_every_code.py 2 3 3 56632",
        "timeout 300 python tests/check_every_code.py 3 2 3 56632",
        "timeout 400 python tests/check_every_code.py 2 4 2 417199",
        "timeout 900 python tests/check_every_code.py 4 2 2 417199",
    ]
    script = (Path(__file__).parent / "check_every_code.py").read_text()
    assert "for C in all_codes(n, m, gf_new(q)):" in script and "check_all(C)" in script
    assert "assert count == expected" in script
