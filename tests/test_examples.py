"""Every example script must run cleanly end to end.

Examples are the documentation users actually execute; each one is run
in-process (not via subprocess, so coverage and errors surface
normally) with stdout captured and spot-checked.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

#: Long-running suite: excluded from the fast loop (-m 'not slow').
pytestmark = pytest.mark.slow


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: (script, fragments its output must contain)
EXPECTED = {
    "quickstart.py": ["Informative rule set", "London"],
    "sql_session.py": ["CUBE", "rule set (thesis Table 1.2)"],
    "service_session.py": ["cache hits", "coalesced", "service drained"],
    "net_client.py": ["serving on 127.0.0.1", "bit-identical",
                      "cache_hit=True", "server drained"],
    "data_cleaning.py": [],
    "cube_exploration.py": [],
    "scalability_tour.py": [],
}


def run_example(name):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(
        "example_%s" % name.replace(".py", ""), path
    )
    module = importlib.util.module_from_spec(spec)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        spec.loader.exec_module(module)
        module.main()
    return captured.getvalue()


def test_every_example_is_listed():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXPECTED), (
        "examples/ and tests/test_examples.py disagree: %s"
        % sorted(on_disk ^ set(EXPECTED))
    )


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_example_runs(name):
    output = run_example(name)
    assert output.strip(), "%s printed nothing" % name
    for fragment in EXPECTED[name]:
        assert fragment in output, (
            "%s output missing %r" % (name, fragment)
        )
