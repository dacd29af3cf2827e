"""What a run imports: only the modules that run.

A scenario or live run starts a fresh interpreter (the benchmark's
children, every CLI), and each module it imports costs start-up time and
resident memory whether or not any of its code runs.  The fuzzer and the
shrinker are not part of a run, and neither is the HTTP/e-mail half of
the standard library that ``xml.sax.saxutils`` brings along.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Modules a scenario or live run must not load.
NOT_RUN = ("repro.scenarios.fuzz", "repro.scenarios.shrink",
           "urllib.request", "email")


def test_a_run_imports_neither_the_fuzzer_nor_the_http_stack():
    src = str(Path(repro.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "import repro.scenarios.runner, repro.livenet.runner\n"
        f"print(sorted(name for name in {NOT_RUN!r} if name in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_the_lazy_names_are_the_submodules_own():
    import repro.scenarios as scenarios
    from repro.scenarios import fuzz, library, shrink

    assert scenarios.run_fuzz is fuzz.run_fuzz
    assert scenarios.CANNED is library.CANNED
    assert scenarios.shrink_scenario is shrink.shrink_scenario
    assert all(hasattr(scenarios, name) for name in scenarios.__all__)
