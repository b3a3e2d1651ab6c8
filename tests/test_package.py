"""The package's public names and its lazily run submodules, in fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudoform

ROOT = Path(pseudoform.__file__).resolve().parents[2]


def _python(script, *paths):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    pseudoform (and modules from ``paths``); returns its stdout, asserting
    an exit code of 0 and an empty stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (ROOT / "src", *paths)))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_star_import_and_dir_give_the_public_names():
    namespace = {}
    exec("from pseudoform import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert len(pseudoform.__all__) == len(names) == 52
    assert names == set(pseudoform.__all__) <= set(dir(pseudoform))
    assert all(namespace[name] is getattr(pseudoform, name) for name in names)
    assert pseudoform.classify is pseudoform.pfaff.classify
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pseudoform.no_such_name


def test_import_of_the_cli_leaves_every_traced_module_in_sys_modules():
    # the benchmark's span recorder reads sys.modules[...] for every module its
    # tables name, right after `import pseudoform.cli`
    script = (
        "import sys, pseudoform.cli, spans\n"
        "names = {row[1] for row in spans.FUNCTIONS + spans.METHODS}\n"
        "print(sorted(names - set(sys.modules)))\n"
        "recorder = spans.Recorder()\n"
        "recorder.install()\n"
        "recorder.restore()\n"
    )
    assert _python(script, ROOT / "perfbench") == "[]\n"


_FIRST_TOUCH = """
import sys, threading
sys.setswitchinterval(1e-6)
touches = [("geometry", "adapt_frame"), ("foucault", "foucault_geometry"), ("pfaff", "classify")]
failures = []
for _ in range(20):
    for name in [n for n in sys.modules if n.partition(".")[0] == "pseudoform"]:
        del sys.modules[name]
    import pseudoform
    barrier = threading.Barrier(8, timeout=60)

    def touch(k):
        barrier.wait()
        try:
            for module, attr in touches[k % 3:] + touches[:k % 3]:
                getattr(getattr(pseudoform, module), attr)
        except Exception as err:
            failures.append(repr(err))

    threads = [threading.Thread(target=touch, args=(k,)) for k in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    failures += ["thread still running" for thread in threads if thread.is_alive()]
print(failures)
"""


def test_threads_that_first_touch_a_module_at_once_all_see_its_whole_body():
    # every round re-imports the package, so the 8 threads behind the barrier
    # meet unrun modules; a thread that read a module whose body another
    # thread was still running would miss the attribute
    assert _python(_FIRST_TOUCH) == "[]\n"
