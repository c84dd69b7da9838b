"""An empty alphabet has one word, the empty word, at every length bound.

Every length loop must stop at the longest word that exists: a loop over
``max_len + 1`` lengths would spin, or allocate, for nothing when there are
no letters, however harmless the budget check finds the bound.  The calls
run in a child process, so that a regression fails the test instead of
stalling the suite.
"""

import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import rwlab

HUGE = 10**9
SRC = str(Path(rwlab.__file__).resolve().parents[1])


def run_child(argv, timeout=20):
    """Run Python in a child process limited to 1 GiB of address space, so
    that a hang or a runaway allocation fails the test and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        preexec_fn=limit,
    )


def test_nf_on_the_empty_alphabet_prints_the_empty_word(tmp_path):
    pres = tmp_path / "empty.pres"
    pres.write_text("order\n")
    result = run_child(["-m", "rwlab.cli", "nf", "-p", str(pres), "--max-len", str(HUGE)])
    assert (result.returncode, result.stdout, result.stderr) == (0, "ε\n", "")


def test_equivalence_classes_on_the_empty_alphabet_return_promptly():
    code = textwrap.dedent(
        f"""
        from rwlab.completion import equivalence_classes
        from rwlab.core import parse_presentation
        print(equivalence_classes(parse_presentation("order"), {HUGE})(()))
        """
    )
    result = run_child(["-c", code])
    assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")

