"""Start-up cost: which verbs load scipy, and the constants written in place of it.

Every CLI call is a fresh interpreter, and importing scipy takes about a
second.  So ``import fibercav`` and ``import fibercav.cli`` load no scipy
module, and neither does any verb but ``modes``, which imports
``scipy.special`` and ``scipy.optimize`` only when it calls them.  ``fit``
detects peaks with the package's own ``fitting.find_peaks``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

import fibercav
import fibercav.fitting as fitting
import fibercav.gratings as gratings
import fibercav.modes as modes
from fibercav.pulling import synthesize_pull_trace, write_pull_trace

# Runs each argument list given as JSON through the click entry point in one
# process, and prints, per step, the exit status and the scipy modules loaded.
_DRIVER = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

steps = {}
import fibercav
steps["import fibercav"] = [0, scipy_modules()]
import fibercav.cli
steps["import fibercav.cli"] = [0, scipy_modules()]
for argv in json.loads(sys.argv[1]):
    status = 0
    try:
        fibercav.cli.main(args=argv, prog_name="fibercav")
    except SystemExit as exc:
        status = exc.code
    steps[argv[0]] = [status, scipy_modules()]
print(json.dumps(steps))
"""


def run_steps(*argvs):
    """``{step: (exit status, scipy modules loaded after it)}`` from one fresh process."""
    package_root = str(Path(fibercav.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "FIBERCAV_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DRIVER, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {step: tuple(value) for step, value in json.loads(proc.stdout.splitlines()[-1]).items()}


def test_verbs_load_only_the_scipy_they_call(tmp_path):
    out = str(tmp_path)
    trace = tmp_path / "trace.csv"
    write_pull_trace(synthesize_pull_trace(kind="flat", samples=400), trace)
    light = run_steps(
        ["--version"],
        ["synth", "--t1", "0.000867", "--t2", "0.000867", "--alpha-int", "0.0031",
         "--length-mm", "27.0", "--out", out],
        ["fit", f"{out}/synth_spectrum.csv", "--out", out],
        ["budget", "--finesse", "2027", "--r1", "0.1", "--r2", "0.1", "--out", out],
        ["pull", str(trace), "--growth", "linear", "--out", out],
        ["coop", "--reference", "--out", out],
        ["report", *(f"{out}/{verb}_record.json" for verb in ("synth", "budget", "pull", "coop")),
         "--out", out],
    )
    assert list(light) == ["import fibercav", "import fibercav.cli", "--version",
                           "synth", "fit", "budget", "pull", "coop", "report"]
    for step, (status, loaded) in light.items():
        assert (step, status, loaded) == (step, 0, [])

    steps = run_steps(["modes", "--diameter-nm", "650", "--out", out])
    assert steps["import fibercav.cli"] == (0, [])
    status, loaded = steps["modes"]
    assert status == 0
    assert {"scipy.special", "scipy.optimize"} <= set(loaded)
    assert "scipy.signal" not in loaded


def test_constants_are_scipy_codata_values_bit_for_bit():
    for ours, theirs in ((gratings.C_VACUUM, scipy.constants.c),
                         (modes._EPS0, scipy.constants.epsilon_0),
                         (modes._MU0, scipy.constants.mu_0)):
        assert ours.hex() == float(theirs).hex()
    assert fitting.C_VACUUM is gratings.C_VACUUM

