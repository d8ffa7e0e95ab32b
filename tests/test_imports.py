"""Which modules the package loads: SciPy only once a fit runs, and no
thread pool at all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import vibropol

PROBE = """
import json, sys
import vibropol, vibropol.cli
import numpy as np
from vibropol import (
    ConstantMedium, FitProblem, FreeParameter, Layer, LayerStack, model_values, solve,
)

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

after_import = scipy_modules()
concurrent = sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")
stack = LayerStack(
    materials={"film": ConstantMedium(eps=2.25), "sub": ConstantMedium(eps=1.0)},
    layers=(Layer("film", 1000.0),),
    substrate="sub",
    n_ambient=1.0,
    substrate_mode="coherent",
)
k = np.arange(1500.0, 2000.0, 10.0)
target = model_values(FitProblem(stack=stack, free=(), k=k, target=np.zeros_like(k)), [])
problem = FitProblem(
    stack=stack, free=(FreeParameter("layers[0].thickness", 800.0, 1200.0),),
    k=k, target=target,
)
solve(problem)
print(json.dumps({"after_import": after_import, "after_solve": scipy_modules(),
                  "concurrent": concurrent}))
"""


def test_cli_import_loads_no_scipy_until_a_fit_runs():
    src = str(Path(vibropol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded["after_import"] == []
    assert "scipy.optimize" in loaded["after_solve"]
    assert loaded["concurrent"] == []
