import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import corrwishart

MODULES = ["corrwishart"] + ["corrwishart." + m.name
                             for m in pkgutil.iter_modules(corrwishart.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # each module's __all__ is kept by hand (the package joins them); a deleted
    # function must leave it too
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_double_precision_never_loads_mpmath():
    # importing mpmath adds about 30 ms to a process; only an escalation may
    # load it.  Row 8x6 pdf max is flagged in double precision, which must not
    # escalate
    script = """
import sys
from corrwishart import (ColumnCorrelated, Dimensions, DoublyCorrelated, RowCorrelated,
                         cdf_max, cdf_min, pdf_joint_minmax, pdf_max, pdf_min, prob_gap,
                         validate_spectrum)
from corrwishart.cli import main
main(["pdf", "--case", "row", "--n", "8", "--m", "6", "--spectrum", "0.5,1,1.7,2.4,3.3,4.1",
      "--stat", "max", "--grid", "0.2:30:10"])
row = RowCorrelated(Dimensions(5, 3), validate_spectrum([1.0, 1.0001, 1.0002]))
col = ColumnCorrelated(Dimensions(4, 2), validate_spectrum([0.8, 1.6, 2.4, 4.0]))
dbl = DoublyCorrelated(Dimensions(3, 3), validate_spectrum([1.0, 2.0, 3.2]),
                       validate_spectrum([0.9, 1.8, 3.1]))
for case in (row, col, dbl):
    for fn in (cdf_max, cdf_min, pdf_max, pdf_min):
        fn(case, 0.3)
prob_gap(row, 0.2, 3.0)
pdf_joint_minmax(row, 0.2, 3.0)
print("mpmath loaded:", "mpmath" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(corrwishart.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "cancellation:" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "mpmath loaded: False"


def test_test_only_dependencies_stay_unloaded():
    # scipy and hypothesis are test extras only: no path of the package may
    # import them, in either precision, the CLI's Monte Carlo commands included
    script = """
import sys
from corrwishart import (Dimensions, EvalConfig, MCConfig, RowCorrelated, cdf_max, cdf_min,
                         haar_hciz_estimate, validate_spectrum)
from corrwishart.cli import main
row = RowCorrelated(Dimensions(5, 3), validate_spectrum([1.0, 1.0001, 1.0002]))
cdf_max(row, 0.3)
assert any(w.startswith("extended:") for w in cdf_min(row, 0.3, EvalConfig("extended")).warnings)
main(["validate", "--case", "row", "--n", "3", "--m", "2", "--spectrum", "1,2",
      "--samples", "500", "--grid", "0.5:4:3"])
main(["crosscheck", "--case", "row", "--n", "4", "--m", "3", "--spectrum", "1,2,3"])
haar_hciz_estimate(0.7, [1.0, 2.0], [1.0, 3.0], MCConfig(samples=200))
print("loaded:", sorted(m for m in ("scipy", "hypothesis") if m in sys.modules))
"""
    src = os.path.dirname(os.path.dirname(corrwishart.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "crosscheck: PASS" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "loaded: []"
