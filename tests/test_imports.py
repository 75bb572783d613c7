"""The package's import layout: the paper's bound checks live in rnlab.bounds,
which rnlab.cli does not import, and rnlab serves their names lazily.  No
module of rnlab imports mpmath: the tests alone use it, as their oracle.
Nor does any import dataclasses, whose class synthesis, and the inspect
module it loads, would be paid at every process start: the records are
named tuples."""

import ast
import json
import os
import subprocess
import sys

import rnlab
from rnlab import bounds

LAZY = ("check_e_bound", "check_q_bound", "factorial_ratio_bounds",
        "kernel_extrema")

# rnlab.__all__ and dir(rnlab) after a bare `import rnlab`, as they were
# while every bound check was imported eagerly from rnlab.pade
ALL = [
    "BoundConstants", "Decomposition", "HugeSolutionCertificate",
    "IntPolynomial", "LiftState", "MaxSigmaResult", "PadeSystem", "QuadInt",
    "SurveyRecord", "SurveyReport", "audit_theorem1_chain", "binom",
    "build_diagonal", "build_general", "certify", "check_e_bound",
    "check_q_bound", "checkpoint", "content", "cross_constant", "decompose",
    "eval_at_z0", "factorial_ratio_bounds", "kernel_extrema", "lift_step_odd",
    "lift_two", "max_sigma", "normalize", "power_compare", "restore",
    "rigorous_compare", "roots_mod_pn", "run_survey", "sqrt_mod_p",
    "thresholds",
]
DIR = sorted(ALL + [
    "__all__", "__builtins__", "__cached__", "__doc__", "__file__",
    "__loader__", "__name__", "__package__", "__path__", "__spec__",
    "__version__", "_sys", "certifier", "decomposer", "hensel", "pade",
    "quadring", "rigor", "survey",
])


def _fresh(code: str):
    """The JSON that `code` prints in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rnlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_does_not_import_bounds():
    # nor does any subcommand that reaches pade
    assert _fresh("""
import json, sys
import rnlab.cli
loaded = ["rnlab.bounds" in sys.modules]
for argv in (["pade", "verify", "--j-max", "2", "--abc-max", "2"],
             ["audit", "--D", "76", "--p", "101", "--x0", "1015", "--n0", "3",
              "--n", "16"]):
    rnlab.cli.main(argv + ["--format", "json"])
    loaded.append("rnlab.bounds" in sys.modules)
print(json.dumps(loaded))
""") == [False, False, False]


# modules that no subcommand may load
UNLOADED = ("mpmath", "dataclasses", "inspect")


def test_no_subcommand_imports_mpmath():
    # rigor's logs and exps are integer arithmetic and the records are named
    # tuples: one process runs every subcommand, and none of UNLOADED is
    # loaded after any of them
    assert _fresh(f"""
import contextlib, io, json, sys
import rnlab.cli
instance = ["--D", "76", "--p", "101"]
base = instance + ["--x0", "1015", "--n0", "3"]
unloaded = {UNLOADED!r}
loaded = [[name in sys.modules for name in unloaded]]
for argv in (["survey"] + instance + ["--sigma", "9/10", "--n-max", "30"],
             ["hensel"] + instance + ["--n", "30"],
             ["pade", "verify", "--j-max", "2", "--abc-max", "2"],
             ["decompose"] + base + ["--n", "16"],
             ["audit"] + base + ["--n", "16"],
             ["certify"] + base + ["--sigma", "1/10"],
             ["max-sigma"] + base,
             ["scan-huge"] + instance + ["--n0-max", "4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        rnlab.cli.main(argv + ["--format", "json"])
    loaded.append([name in sys.modules for name in unloaded])
print(json.dumps(loaded))
""") == [[False] * len(UNLOADED)] * 9


def test_lazy_bound_checks_load_bounds_and_not_mpmath():
    assert _fresh("""
import json, sys
import rnlab
before = ["rnlab.bounds" in sys.modules, "mpmath" in sys.modules]
rnlab.check_q_bound
print(json.dumps(before + ["rnlab.bounds" in sys.modules,
                           "mpmath" in sys.modules]))
""") == [False, False, True, False]


def _modules() -> list:
    """Every module of the package: each *.py in its directory."""
    return sorted(name[:-3] for name in
                  os.listdir(os.path.dirname(rnlab.__file__))
                  if name.endswith(".py"))


def _imported(module: str) -> set:
    """The names that rnlab's module imports anywhere in its source."""
    with open(os.path.join(os.path.dirname(rnlab.__file__),
                           f"{module}.py")) as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}"
                            for alias in node.names)
    return imported


def test_pade_imports_neither_mpmath_nor_rigor():
    # nor does any module of the package import mpmath or dataclasses
    assert not {name for name in _imported("pade")
                if name.split(".")[-1] == "rigor"}
    modules = _modules()
    assert {"bounds", "cli", "pade", "rigor"} <= set(modules)
    for module in modules:
        assert not {name for name in _imported(module)
                    if name.split(".")[0] in ("mpmath", "dataclasses")}, \
            module


def test_all_and_dir_unchanged():
    assert rnlab.__all__ == ALL
    assert _fresh("import json, rnlab\n"
                  "print(json.dumps([rnlab.__all__, dir(rnlab)]))") == \
        [ALL, DIR]


def test_lazy_names_are_the_bounds_functions():
    for name in LAZY:
        assert getattr(rnlab, name) is getattr(bounds, name)
        # served by __getattr__ each time, never cached in the namespace
        assert name not in vars(rnlab)
    assert set(LAZY) <= set(dir(rnlab))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from rnlab import *", namespace)
    for name in rnlab.__all__:
        assert namespace[name] is getattr(rnlab, name), name
    assert set(namespace) - {"__builtins__"} == set(rnlab.__all__)
