"""Every span target of `perfbench/tracing.py` resolves in vesselstudy.

The tracer wraps each public function in the namespace where its caller
looks it up, so a renamed function or import would otherwise break only
`perfbench/run.py --trace 1`.  This test installs and uninstalls a tracer
on the package modules that run.py hands it; it changes nothing in
perfbench.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run_modules() -> tuple[str, ...]:
    """run.py's MODULES, read without importing run.py, which sets the BLAS
    thread count in os.environ on import."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["MODULES"])


def test_every_target_is_wrapped_and_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    modules = {m: importlib.import_module(f"vesselstudy.{m}")
               for m in _run_modules()}
    owners = [(tracing._resolve(modules, path), attr)
              for path, attr, _ in tracing.TARGETS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in owners
               if attr not in vars(owner)]
    assert not missing
    originals = [vars(owner)[attr] for owner, attr in owners]

    tr = tracing.Tracer()
    tr.install(modules)
    try:
        assert [getattr(owner, attr).__wrapped__ for owner, attr in owners] \
            == originals
    finally:
        tr.uninstall()
    assert all(vars(owner)[attr] is fn
               for (owner, attr), fn in zip(owners, originals))
