"""The names the benchmark hooks into must stay where it looks for them.

perfbench/tracer.py wraps functions by module and attribute name, and the
oracle-check workload captures the Groebner basis of each check by
replacing engine.groebner_basis.  A rename would only show when the
benchmark runs, so these tests read the tracer's target list and exercise
the capture here.
"""

import builtins
import importlib
import importlib.util
from pathlib import Path

from matroidlab import engine
from matroidlab.engine import nbc_check, standard_ordering_at
from matroidlab.families import named_matroid
from matroidlab.fields import GF2_FIELD, Q_FIELD

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_traced_target_resolves():
    targets = _tracer_targets()
    assert targets
    for mod_name, path, kind in targets:
        assert kind in ("span", "count"), (mod_name, path)
        owner = importlib.import_module(f"matroidlab.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if hasattr(owner, attr):
            assert callable(getattr(owner, attr)), (mod_name, path)
        else:  # a builtin the module looks up, like engine.sorted
            assert not cls_path and callable(getattr(builtins, attr)), (mod_name, path)


def test_both_method_computes_the_basis_through_engine(monkeypatch):
    m = named_matroid("k33")
    std = standard_ordering_at(m, 0)
    inner = engine.groebner_basis
    for F in (GF2_FIELD, Q_FIELD):
        captured = []

        def keep(ideal, *args, **kwargs):
            captured.append(inner(ideal, *args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(engine, "groebner_basis", keep)
        rep = nbc_check(m, std, F, method="both", include_monomials=False)
        assert rep.cardinality_ok and rep.lsop_valid, F.name
        assert len(captured) == 1, F.name
        assert rep.verdict == nbc_check(m, std, F, method="macaulay").verdict
        assert len(captured) == 1, F.name
