"""Self-test of the benchmark tracer on synthetic nested calls.

    python3 -m pytest -q bench/tests
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture()
def synth(monkeypatch):
    """lib defines work(); app binds it with ``from lib import work``."""
    clock = FakeClock()
    lib = types.ModuleType("synth_lib")

    def work(xs):
        clock.advance(3.0)
        return len(xs)

    lib.work = work

    class Base:
        def step(self, n):
            clock.advance(n)
            return n

    class Model(Base):
        def scale(self, x):
            clock.advance(0.5)
            return 2 * x

    lib.Model = Model
    app = types.ModuleType("synth_app")
    app.work = lib.work  # what ``from synth_lib import work`` leaves in app

    def run():
        clock.advance(1.0)
        a = app.work([1, 2])
        clock.advance(2.0)
        b = app.work([1, 2, 3, 4])
        clock.advance(1.0)
        return a + b

    app.run = run
    monkeypatch.setitem(sys.modules, "synth_lib", lib)
    monkeypatch.setitem(sys.modules, "synth_app", app)
    return clock, lib, app


def test_self_time_and_counts(synth):
    clock, lib, app = synth
    tr = Tracer(clock=clock)
    assert tr.patch("synth_app", "work", "lib.work", lambda a, k, r: {"points": len(a[0])})
    root = tr.wrap("app.run", app.run)
    assert root() == 6
    lay = tr.layers()
    assert lay["app.run"]["total_s"] == 10.0
    assert lay["app.run"]["self_s"] == 4.0
    assert lay["lib.work"]["calls"] == 2
    assert lay["lib.work"]["self_s"] == 6.0
    assert lay["lib.work"]["sum"]["points"] == 6
    assert lay["lib.work"]["max"]["points"] == 4
    assert sum(tr.self_times()) == lay["app.run"]["total_s"]
    assert [s.parent for s in tr.spans] == [None, 0, 0]


def test_patch_reaches_the_from_import_binding_only(synth):
    clock, lib, app = synth
    original = lib.work
    tr = Tracer(clock=clock)
    tr.patch("synth_app", "work", "lib.work")
    lib.work([1])  # the defining module's name is not what app looks up
    assert tr.spans == []
    app.run()
    assert [s.name for s in tr.spans] == ["lib.work", "lib.work"]
    tr.restore()
    assert app.work is original and lib.work is original


def test_class_methods_own_and_inherited(synth):
    clock, lib, app = synth
    tr = Tracer(clock=clock)
    assert tr.patch("synth_lib.Model", "scale", "Model.scale")
    assert tr.patch("synth_lib.Model", "step", "Model.step", lambda a, k, r: {"n": r})
    m = lib.Model()
    assert m.scale(3) == 6 and m.step(2) == 2
    lay = tr.layers()
    assert lay["Model.scale"]["calls"] == 1 and lay["Model.step"]["sum"]["n"] == 2
    assert lay["Model.step"]["self_s"] == 2.0
    tr.restore()
    assert "step" not in vars(lib.Model) and "scale" in vars(lib.Model)
    m.scale(1)
    assert len(tr.spans) == 2


def test_exception_closes_span_and_unwinds(synth):
    clock, lib, app = synth
    tr = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    inner = tr.wrap("boom", boom)
    outer = tr.wrap("outer", lambda: inner())
    with pytest.raises(KeyError):
        outer()
    assert [s.attrs for s in tr.spans] == [{"raised": 1}, {"raised": 1}]
    tr.wrap("after", lambda: None)()
    assert tr.spans[-1].parent is None


def test_missing_target_is_absent_not_zero(synth):
    clock, lib, app = synth
    tr = Tracer(clock=clock)
    assert not tr.patch("synth_app", "gone", "app.gone")
    assert not tr.patch("no_such_module_xyz", "f", "mod.f")
    assert not tr.patch("synth_lib.NoClass", "f", "NoClass.f")
    assert tr.patch("synth_app", "work", "lib.work")
    assert tr.absent() == ["NoClass.f", "app.gone", "mod.f"]
    assert "app.gone" not in tr.layers()


def test_layer_metrics_absent_vs_uncalled(synth):
    clock, lib, app = synth
    tr = Tracer(clock=clock)
    tr.patch("synth_app", "missing_mellin", "amr.mellin_mmse")  # deleted: absent
    tr.patch("synth_app", "work", "channel_model.mrc_law",
             lambda a, k, r: {"terms": r + 1, "tail_bound": 1e-11})
    tr.wrap("cli.run", app.run)()
    m = layers.metrics(tr)
    assert m["amr.mellin_mmse.calls"] is None
    assert m["amr.mellin_mmse.self_s"] is None
    assert m["mc_sim.mc_amr.calls"] == 0  # not absent, just never called
    assert m["channel_model.mrc_law.calls"] == 2
    assert m["channel_model.mrc_law.terms_mean"] == 4.0
    assert m["channel_model.mrc_law.terms_max"] == 5
    assert m["channel_model.mrc_law.self_s"] == 6.0
    assert m["cli.residual_s"] == 4.0
    assert m["trace.run_s"] == 10.0
    assert m["trace.self_sum_err_s"] == 0.0
