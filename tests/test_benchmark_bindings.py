"""The benchmark's tracer binds library names; renaming one must fail here too."""

from pathlib import Path

import specsal.tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # building the tracer looks up every traced name, so a dropped or renamed
    # library function raises AttributeError here
    tracer = spans.Tracer("training.step")
    exp, backward = specsal.tensor.exp, specsal.tensor.Tape.backward
    tracer.install()
    try:
        assert specsal.tensor.exp is not exp
        assert specsal.tensor.Tape.backward is not backward
    finally:
        tracer.uninstall()
    assert specsal.tensor.exp is exp
    assert specsal.tensor.Tape.backward is backward
