"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracing.py`` patches functions and methods of ``taxseq`` by
name. A rename there would otherwise surface only inside a traced
benchmark run, so this installs and removes the tracer once.
"""

import importlib.util
from pathlib import Path

from taxseq import codec
from taxseq.codec import BOS_ID, EOS_ID, Ordering, build_vocab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_name(tiny_tree):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        patched = [(owner, attr, original) for owner, attr, original in tracer._restore]
        assert patched
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
        vocab = build_vocab(tiny_tree)
        codec.decode([BOS_ID, vocab.id_of("A"), EOS_ID], vocab, tiny_tree,
                     Ordering.CHILD_TO_PARENT)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    assert [span[0] for span in tracer.spans] == ["codec.decode"]
