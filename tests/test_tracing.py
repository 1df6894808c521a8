"""The benchmark's trace points (sessionbench/tracing.py) bind to fedsign
names by string, so a rename in fedsign must fail here and not only in a
benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "sessionbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("sessionbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    tracing = load_tracing()
    for owner, attr, name, _ in tracing.POINTS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_install_then_remove_restores_every_original():
    tracing = load_tracing()
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.POINTS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr, _, _ in tracing.POINTS]
    finally:
        tracer.remove()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.POINTS] == originals


def test_regularizer_spans_are_recorded_in_a_client_update():
    """`client_update` looks the regularizers up by the names the tracer
    wraps, so each call on each step records a span."""
    from fedsign.data import make_synthetic, split
    from fedsign.federation import FedConfig, WatermarkSpec, client_update, setup_clients
    from fedsign.nn import build_mlp

    tracing = load_tracing()
    ds = make_synthetic(3, 20, seed=1, kind="blobs")
    net = build_mlp(32, [16, 16], 3, seed=1)
    specs = {0: WatermarkSpec("scale", 8, loss="hinge", beta=1.0),
             1: WatermarkSpec("kernel", 8, loss="bce", beta=1.0)}
    clients = setup_clients(ds, split(ds, 2, seed=1), net, specs, seed=1)
    cfg = FedConfig(n_clients=2, local_epochs=1, batch=8, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        client_update(net, clients, net.get_params(), cfg)
    finally:
        tracer.remove()
    calls = tracer.totals()
    steps = [-(-c.n_samples // cfg.batch) for c in clients]  # one call per step
    assert [calls["watermark.hinge"][0], calls["watermark.bce"][0]] == steps


SESSION = """
arch = cnn
data_kind = images
channels = 4
classes = 2
per_class = 12
test_per_class = 12
clients = 2
rounds = 1
local_epochs = 1
dp_sigma = 0.01
seed = 3
out_dir = {out}
embed.0 = mode=scale bits=4 loss=hinge beta=1.0 triggers=2 alpha=1.0 trigger_kind=pgd
embed.1 = mode=kernel bits=4 loss=bce beta=1.0 triggers=2 alpha=1.0
attack.prune = 0.5
attack.finetune_epochs = 1
"""


def test_every_trace_point_records_a_span(tmp_path):
    """A tiny session that reaches every traced name: a refactor that calls
    around one would otherwise zero its per-layer metric unnoticed."""
    from fedsign.cli import main

    tracing = load_tracing()
    manifest, out = tmp_path / "run.manifest", tmp_path / "out"
    manifest.write_text(SESSION.format(out=out))
    keys = [str(out / f"client_{cid}.key") for cid in (0, 1)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["train", str(manifest)]) == 0
        assert main(["attack", str(manifest)]) == 0
        for key in keys:
            assert main(["verify", str(out / "checkpoint.bin"), key, "--mode", "both"]) in (0, 1)
        assert main(["feasibility", keys[1]]) in (0, 1)
    finally:
        tracer.remove()
    missing = {name for _, _, name, _ in tracing.POINTS} - set(tracer.names)
    assert not missing, f"trace points that recorded no span: {sorted(missing)}"
