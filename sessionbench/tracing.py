"""Span tracer for one fedsign session and the per-layer metrics it yields.

`Tracer.install` replaces each traced function with a wrapper at the name
its caller looks up (a module global such as `fedsign.federation.hinge_reg`
or a method such as `fedsign.nn.Dense.forward`).  Every call records one
span (name, start, end, parent) in memory; `remove` puts the originals
back.  A span's self time is its duration minus the durations of
its direct children.
"""

import functools
import os
import time
from array import array

import fedsign.attacks
import fedsign.cli
import fedsign.feasibility
import fedsign.federation
import fedsign.io
import fedsign.kernels
import fedsign.nn
import fedsign.runner
import fedsign.watermark


def _bytes(counter):
    def count(counters, args):
        counters[counter] = counters.get(counter, 0) + os.path.getsize(args[0])
    return count


def _conv_flops(passes, counter):
    """2*B*H*W*k*k*Cin*Cout multiply-adds per pass over a stride-1 'same' conv."""
    def count(counters, args):
        x, w = args[0], args[1]
        b, h, wd, _ = x.shape
        kh, kw, ci, co = w.shape
        counters[counter] = (counters.get(counter, 0)
                             + passes * 2 * b * h * wd * kh * kw * ci * co)
    return count


nn, kern, wm, fed = fedsign.nn, fedsign.kernels, fedsign.watermark, fedsign.federation

# (owner, attribute, span name, counter hook or None)
POINTS = [
    (nn.Network, "forward", "nn.forward", None),
    (nn.Network, "backward", "nn.backward", None),
    (nn.SgdMomentum, "step", "nn.opt_step", None),
    (nn.Dense, "forward", "nn.dense_fwd", None),
    (nn.Dense, "backward", "nn.dense_bwd", None),
    (nn.ScaleNorm, "forward", "nn.scalenorm_fwd", None),
    (nn.ScaleNorm, "backward", "nn.scalenorm_bwd", None),
    (nn.Relu, "forward", "nn.relu_fwd", None),
    (nn.Relu, "backward", "nn.relu_bwd", None),
    (nn.Conv2d, "forward", "nn.conv2d_fwd", None),
    (nn.Conv2d, "backward", "nn.conv2d_bwd", None),
    (nn.MaxPool2, "forward", "nn.maxpool2_fwd", None),
    (nn.MaxPool2, "backward", "nn.maxpool2_bwd", None),
    (fedsign.runner, "fit", "nn.fit", None),
    (kern, "conv2d_forward", "kernels.conv2d_fwd", _conv_flops(1, "conv2d_fwd_flops")),
    (kern, "conv2d_backward", "kernels.conv2d_bwd", _conv_flops(2, "conv2d_bwd_flops")),
    (kern, "maxpool2_forward", "kernels.maxpool2_fwd", None),
    (kern, "maxpool2_backward", "kernels.maxpool2_bwd", None),
    (fed, "hinge_reg", "watermark.hinge", None),
    (fed, "bce_reg", "watermark.bce", None),
    (fed, "keygen", "watermark.keygen", None),
    (fedsign.cli, "verify_white", "watermark.verify_white", None),
    (fedsign.attacks, "verify_white", "watermark.verify_white", None),
    (fedsign.cli, "verify_black", "watermark.verify_black", None),
    (fedsign.attacks, "verify_black", "watermark.verify_black", None),
    (fedsign.runner, "run_federation", "federation.rounds", None),
    (fed, "client_update", "federation.client_update", None),
    (fed, "add_dp_noise", "federation.dp_noise", None),
    (fed, "aggregate", "federation.aggregate", None),
    (fed, "accuracy", "federation.eval", None),
    (fed, "verify_white", "federation.telemetry", None),
    (fed, "verify_black", "federation.telemetry", None),
    (fedsign.runner, "make_synthetic", "data.make_synthetic", None),
    (fedsign.runner, "split", "data.split", None),
    (wm, "forge_pattern_triggers", "data.pattern_triggers", None),
    (wm, "forge_pgd_triggers", "data.pgd_triggers", None),
    (fedsign.cli, "stack", "feasibility.stack", None),
    (fedsign.feasibility, "check_conditions", "feasibility.conditions", None),
    (fedsign.cli, "decide", "feasibility.decide", None),
    (fedsign.attacks, "prune", "attacks.prune", None),
    (fedsign.attacks, "finetune", "attacks.finetune", None),
    (fedsign.attacks, "evaluate_attack", "attacks.evaluate", None),
    (fedsign.io, "save_checkpoint", "io.save_checkpoint", _bytes("bytes_written")),
    (fedsign.io, "save_keyfile", "io.save_keyfile", _bytes("bytes_written")),
    (fedsign.io, "save_triggers", "io.save_triggers", _bytes("bytes_written")),
    (fedsign.io, "load_checkpoint", "io.load_checkpoint", _bytes("bytes_read")),
    (fedsign.io, "load_keyfile", "io.load_keyfile", _bytes("bytes_read")),
    (fedsign.io, "load_triggers", "io.load_triggers", _bytes("bytes_read")),
]


class Tracer:
    """Spans are kept in flat arrays (name, start, end, parent index or -1),
    which the garbage collector does not traverse, so that a long trace
    does not slow the code that runs after it."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters = {}
        self._stack = []
        self._originals = []

    def _wrap(self, owner, attr, name, count):
        original = getattr(owner, attr)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counters = self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if count is not None:
                    count(counters, args)

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def install(self):
        for owner, attr, name, count in POINTS:
            self._wrap(owner, attr, name, count)

    def remove(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path):
        with open(path, "w") as f:
            f.write("name,start,end,parent\n")
            for span in zip(self.names, self.starts, self.ends, self.parents):
                f.write("%s,%r,%r,%d\n" % span)

    def totals(self):
        """name -> [calls, inclusive seconds, self seconds]."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += duration
        out = {}
        for name, duration, c in zip(self.names, durations, child):
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += duration
            t[2] += duration - c
        return out


def layer_metrics(tracer, rounds, total_bits, overhead_s):
    """Per-layer metrics of one traced session.  Times are self time per
    call unless the name ends in `_s` (inclusive wall time of that phase).
    `federation.telemetry_ms` is per round.  A layer that was never called
    reports 0."""
    t = tracer.totals()
    c = tracer.counters

    def calls(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_per_call(name, scale):
        n, _, s = t.get(name, (0, 0.0, 0.0))
        return s / n * scale if n else 0.0

    def inclusive(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def gflops(counter, name):
        busy = t.get(name, (0, 0.0, 0.0))[2]
        return c.get(counter, 0) / busy / 1e9 if busy else 0.0

    us, ms = 1e6, 1e3
    m = {
        "nn.forward_us": (self_per_call("nn.forward", us), "us"),
        "nn.backward_us": (self_per_call("nn.backward", us), "us"),
        "nn.opt_step_us": (self_per_call("nn.opt_step", us), "us"),
        "nn.train_steps": (calls("nn.opt_step"), "count"),
        "nn.dense_fwd_us": (self_per_call("nn.dense_fwd", us), "us"),
        "nn.dense_bwd_us": (self_per_call("nn.dense_bwd", us), "us"),
        "nn.scalenorm_fwd_us": (self_per_call("nn.scalenorm_fwd", us), "us"),
        "nn.scalenorm_bwd_us": (self_per_call("nn.scalenorm_bwd", us), "us"),
        "nn.relu_fwd_us": (self_per_call("nn.relu_fwd", us), "us"),
        "nn.relu_bwd_us": (self_per_call("nn.relu_bwd", us), "us"),
        "nn.fit_s": (inclusive("nn.fit"), "s"),
        "kernels.conv2d_fwd_us": (self_per_call("kernels.conv2d_fwd", us), "us"),
        "kernels.conv2d_bwd_us": (self_per_call("kernels.conv2d_bwd", us), "us"),
        "kernels.maxpool2_fwd_us": (self_per_call("kernels.maxpool2_fwd", us), "us"),
        "kernels.maxpool2_bwd_us": (self_per_call("kernels.maxpool2_bwd", us), "us"),
        "kernels.calls": (calls("kernels.conv2d_fwd", "kernels.conv2d_bwd",
                                "kernels.maxpool2_fwd", "kernels.maxpool2_bwd"), "count"),
        "kernels.conv2d_fwd_gflops": (gflops("conv2d_fwd_flops", "kernels.conv2d_fwd"),
                                      "GFLOP/s"),
        "kernels.conv2d_bwd_gflops": (gflops("conv2d_bwd_flops", "kernels.conv2d_bwd"),
                                      "GFLOP/s"),
        "watermark.hinge_us": (self_per_call("watermark.hinge", us), "us"),
        "watermark.bce_us": (self_per_call("watermark.bce", us), "us"),
        "watermark.reg_calls": (calls("watermark.hinge", "watermark.bce"), "count"),
        "watermark.keygen_ms": (self_per_call("watermark.keygen", ms), "ms"),
        "watermark.verify_white_us": (self_per_call("watermark.verify_white", us), "us"),
        "watermark.verify_black_us": (self_per_call("watermark.verify_black", us), "us"),
        "federation.rounds_s": (inclusive("federation.rounds"), "s"),
        "federation.client_update_ms": (self_per_call("federation.client_update", ms), "ms"),
        "federation.client_updates": (calls("federation.client_update"), "count"),
        "federation.dp_noise_us": (self_per_call("federation.dp_noise", us), "us"),
        "federation.aggregate_us": (self_per_call("federation.aggregate", us), "us"),
        "federation.eval_ms": (self_per_call("federation.eval", ms), "ms"),
        "federation.telemetry_ms": (
            t.get("federation.telemetry", (0, 0.0, 0.0))[2] / rounds * ms if rounds else 0.0,
            "ms"),
        "data.make_synthetic_ms": (self_per_call("data.make_synthetic", ms), "ms"),
        "data.split_ms": (self_per_call("data.split", ms), "ms"),
        "data.pattern_triggers_ms": (self_per_call("data.pattern_triggers", ms), "ms"),
        "data.pgd_triggers_ms": (self_per_call("data.pgd_triggers", ms), "ms"),
        "feasibility.stack_ms": (self_per_call("feasibility.stack", ms), "ms"),
        "feasibility.conditions_ms": (self_per_call("feasibility.conditions", ms), "ms"),
        "feasibility.decide_ms": (self_per_call("feasibility.decide", ms), "ms"),
        "feasibility.total_bits": (total_bits, "bits"),
        "attacks.prune_ms": (self_per_call("attacks.prune", ms), "ms"),
        "attacks.finetune_ms": (self_per_call("attacks.finetune", ms), "ms"),
        "attacks.evaluate_ms": (self_per_call("attacks.evaluate", ms), "ms"),
        "io.save_checkpoint_ms": (self_per_call("io.save_checkpoint", ms), "ms"),
        "io.save_keyfile_ms": (self_per_call("io.save_keyfile", ms), "ms"),
        "io.save_triggers_ms": (self_per_call("io.save_triggers", ms), "ms"),
        "io.load_checkpoint_ms": (self_per_call("io.load_checkpoint", ms), "ms"),
        "io.load_keyfile_ms": (self_per_call("io.load_keyfile", ms), "ms"),
        "io.bytes_written": (c.get("bytes_written", 0), "bytes"),
        "io.bytes_read": (c.get("bytes_read", 0), "bytes"),
        "trace.spans": (len(tracer.names), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
