"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`install` replaces
the public names of the ``ggrnet`` modules at the place their callers look
them up (``ggrnet.autodiff.<op>``, ``ggrnet.training.forward`` and so on)
with wrappers that open and close a span around the real call. Nothing under
``src/`` changes. Each span keeps its name, start, end and parent; the spans
stay in memory and are written once, when the run ends.

A span's name starts with its layer (``autodiff.matmul``, ``model.forward``,
``harness.run``), and a layer's self time is the time its spans cover minus
the time their child spans cover. Every span nests in the root span, so the
layers' self times add up to the root span's duration.
"""
from __future__ import annotations

import os
import time

import numpy as np

OPS = ("matmul", "linear", "concat_rows", "sigmoid", "tanh", "hadamard", "scale",
       "transpose", "slice_rows", "relu", "add", "sub")
LAYERS = ("autodiff", "model", "training", "data", "checkpoint", "gradcheck", "synth",
          "harness")
# the constant 0/1 operands that gather atom columns into pair columns and back
SELECTORS = frozenset({"receiver_select", "sender_select", "receiver_scatter"})
# forward spans are also split by the molecule's atom count
SIZE_BINS = ((9, 14), (15, 21), (22, 29))


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self._step: int | None = None
        self.natoms: dict[int, int] = {}
        self.eval_mols = 0
        self.load_mols = 0
        self.tape_entries = 0
        self.matmul_flop = 0
        self.linear_flop = 0
        self.selector_flop = 0
        self.out_bytes = 0
        self.checkpoint_bytes = 0

    def open(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(sid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[self.span_name[idx]]} closed out of order")

    def wrap(self, name: str, fn, hook=None, before=None):
        """``fn`` inside a span; ``hook(idx, args, result)`` runs after it closes."""
        def traced(*args, **kwargs):
            if before is not None:
                before()
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(idx, args, out)
            return out
        return traced

    # A training step has no function of its own: it runs from one
    # ``zero_grads`` call in ``train`` to the next, or to the epoch's
    # validation pass, or to the end of ``train``.
    def open_step(self) -> None:
        self.close_step()
        self._step = self.open("training.step")

    def close_step(self) -> None:
        if self._step is not None:
            self.close(self._step)
            self._step = None

    # -- hooks recording counts where the work happens

    def _op(self, idx, args, out):
        self.out_bytes += out.values.nbytes
        name = self.names[self.span_name[idx]]
        if name == "autodiff.matmul":
            a, b = args[1], args[2]
            flop = 2 * a.rows * a.cols * b.cols
            self.matmul_flop += flop
            if a.name in SELECTORS or b.name in SELECTORS:
                self.selector_flop += flop
        elif name == "autodiff.linear":
            w, x = args[1], args[3]
            self.linear_flop += 2 * w.rows * w.cols * x.cols + w.rows * x.cols

    def _backward(self, idx, args, out):
        self.tape_entries += len(args[0])

    def _eval(self, idx, args, out):
        self.eval_mols += len(args[1])

    def _load(self, idx, args, out):
        self.load_mols += len(out)

    def _save(self, idx, args, out):
        self.checkpoint_bytes = os.path.getsize(args[0])

    def wrap_forward(self, fn):
        def traced(graph, molecule, *args, **kwargs):
            idx = self.open("model.forward" if graph is not None else "model.forward_nograd")
            try:
                return fn(graph, molecule, *args, **kwargs)
            finally:
                self.close(idx)
                self.natoms[idx] = molecule.natoms
        return traced


class _TrainingAd:
    """Stands in for ``ggrnet.autodiff`` inside ``ggrnet.training`` only, so
    that its ``zero_grads`` calls start training steps and gradcheck's do not."""

    def __init__(self, ad, tracer: Tracer):
        self._ad = ad
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._ad, name)

    def zero_grads(self, params):
        self._tracer.open_step()
        return self._ad.zero_grads(params)


def install(tracer: Tracer) -> None:
    """Wrap the public names the workloads reach, where their callers look them up."""
    from ggrnet import autodiff as ad, checkpoint, data, gradcheck, model, training
    for op in OPS:
        setattr(ad, op, tracer.wrap(f"autodiff.{op}", getattr(ad, op), tracer._op))
    ad.backward = tracer.wrap("autodiff.backward", ad.backward, tracer._backward)
    ad.clip_global_norm = tracer.wrap("autodiff.clip_global_norm", ad.clip_global_norm)
    ad.zero_grads = tracer.wrap("autodiff.zero_grads", ad.zero_grads)
    training.ad = _TrainingAd(ad, tracer)

    forward = tracer.wrap_forward(model.forward)
    training.forward = gradcheck.forward = forward
    encoding = tracer.wrap("model.encode", model.MoleculeEncoding)
    model.MoleculeEncoding = training.MoleculeEncoding = gradcheck.MoleculeEncoding = encoding

    mse = tracer.wrap("training.mse_loss", training.mse_loss)
    training.mse_loss = gradcheck.mse_loss = mse
    training.evaluate = tracer.wrap("training.evaluate", training.evaluate, tracer._eval,
                                    before=tracer.close_step)
    train = training.train

    def traced_train(*args, **kwargs):
        idx = tracer.open("training.train")
        try:
            return train(*args, **kwargs)
        finally:
            tracer.close_step()
            tracer.close(idx)
    training.train = traced_train

    data.load_dataset = tracer.wrap("data.load_dataset", data.load_dataset, tracer._load)
    checkpoint.save_checkpoint = tracer.wrap("checkpoint.save_checkpoint",
                                             checkpoint.save_checkpoint, tracer._save)
    checkpoint.load_checkpoint = tracer.wrap("checkpoint.load_checkpoint",
                                             checkpoint.load_checkpoint)
    gradcheck.run_gradcheck = tracer.wrap("gradcheck.run_gradcheck", gradcheck.run_gradcheck)
    gradcheck.gradient_check = tracer.wrap("gradcheck.gradient_check",
                                           gradcheck.gradient_check)
    gradcheck.random_molecules = tracer.wrap("synth.random_molecules",
                                             gradcheck.random_molecules)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run. A figure whose layer the workload
    never reaches reads 0."""
    names = tracer.names
    sid = np.asarray(tracer.span_name, dtype=np.int64)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def mask(name):
        return sid == names.index(name) if name in names else np.zeros(len(sid), bool)

    def total(name, times=dur):
        return float(times[mask(name)].sum())

    def count(name):
        return int(mask(name).sum())

    def per(value, n):
        return value / n if n else 0.0

    # spans under a gradient check, parents always precede their children
    gc_ids = {i for i, n in enumerate(names) if n.startswith("gradcheck.")}
    flags: list[bool] = []
    for s, p in zip(tracer.span_name, tracer.parent):
        flags.append(s in gc_ids or (p >= 0 and flags[p]))
    under_gc = np.array(flags, dtype=bool)

    fwd, fwd_ng = count("model.forward"), count("model.forward_nograd")
    mols = fwd + fwd_ng
    batches = count("training.step")
    m = {}
    for op in OPS:
        m[f"autodiff.op.{op}.calls_per_mol"] = per(count(f"autodiff.{op}"), mols)
    m["autodiff.tape_entries_per_mol"] = per(tracer.tape_entries, fwd)
    for op in OPS:
        m[f"autodiff.op.{op}.fwd_ms_per_mol"] = per(1e3 * total(f"autodiff.{op}", self_time),
                                                    mols)
    m["autodiff.backward_ms_per_mol"] = per(1e3 * total("autodiff.backward"), fwd)
    m["autodiff.clip_ms_per_batch"] = per(1e3 * total("autodiff.clip_global_norm"),
                                          count("autodiff.clip_global_norm"))
    m["autodiff.matmul_gflop_per_mol"] = per(tracer.matmul_flop / 1e9, mols)
    m["autodiff.linear_gflop_per_mol"] = per(tracer.linear_flop / 1e9, mols)
    m["autodiff.out_mb_per_mol"] = per(tracer.out_bytes / 1e6, mols)
    m["autodiff.selector_flop_share"] = per(tracer.selector_flop, tracer.matmul_flop)
    m["model.encode_ms_per_mol"] = per(1e3 * total("model.encode"), count("model.encode"))
    for span in ("model.forward", "model.forward_nograd"):
        m[f"{span}_ms_per_mol"] = per(1e3 * total(span), count(span))
        span_idx = np.flatnonzero(mask(span))
        sizes = np.array([tracer.natoms[i] for i in span_idx], dtype=np.int64)
        for lo, hi in SIZE_BINS:
            sel = span_idx[(sizes >= lo) & (sizes <= hi)]
            m[f"{span}_ms_per_mol.n{lo}-{hi}"] = per(1e3 * float(dur[sel].sum()), len(sel))
    m["training.step_ms_per_batch"] = per(1e3 * total("training.step"), batches)
    m["training.update_self_ms_per_batch"] = per(1e3 * total("training.step", self_time),
                                                 batches)
    m["training.mse_loss_ms_per_batch"] = per(1e3 * total("training.mse_loss"),
                                              count("training.mse_loss"))
    eval_in_train = mask("training.evaluate") & np.isin(parent, np.flatnonzero(
        mask("training.train")))
    m["training.eval_ms_per_epoch"] = per(1e3 * float(dur[eval_in_train].sum()),
                                          int(eval_in_train.sum()))
    m["training.evaluate_ms_per_mol"] = per(1e3 * total("training.evaluate"),
                                            tracer.eval_mols)
    m["data.load_ms_per_mol"] = per(1e3 * total("data.load_dataset"), tracer.load_mols)
    m["checkpoint.load_ms"] = per(1e3 * total("checkpoint.load_checkpoint"),
                                  count("checkpoint.load_checkpoint"))
    m["checkpoint.save_ms"] = per(1e3 * total("checkpoint.save_checkpoint"),
                                  count("checkpoint.save_checkpoint"))
    m["checkpoint.bytes"] = tracer.checkpoint_bytes
    gc_fwd = (mask("model.forward") | mask("model.forward_nograd")) & under_gc
    m["gradcheck.forward_calls"] = int(gc_fwd.sum())
    m["gradcheck.forward_us_per_call"] = per(1e6 * float(dur[gc_fwd].sum()), int(gc_fwd.sum()))
    gc_bwd = mask("autodiff.backward") & under_gc
    m["gradcheck.backward_ms"] = per(1e3 * float(dur[gc_bwd].sum()), int(gc_bwd.sum()))

    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    layer_self = np.bincount(layer_of[sid], weights=self_time, minlength=len(LAYERS))
    for layer, value in zip(LAYERS, layer_self):
        m[f"{layer}.self_ms"] = 1e3 * float(value)
    root = dur[parent < 0].sum()
    m["trace.wall_ms"] = 1e3 * float(root)
    # share of the traced wall time that the program's own layers claim; the
    # rest is the harness's own code and the inputs it generates
    outside = layer_self[LAYERS.index("harness")] + layer_self[LAYERS.index("synth")]
    m["trace.layer_frac"] = float(1.0 - outside / root)
    m["trace.spans"] = len(sid)
    return m


def save_spans(tracer: Tracer, path) -> None:
    np.savez_compressed(path, names=np.array(tracer.names),
                        name=np.asarray(tracer.span_name, dtype=np.int32),
                        parent=np.asarray(tracer.parent, dtype=np.int64),
                        start=np.asarray(tracer.start), end=np.asarray(tracer.end))
