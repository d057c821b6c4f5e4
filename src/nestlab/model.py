"""Per-pixel segmentation model: small ReLU backbone plus linear head.

The head stores one weight column per class (column 0 is background).
Backprop is hand-written; `snapshot` deep-copies a model into a frozen
"old model" whose parameter arrays are read-only.
"""

import copy

import numpy as np

from .errors import ShapeError


def _affine_relu(x, w, b):
    """relu(x @ w.T + b) with the bias add and ReLU in place in the one
    fresh array of the matmul: the same operations in the same order,
    without two table-sized temporaries; `x` is never written.  Weights
    and biases stacked over leading axes give one output per stacked
    layer, each the bits of the unstacked call."""
    z = x @ w.swapaxes(-1, -2)
    z += b[..., None, :]
    return np.maximum(z, 0.0, out=z)


class Backbone:
    """Stack of linear layers with ReLU after each; zero layers = identity.

    A layer's (w, b) may carry leading axes, as `SegModel.unflatten`
    stacks them; `forward` then maps (P, d_in) pixels to one (..., P, d)
    output per stacked model."""

    def __init__(self, layers, input_dim):
        self.layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in layers]
        self.input_dim = input_dim
        dim = input_dim
        for w, b in self.layers:
            if w.shape[-1] != dim or b.shape[-1] != w.shape[-2]:
                raise ShapeError(f"layer shape {w.shape} does not chain from dim {dim}")
            dim = w.shape[-2]

    @classmethod
    def single_relu(cls, input_dim, output_dim, rng):
        w = rng.normal((output_dim, input_dim), std=1.0 / np.sqrt(input_dim))
        b = np.zeros(output_dim)
        return cls([(w, b)], input_dim)

    def forward(self, x):
        """x: (P, d_in) -> (P, d)."""
        return self.forward_cache(x)[0]

    def forward_cache(self, x):
        """The output and every layer's input and output, for `backward`."""
        if x.shape[1] != self.input_dim:
            raise ShapeError(f"input dim {x.shape[1]} != {self.input_dim}")
        acts = [x]
        for w, b in self.layers:
            x = _affine_relu(x, w, b)
            acts.append(x)
        return x, acts

    def backward(self, dout, acts):
        """Per-layer (dW, db); the gradient w.r.t. the input is not formed."""
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            w, _ = self.layers[i]
            # ReLU subgradient: 0 at 0
            dpre = dout * (acts[i + 1] > 0)
            grads[i] = (dpre.T @ acts[i], dpre.sum(axis=0))
            if i:
                dout = dpre @ w
        return grads


class Head:
    """Linear classifier: weights (d, C), optional per-class biases.

    Weights (..., d, C) and biases (..., C) stacked over leading axes give
    one (..., P, C) logit table per stacked head."""

    def __init__(self, weights, biases=None):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.biases = None if biases is None else np.asarray(biases, dtype=np.float64)
        if self.biases is not None and self.biases.shape[-1] != self.weights.shape[-1]:
            raise ShapeError("bias count must match column count")

    @property
    def num_classes(self):
        return self.weights.shape[-1]

    @property
    def dim(self):
        return self.weights.shape[-2]

    def logits(self, feats):
        """(..., P, C) logits; the biases are added in place in the fresh
        array of the matmul."""
        z = feats @ self.weights
        if self.biases is not None:
            z += self.biases[..., None, :]
        return z

    def copy(self):
        return Head(self.weights.copy(), None if self.biases is None else self.biases.copy())


def grow_head(head, new_columns, new_biases=None):
    """Append columns (and biases) without touching existing ones."""
    new_columns = np.asarray(new_columns, dtype=np.float64)
    if new_columns.shape[0] != head.dim:
        raise ShapeError(f"new columns have {new_columns.shape[0]} rows, head dim is {head.dim}")
    weights = np.concatenate([head.weights, new_columns], axis=1)
    biases = None
    if head.biases is not None:
        if new_biases is None:
            new_biases = np.zeros(new_columns.shape[1])
        biases = np.concatenate([head.biases, np.asarray(new_biases, dtype=np.float64)])
    return Head(weights, biases)


class SegModel:
    def __init__(self, backbone, head):
        self.backbone = backbone
        self.head = head

    def copy(self):
        """Deep copy with writable arrays, also of a snapshot."""
        return SegModel(copy.deepcopy(self.backbone), self.head.copy())

    def _arrays(self):
        """The parameter arrays in `flat_params` order: each layer's
        weight and bias, then the head's weights and biases, if any."""
        arrays = [a for layer in self.backbone.layers for a in layer] + [self.head.weights, self.head.biases]
        return [a for a in arrays if a is not None]

    def snapshot(self):
        """Deep frozen copy; training the live model never touches it, and
        an in-place write to its arrays raises, also after a pickle round
        trip (numpy loads every array writable; `__setstate__` freezes a
        snapshot's again)."""
        snap = self.copy()
        for a in snap._arrays():
            a.setflags(write=False)
        return snap

    def __getstate__(self):
        return dict(vars(self), frozen=not any(a.flags.writeable for a in self._arrays()))

    def __setstate__(self, state):
        frozen = state.pop("frozen")
        vars(self).update(state)
        if frozen:
            for a in self._arrays():
                a.setflags(write=False)

    def grads(self, out, acts, dz):
        """Backprop of the logit gradient `dz` through head and backbone,
        from `out, acts = self.backbone.forward_cache(x)`: one gradient per
        array of `_arrays()`, in its order (each layer's dW and db, then
        the head's weights and biases, if any)."""
        layer_grads = self.backbone.backward(dz @ self.head.weights.T, acts)
        head_grads = [out.T @ dz] + ([] if self.head.biases is None else [dz.sum(axis=0)])
        return [g for layer in layer_grads for g in layer] + head_grads

    def param_bytes(self):
        return b"".join(a.tobytes() for a in self._arrays())

    def flat_params(self):
        return np.concatenate([a.ravel() for a in self._arrays()])

    def unflatten(self, flat):
        """The model of this one's shapes whose parameters are read from
        `flat` in `flat_params` order.  Leading axes of `flat` stack
        models: `(..., n_params)` gives arrays `(..., *shape)`, views of
        `flat`, whose forward pass and logits carry the same axes."""
        flat = np.asarray(flat, dtype=np.float64)
        lead = flat.shape[:-1]
        views, i = [], 0
        for a in self._arrays():
            views.append(flat[..., i : i + a.size].reshape(lead + a.shape))
            i += a.size
        n = 2 * len(self.backbone.layers)
        layers = list(zip(views[0:n:2], views[1:n:2]))
        return SegModel(Backbone(layers, self.backbone.input_dim), Head(*views[n:]))
