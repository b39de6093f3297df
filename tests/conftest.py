import json
import re

import numpy as np

from relucomplex.model import (
    LayerSpec,
    MlpSpec,
    NeuronRef,
    NeuronSchedule,
    forward_trace,
    batch_preactivations,
    random_model,
    shift_output_bias,
)
from relucomplex.skeleton import init_hypercube
from relucomplex.subdivide import extract_complex
from relucomplex.validate import sample_domain


def sign_tuples(rows):
    """Each int8 sign row as a tuple: hashable, for comparing sets of rows,
    and ordered lexicographically with - < 0 < +, as `group_rows` sorts."""
    return [tuple(r) for r in np.asarray(rows, dtype=np.int8).tolist()]


def extract_random(dim, depth, width, seed, lo=-1.0, hi=1.0, include_output=False, **kw):
    """Random net + hypercube domain + full extraction; returns everything."""
    net = random_model(dim, depth, width, 1, seed)
    domain, sk = init_hypercube(dim, lo, hi)
    schedule = NeuronSchedule.for_model(net, include_output=include_output)
    sk, stats = extract_complex(net, domain, sk, schedule, **kw)
    return net, domain, schedule, sk, stats


def centered_output_net(dim, depth, width, seed, lo=-1.0, hi=1.0):
    """Random net with the output bias shifted so the zero level set is nonempty."""
    net = random_model(dim, depth, width, 1, seed)
    domain, _ = init_hypercube(dim, lo, hi)
    vals = batch_preactivations(net, sample_domain(domain, 1000, 7))[-1][:, 0]
    return shift_output_bias(net, -float(np.median(vals)))


def overflow_net():
    # finite weights of 1e200 in two layers: the second layer's
    # pre-activations overflow to inf wherever the first one's are positive
    big = 1e200
    return MlpSpec(
        (
            LayerSpec(np.array([[big, 0.0], [0.0, big]]), np.zeros(2)),
            LayerSpec(np.array([[big, big]]), np.array([-1.0])),
        ),
        2,
    )


NONFINITE = re.compile(r"non-finite pre-activation of neuron (\d+):(\d+) at vertex (\d+), position (\[.*\])")


def check_nonfinite_message(text, net):
    """The message names a vertex and position where that neuron's
    pre-activation is indeed not finite."""
    match = NONFINITE.search(text)
    assert match, text
    layer, index, _, position = match.groups()
    value = forward_trace(net, np.array(json.loads(position))).value(
        NeuronRef(int(layer), int(index))
    )
    assert not np.isfinite(value)
