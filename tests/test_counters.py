"""A train step's cost as exact counters: the graph nodes each step records.

A node is an op result that keeps its parents for backward, that is one
that `numerics._node` returns with `requires_grad` set. The counts are
pinned per step for pretrain and for each strategy, on the micro config at
a fixed seed. They do not depend on the host, so a change that records one
node more shows here; a fine-tune that left the base trainable would record
the input projection, the embeddings and the first norms as nodes too. A
change that moves a count on purpose updates its pin and says why in
CHANGES.md.
"""

import pytest

from voxmix import numerics as nm
from voxmix.losses import LossConfig
from voxmix.model import LoraSpec, ModelConfig, attach_adapters, build_model
from voxmix.synthdata import GenConfig, build_corpus
from voxmix.training import PhasePlanSpec, TrainPlan, make_train_state, next_batch, train_step

STEPS = 3
BATCH = 8

# nodes recorded by each of the first STEPS steps
NODES = {
    "pretrain": [64, 64, 64],
    "voc": [63, 63, 63],
    "mix": [63, 63, 63],
    "random": [68, 68, 68],
    "both": [67, 67, 67],
    "cns": [76, 76, 76],
}


@pytest.fixture(scope="module")
def corpus():
    return list(build_corpus(GenConfig(), songs_per_language=10, seed_base=0))


def _nodes_per_step(monkeypatch, corpus, phase):
    model = build_model(ModelConfig(), seed=0)
    if phase != "pretrain":
        attach_adapters(model, LoraSpec(), seed=1)
    loss = LossConfig(strategy="voc" if phase == "pretrain" else phase)  # cns: L2 at weight 1.0
    plan = TrainPlan(loss, PhasePlanSpec(peak_lr=1e-3, total_steps=10, batch_size=BATCH, seed=2))
    state = make_train_state(model, plan)
    counts = []
    node = nm._node

    def counted(values, parents, rule):
        out = node(values, parents, rule)
        counts[-1] += out.requires_grad
        return out

    monkeypatch.setattr(nm, "_node", counted)
    for _ in range(STEPS):
        counts.append(0)
        train_step(model, next_batch(state, corpus, BATCH), plan, state)
    return counts


@pytest.mark.parametrize("phase", NODES)
def test_a_train_step_records_the_pinned_number_of_nodes(monkeypatch, corpus, phase):
    assert _nodes_per_step(monkeypatch, corpus, phase) == NODES[phase]
