"""The benchmark's workloads and their seeded input generators.

Every workload trains a second-stage model and then embeds and scores
verification trials, so each prints every end-to-end metric; they differ
in the stage they stress:

- ``train-small`` times training at the small config (C=8, T=20, D=16,
  complete graphs, gpool).  The arrays are tiny, so per-op Python and
  autodiff overhead dominates.
- ``train-paper`` times training at a paper-like config (C=40, T=100,
  D=64, span temporal graph, prior selection), where dense N x N
  attention and its VJP dominate.
- ``verify-ragged`` trains a ``train-small`` model briefly in setup,
  round-trips it through a checkpoint, and times embedding and scoring of
  ad-hoc arrays with ragged channel and frame counts at batch 1.

Features use a harsh SNR range so that the EER stays well away from 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adhocsv import scenesim, trainer
from adhocsv.stagg import GraphSpec

SNR_RANGE_DB = (-15.0, -5.0)

# The speaker population is part of a workload and the same for every seed;
# the seed draws scenes, noise, shapes and trials.  With a codebook per
# seed the EER would swing with how separable the drawn speakers happen
# to be.
CODEBOOK_SEED = 0

# Stream ids keep the random draws of different inputs independent.
_TRAIN_SCENE, _TRAIN_FEATS, _TEST_SHAPE, _TEST_SCENE, _TEST_FEATS, _TRIALS = range(6)


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str  # "train" or "verify": the stage the workload stresses
    model: trainer.ModelConfig
    n_speakers: int
    train_c: int
    train_t: int
    n_train: int
    epochs: int  # epochs per training job
    n_test: int
    test_c: tuple[int, int]  # inclusive range of channel counts
    test_t: tuple[int, int]  # inclusive range of frame counts
    n_trials: int  # half target, half nontarget
    batch_size: int = 8

    @property
    def hyper(self) -> trainer.TrainHyper:
        return trainer.TrainHyper(batch_size=self.batch_size, epochs=self.epochs)

    @property
    def steps_per_job(self) -> int:
        return -(-self.n_train // self.batch_size) * self.epochs


_SMALL_MODEL = trainer.ModelConfig(
    mechanism="gcn", n_blocks=2, heads=4, d=16,
    selection=trainer.SelectionConfig(kind="gpool"))

_PAPER_MODEL = trainer.ModelConfig(
    mechanism="gcn", n_blocks=2, heads=4, d=64,
    temporal_graph=GraphSpec(kind="span", delta=5),
    selection=trainer.SelectionConfig(kind="prior", rho=0.6))

WORKLOADS = {
    w.name: w for w in (
        Workload("train-small", "train", _SMALL_MODEL, n_speakers=20, train_c=8, train_t=20,
                 n_train=200, epochs=3, n_test=200, test_c=(4, 16), test_t=(10, 40),
                 n_trials=4000),
        Workload("train-paper", "train", _PAPER_MODEL, n_speakers=8, train_c=40, train_t=100,
                 n_train=16, epochs=1, n_test=200, test_c=(4, 16), test_t=(10, 40),
                 n_trials=4000),
        Workload("verify-ragged", "verify", _SMALL_MODEL, n_speakers=20, train_c=8, train_t=20,
                 n_train=200, epochs=3, n_test=400, test_c=(4, 16), test_t=(10, 40),
                 n_trials=20000),
    )
}


def _utterance(w, codebook, utt_id, speaker, c, t, scene_rng, feat_rng) -> trainer.Utterance:
    sim = scenesim.SimConfig(n_nodes=c, t=t, d=w.model.d, n_speakers=w.n_speakers,
                             snr_range_db=SNR_RANGE_DB)
    scene = scenesim.sample_scene(scene_rng, sim)
    features = scenesim.synth_features(scene, speaker, codebook, feat_rng, sim)
    return trainer.Utterance(utt_id, speaker, features, scene)


def make_train_set(w: Workload, seed: int) -> list[trainer.Utterance]:
    codebook = scenesim.make_codebook(w.n_speakers, w.model.d, seed=CODEBOOK_SEED)
    return [
        _utterance(w, codebook, f"train{i}", i % w.n_speakers, w.train_c, w.train_t,
                   np.random.default_rng([seed, _TRAIN_SCENE, i]),
                   np.random.default_rng([seed, _TRAIN_FEATS, i]))
        for i in range(w.n_train)
    ]


def make_test_set(w: Workload, seed: int) -> tuple[dict[str, trainer.Utterance], trainer.TrialSet]:
    """Ragged test utterances of the training speakers plus a balanced trial list.

    Channel and frame counts cycle evenly through their ranges and the seed
    shuffles how they pair up, so every seed has the same mix of sizes and
    the work of a pass does not drift with the seed.
    """
    codebook = scenesim.make_codebook(w.n_speakers, w.model.d, seed=CODEBOOK_SEED)
    shape_rng = np.random.default_rng([seed, _TEST_SHAPE])
    cs = shape_rng.permutation(np.resize(np.arange(w.test_c[0], w.test_c[1] + 1), w.n_test))
    ts = shape_rng.permutation(np.resize(np.arange(w.test_t[0], w.test_t[1] + 1), w.n_test))
    utts = []
    for i, (c, t) in enumerate(zip(cs.tolist(), ts.tolist())):
        utts.append(_utterance(w, codebook, f"test{i}", i % w.n_speakers, c, t,
                               np.random.default_rng([seed, _TEST_SCENE, i]),
                               np.random.default_rng([seed, _TEST_FEATS, i])))
    trials = trainer.generate_trials(utts, w.n_trials // 2, w.n_trials - w.n_trials // 2,
                                     np.random.default_rng([seed, _TRIALS]))
    return {u.utt_id: u for u in utts}, trials
