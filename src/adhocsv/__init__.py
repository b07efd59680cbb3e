"""Graph-based multi-channel speaker verification for ad-hoc microphone arrays.

Subpackages:

- ``diffcore``: differentiable dense kernels with hand-derived VJPs
- ``graphs``: adjacency matrices and channel-selection masks
- ``stagg``: spatial-temporal aggregation blocks (sam / gcn mechanisms)
- ``chansel``: gpool and prior channel selection, utterance pooling
- ``scenesim``: scene sampling and synthetic frame-level features
- ``trainer``: second-stage training, cosine scoring, EER
- ``cli``: the ``adhocsv`` command; not imported here, so that
  ``python -m adhocsv.cli`` loads it once, as ``__main__``
"""

from . import chansel, diffcore, graphs, scenesim, stagg, trainer

__version__ = "0.1.0"

__all__ = ["chansel", "diffcore", "graphs", "scenesim", "stagg", "trainer", "__version__"]
