import numpy as np

import stats
from adhocsv import diffcore as dc
from adhocsv import stagg, trainer
from tracing import Tracer


def test_wrappers_nest_spans_and_restore_the_library():
    originals = (dc.matmul, dc.Tensor.__init__, dc.Tensor.backward, trainer.gcn_agg)
    tracer = Tracer()
    with tracer.installed():
        assert dc.matmul is not originals[0]
        assert trainer.gcn_agg is stagg.gcn_agg  # imported names are rebound too
        with tracer.span("bench.root"):
            a = dc.Tensor(np.ones((2, 3)), requires_grad=True)
            loss = dc.sum_axis(dc.matmul(a, np.ones((3, 4))), axis=(0, 1))
            loss.backward()
    assert (dc.matmul, dc.Tensor.__init__, dc.Tensor.backward, trainer.gcn_agg) == originals

    spans = tracer.spans()
    names = [s[0] for s in spans]
    assert names == ["bench.root", "diffcore.matmul", "diffcore.sum_axis", "diffcore.Tensor.backward"]
    assert [s[3] for s in spans] == [-1, 0, 0, 0]
    assert all(start <= end for _, start, end, _ in spans)
    own = stats.self_times(spans)
    assert all(t >= 0 for t in own)
    # a + the constant operand of matmul + the product + the sum
    assert tracer.tensors == [1, 2, 1, 0]


def test_mean_axis_nests_its_own_kernels():
    tracer = Tracer()
    with tracer.installed():
        dc.mean_axis(dc.Tensor(np.ones((2, 2))), axis=0)
    spans = tracer.spans()
    assert [s[0] for s in spans] == ["diffcore.mean_axis", "diffcore.sum_axis", "diffcore.scale"]
    assert [s[3] for s in spans] == [-1, 0, 0]


def test_every_declared_layer_metric_has_a_prediction():
    import json
    from pathlib import Path

    import bench

    declared = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    assert set(bench.PREDICTIONS) == {m["name"] for m in declared["per_layer"]}
    assert set(bench.EXACT_LAYER_METRICS) <= set(bench.PREDICTIONS)
