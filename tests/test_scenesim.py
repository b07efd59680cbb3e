"""Scene sampling bounds, determinism, and feature-corruption behavior."""

import re
import struct

import numpy as np
import pytest

from adhocsv.scenesim import (
    Scene,
    SimConfig,
    WALL_MARGIN,
    FrameTensor,
    channel_noise_sigma,
    distances,
    load_scene,
    make_codebook,
    read_features,
    sample_scene,
    save_scene,
    scene_from_json,
    scene_to_json,
    synth_features,
    write_features,
)


def fixed_scene(node_dists, snr_db=20.0, noise=None):
    """Speaker at the origin-ish corner, nodes along +x at given distances."""
    speaker = np.array([0.5, 0.5, 0.5])
    nodes = [speaker + np.array([d, 0.0, 0.0]) for d in node_dists]
    return Scene(
        room=(10.0, 14.0, 5.0),
        speaker_pos=speaker,
        noise_pos=None if noise is None else np.array(noise),
        node_pos=np.array(nodes),
        snr_db=snr_db,
    )


class TestSampleScene:
    def test_forty_nodes_inside_room(self):
        cfg = SimConfig(n_nodes=40)
        scene = sample_scene(np.random.default_rng(0), cfg)
        assert scene.node_pos.shape == (40, 3)
        bounds = np.array(scene.room)
        for p in scene.node_pos:
            assert np.all(p > 0.0) and np.all(p < bounds)
        assert np.all(scene.node_pos >= WALL_MARGIN)
        assert np.all(scene.node_pos <= bounds - WALL_MARGIN)

    def test_ranges_respected(self):
        cfg = SimConfig(n_nodes=4)
        for seed in range(20):
            scene = sample_scene(np.random.default_rng(seed), cfg)
            assert 8.0 <= scene.room[0] <= 10.0
            assert 12.0 <= scene.room[1] <= 14.0
            assert 3.0 <= scene.room[2] <= 5.0
            assert -5.0 <= scene.snr_db <= 20.0

    def test_degenerate_range_collapses(self):
        cfg = SimConfig(n_nodes=2, width_range=(8.0, 8.0))
        scene = sample_scene(np.random.default_rng(1), cfg)
        assert scene.room[0] == 8.0

    def test_seeded_repeatability(self):
        cfg = SimConfig(n_nodes=8)
        a = sample_scene(np.random.default_rng(42), cfg)
        b = sample_scene(np.random.default_rng(42), cfg)
        assert np.array_equal(a.node_pos, b.node_pos)
        assert np.array_equal(a.speaker_pos, b.speaker_pos)
        assert a.snr_db == b.snr_db

    def test_noise_source_optional(self):
        cfg = SimConfig(n_nodes=2, with_noise_source=False)
        assert sample_scene(np.random.default_rng(3), cfg).noise_pos is None


class TestDistances:
    def test_node_at_speaker(self):
        scene = fixed_scene([0.0, 2.0])
        d_spk, _, d_max, _ = distances(scene)
        assert d_spk[0] == 0.0
        assert d_max == 2.0

    def test_single_node(self):
        scene = fixed_scene([1.5])
        d_spk, _, d_max, _ = distances(scene)
        assert d_max == d_spk[0] == 1.5

    def test_matches_coordinate_oracle(self):
        rng = np.random.default_rng(4)
        cfg = SimConfig(n_nodes=10)
        scene = sample_scene(rng, cfg)
        d_spk, d_noise, d_max, d_max_noise = distances(scene)
        for i in range(10):
            diff = scene.node_pos[i] - scene.speaker_pos
            oracle = (diff[0] ** 2 + diff[1] ** 2 + diff[2] ** 2) ** 0.5
            assert abs(d_spk[i] - oracle) < 1e-12
            diff_n = scene.node_pos[i] - scene.noise_pos
            oracle_n = (diff_n[0] ** 2 + diff_n[1] ** 2 + diff_n[2] ** 2) ** 0.5
            assert abs(d_noise[i] - oracle_n) < 1e-12
        assert d_max == d_spk.max()
        assert d_max_noise == d_noise.max()


class TestSynthFeatures:
    def test_high_snr_limit_recovers_codebook(self):
        scene = fixed_scene([0.5, 1.0], snr_db=400.0)  # effectively noise-free
        cfg = SimConfig(n_nodes=2, d=8, t=4, n_speakers=3)
        codebook = make_codebook(3, 8, seed=0)
        ft = synth_features(scene, 1, codebook, np.random.default_rng(5), cfg)
        assert np.max(np.abs(ft.data - codebook[1])) < 1e-12

    def test_equal_distances_equal_sigma(self):
        speaker = np.array([5.0, 7.0, 2.0])
        nodes = [speaker + [1.0, 0.0, 0.0], speaker - [1.0, 0.0, 0.0]]
        scene = Scene(room=(10.0, 14.0, 5.0), speaker_pos=speaker, noise_pos=None,
                      node_pos=np.array(nodes), snr_db=5.0)
        sigma = channel_noise_sigma(scene, SimConfig(n_nodes=2))
        assert sigma[0] == sigma[1]

    def test_sigma_monotone_in_distance(self):
        scene = fixed_scene([0.5, 1.0, 2.0, 4.0], snr_db=10.0)
        sigma = channel_noise_sigma(scene, SimConfig(n_nodes=4))
        assert np.all(np.diff(sigma) > 0.0)

    def test_noise_proximity_raises_sigma(self):
        speaker = np.array([5.0, 7.0, 2.0])
        nodes = [speaker + [1.0, 0.0, 0.0], speaker - [1.0, 0.0, 0.0]]  # equidistant
        scene = Scene(room=(10.0, 14.0, 5.0), speaker_pos=speaker,
                      noise_pos=nodes[0].copy(), node_pos=np.array(nodes), snr_db=5.0)
        sigma = channel_noise_sigma(scene, SimConfig(n_nodes=2))
        # node 0 sits on the noise source: doubled noise; node 1 is farthest: unscaled
        assert abs(sigma[0] - 2.0 * sigma[1]) < 1e-12

    def test_unknown_speaker(self):
        scene = fixed_scene([1.0])
        cfg = SimConfig(n_nodes=1, d=4, n_speakers=2)
        codebook = make_codebook(2, 4, seed=0)
        with pytest.raises(KeyError):
            synth_features(scene, 5, codebook, np.random.default_rng(6), cfg)

    def test_empirical_noise_tracks_distance(self):
        # Monte-Carlo check: mean squared deviation per channel follows the
        # distance ordering once averaged over 100 draws.
        scene = fixed_scene([0.5, 1.5, 3.0, 6.0], snr_db=10.0)
        cfg = SimConfig(n_nodes=4, d=8, t=10, n_speakers=1)
        codebook = make_codebook(1, 8, seed=1)
        energies = np.zeros(4)
        for seed in range(100):
            ft = synth_features(scene, 0, codebook, np.random.default_rng(seed), cfg)
            deviation = ft.data - codebook[0]
            energies += (deviation ** 2).mean(axis=(1, 2))
        assert np.all(np.diff(energies) > 0.0)

    def test_seeded_features_reproducible(self):
        scene = fixed_scene([1.0, 2.0])
        cfg = SimConfig(n_nodes=2, d=4, t=3, n_speakers=1)
        codebook = make_codebook(1, 4, seed=2)
        a = synth_features(scene, 0, codebook, np.random.default_rng(7), cfg)
        b = synth_features(scene, 0, codebook, np.random.default_rng(7), cfg)
        assert np.array_equal(a.data, b.data)


class TestSerialization:
    def test_scene_json_round_trip(self):
        scene = sample_scene(np.random.default_rng(8), SimConfig(n_nodes=5))
        again = scene_from_json(scene_to_json(scene))
        assert np.array_equal(scene.node_pos, again.node_pos)
        assert np.array_equal(scene.speaker_pos, again.speaker_pos)
        assert np.array_equal(scene.noise_pos, again.noise_pos)
        assert scene.room == again.room
        assert scene.snr_db == again.snr_db

    def test_old_scene_json_with_t60_and_facing_loads(self):
        # Scene files once recorded a reverberation time and the speaker's
        # facing; neither changed a feature, and reading ignores them.
        doc = {"room": [10.0, 14.0, 5.0], "speaker": {"pos": [1.0, 2.0, 1.5],
                                                       "facing": [0.0, 1.0, 0.0]},
               "noise_pos": [3.0, 3.0, 1.0], "nodes": [[2.0, 2.0, 1.0], [4.0, 5.0, 2.0]],
               "t60": 0.3, "snr_db": 7.5}
        scene = scene_from_json(doc)
        assert np.array_equal(scene.speaker_pos, [1.0, 2.0, 1.5])
        assert np.array_equal(scene.node_pos, doc["nodes"])
        assert scene.snr_db == 7.5
        written = scene_to_json(scene)
        assert "t60" not in written and written["speaker"] == {"pos": [1.0, 2.0, 1.5]}

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc.pop("room"), "room"),
        (lambda doc: doc.__setitem__("speaker", [1.0, 2.0, 1.5]), "speaker.pos"),
        (lambda doc: doc["speaker"].__setitem__("pos", [1.0, 2.0]), "speaker.pos"),
        (lambda doc: doc.pop("noise_pos"), "noise_pos"),
        (lambda doc: doc.__setitem__("nodes", [["a", 1.0, 1.0]]), "nodes"),
        (lambda doc: doc.__setitem__("nodes", []), "nodes"),
        (lambda doc: doc.__setitem__("snr_db", None), "snr_db"),
    ], ids=["no_room", "speaker_list", "short_speaker_pos", "no_noise_pos", "string_node",
            "no_nodes", "null_snr"])
    def test_malformed_scene_json_names_its_field(self, edit, field):
        doc = scene_to_json(sample_scene(np.random.default_rng(8), SimConfig(n_nodes=3)))
        edit(doc)
        with pytest.raises(ValueError, match=f"scene field '{re.escape(field)}'"):
            scene_from_json(doc)
        with pytest.raises(ValueError, match="must be a JSON object, got list"):
            scene_from_json([doc])

    def test_scene_file_round_trip(self, tmp_path):
        scene = sample_scene(np.random.default_rng(9), SimConfig(n_nodes=3))
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        again = load_scene(path)
        assert np.array_equal(scene.node_pos, again.node_pos)
        save_scene(tmp_path / "b.json", scene)
        assert path.read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_feature_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        ft = FrameTensor(rng.standard_normal((3, 4, 5)).astype(np.float32))
        path = tmp_path / "f.adhc"
        write_features(path, ft)
        again = read_features(path)
        assert (again.c, again.t, again.d) == (3, 4, 5)
        assert np.array_equal(again.data, ft.data)  # f32 payload survives exactly

    def test_feature_header(self, tmp_path):
        ft = FrameTensor(np.zeros((40, 2, 3)))
        path = tmp_path / "f.adhc"
        write_features(path, ft)
        raw = path.read_bytes()
        assert raw[:4] == b"ADHC"
        assert int.from_bytes(raw[8:12], "little") == 40
        assert len(raw) == 20 + 40 * 2 * 3 * 4

    def test_feature_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.adhc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_features(path)


def feature_bytes(c, t, d, payload=None, version=1) -> bytes:
    header = b"ADHC" + struct.pack("<IIII", version, c, t, d)
    return header + (bytes(4 * c * t * d) if payload is None else payload)


# Each is a feature file read_features must refuse with a ValueError naming it.
CORRUPT_FEATURES = {
    "empty": b"",
    "3_bytes": b"ADH",
    "19_bytes": feature_bytes(1, 1, 1)[:19],
    "huge_dims": feature_bytes(100000, 100000, 1000, payload=bytes(16)),  # 36 bytes in all
    "truncated": feature_bytes(2, 3, 4)[:-4],
    "trailing": feature_bytes(2, 3, 4) + b"\x00",
    "zero_dims": feature_bytes(2, 0, 4),
    "bad_version": feature_bytes(1, 1, 1, version=2),
}


class TestFeatureFileBounds:
    @pytest.mark.parametrize("name", sorted(CORRUPT_FEATURES))
    def test_corrupt_file_is_value_error_naming_it(self, tmp_path, name):
        path = tmp_path / "bad.adhc"
        path.write_bytes(CORRUPT_FEATURES[name])
        with pytest.raises(ValueError, match="bad.adhc"):
            read_features(path)

    def test_exact_payload_reads(self, tmp_path):
        path = tmp_path / "f.adhc"
        path.write_bytes(feature_bytes(2, 3, 4, payload=np.arange(24, dtype="<f4").tobytes()))
        assert np.array_equal(read_features(path).data.ravel(), np.arange(24.0))


class TestSceneValidation:
    def test_rejects_outside_positions(self):
        with pytest.raises(ValueError):
            Scene(room=(4.0, 4.0, 3.0), speaker_pos=np.array([5.0, 1.0, 1.0]), noise_pos=None,
                  node_pos=np.array([[1.0, 1.0, 1.0]]), snr_db=0.0)

    def test_subset(self):
        scene = fixed_scene([1.0, 2.0, 3.0])
        sub = scene.subset([2, 0])
        assert sub.n_nodes == 2
        assert np.array_equal(sub.node_pos[0], scene.node_pos[2])


def test_codebook_unit_rows_and_seeding():
    cb1 = make_codebook(5, 16, seed=3)
    cb2 = make_codebook(5, 16, seed=3)
    assert np.array_equal(cb1, cb2)
    assert np.allclose(np.linalg.norm(cb1, axis=1), 1.0, atol=1e-12)
    assert not np.array_equal(cb1, make_codebook(5, 16, seed=4))
