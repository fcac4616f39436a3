"""Tests for LoRA forward/merge math and the stabilized SVD update."""

import json
import math

import numpy as np
import pytest

from medserve.adapters import (
    DimensionError,
    LoraAdapter,
    StableSvdConfig,
    condition_number,
    load_adapter,
    lora_forward,
    merge_adapter,
    save_adapter,
    stable_svd_update,
)
from oracles import jacobi_svd, singular_values, two_svd_stable_update


def random_adapter(rng, d, k, rank, alpha=2.0):
    return LoraAdapter(
        b=rng.normal(size=(d, rank)),
        a=rng.normal(size=(rank, k)),
        rank=rank,
        alpha=alpha,
    )


class TestLoraForward:
    def test_zero_adapter_is_identity_increment(self):
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=(4, 3))
        adapter = LoraAdapter(b=np.zeros((4, 2)), a=rng.normal(size=(2, 3)), rank=2, alpha=8)
        x = rng.normal(size=3)
        assert np.allclose(lora_forward(w0, adapter, x), w0 @ x)

    def test_hand_case(self):
        w0 = np.eye(2)
        adapter = LoraAdapter(b=np.array([[1.0], [0.0]]), a=np.array([[0.0, 1.0]]),
                              rank=1, alpha=1)
        h = lora_forward(w0, adapter, np.array([3.0, 5.0]))
        assert np.allclose(h, [8.0, 5.0])

    def test_linear_in_alpha(self):
        rng = np.random.default_rng(2)
        w0 = rng.normal(size=(5, 5))
        x = rng.normal(size=5)
        a1 = random_adapter(rng, 5, 5, 2, alpha=4.0)
        a2 = LoraAdapter(b=a1.b, a=a1.a, rank=2, alpha=8.0)
        inc1 = lora_forward(w0, a1, x) - w0 @ x
        inc2 = lora_forward(w0, a2, x) - w0 @ x
        assert np.allclose(inc2, 2.0 * inc1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            LoraAdapter(b=np.ones((3, 1)), a=np.ones((1, 2)), rank=1, alpha=alpha)

    def test_dimension_mismatch(self):
        adapter = LoraAdapter(b=np.ones((3, 1)), a=np.ones((1, 2)), rank=1, alpha=1)
        with pytest.raises(DimensionError):
            lora_forward(np.ones((3, 2)), adapter, np.ones(3))
        with pytest.raises(DimensionError):
            lora_forward(np.ones((2, 2)), adapter, np.ones(2))


class TestMerge:
    def test_zero_adapter(self):
        w0 = np.arange(6.0).reshape(2, 3)
        adapter = LoraAdapter(b=np.zeros((2, 1)), a=np.zeros((1, 3)), rank=1, alpha=3)
        assert np.array_equal(merge_adapter(w0, adapter), w0)

    def test_default_config_scale(self):
        adapter = LoraAdapter(b=np.ones((16, 16)), a=np.ones((16, 16)), rank=16, alpha=32)
        assert adapter.scaling == 2.0

    def test_merge_matches_forward_on_200_random_cases(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            d, k = rng.integers(1, 33, size=2)
            rank = int(rng.integers(1, min(d, k) + 1))
            w0 = rng.normal(size=(d, k))
            adapter = random_adapter(rng, d, k, rank, alpha=float(rng.uniform(0.5, 64)))
            x = rng.normal(size=k)
            deviation = np.abs(merge_adapter(w0, adapter) @ x - lora_forward(w0, adapter, x))
            worst = max(worst, float(deviation.max()))
        assert worst <= 1e-9


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 2.0])) == pytest.approx(2.0)

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            sv = singular_values(m)
            expected = sv[0] / sv[-1]
            assert condition_number(m) == pytest.approx(expected, rel=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            condition_number(np.zeros((2, 2)))

    def test_tiny_singular_value_gives_inf(self):
        m = np.diag([1.0, 1e-305])
        assert condition_number(m) == math.inf


class TestStableSvd:
    def test_rank1_reconstruction(self):
        # B @ A is rank one with singular value 5 by construction.
        b = np.array([[3.0], [4.0]])  # norm 5
        a = np.array([[1.0, 0.0]])
        cfg = StableSvdConfig(rank=1, lambda0=0.0)
        delta = stable_svd_update(b, a, cfg)
        assert np.allclose(delta, b @ a, atol=1e-9)
        assert singular_values(b @ a)[0] == pytest.approx(5.0)

    def test_full_rank_exact(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=(4, 3))
        a = rng.normal(size=(3, 4))
        cfg = StableSvdConfig(rank=4, lambda0=0.0)
        delta = stable_svd_update(b, a, cfg)
        assert np.linalg.norm(delta - b @ a) <= 1e-9

    def test_truncation_tail_energy(self):
        # Product with singular values (10, 1, 1e-12); keep r=2.
        u, _, vt = jacobi_svd(np.random.default_rng(5).normal(size=(3, 3)))
        product = u @ np.diag([10.0, 1.0, 1e-12]) @ vt
        b, a = product, np.eye(3)
        delta = stable_svd_update(b, a, StableSvdConfig(rank=2, lambda0=0.0))
        err = np.linalg.norm(delta - product)
        assert err == pytest.approx(1e-12, abs=1e-15)

    def test_tail_energy_matches_oracle_on_random(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(2, 7))
            inner = int(rng.integers(1, 5))
            b = rng.normal(size=(d, inner))
            a = rng.normal(size=(inner, k))
            r = int(rng.integers(1, min(d, k) + 1))
            delta = stable_svd_update(b, a, StableSvdConfig(rank=r, lambda0=0.0))
            sv = singular_values(b @ a)
            tail = float((sv[r:] ** 2).sum())
            err_sq = float(np.linalg.norm(delta - b @ a) ** 2)
            assert abs(err_sq - tail) <= 1e-9

    def test_lambda_monotone_in_condition_number(self):
        cfg = StableSvdConfig(rank=2, lambda0=1e-6, kappa_max=1e6)
        lambdas = []
        for kappa in (1.0, 10.0, 1e3, 1e6, 1e9):
            b = np.diag([1.0, 1.0 / kappa])
            a = np.eye(2)
            delta = stable_svd_update(b, a, cfg)
            # for a diagonal product the (0,0) entry is sigma_max + lambda
            lambdas.append(delta[0, 0] - 1.0)
        assert all(l2 >= l1 - 1e-18 for l1, l2 in zip(lambdas, lambdas[1:]))
        assert lambdas[-1] <= cfg.lambda0 + 1e-18
        assert lambdas[-1] == pytest.approx(cfg.lambda0)

    def test_rank_bound(self):
        rng = np.random.default_rng(8)
        b = rng.normal(size=(6, 6))
        a = rng.normal(size=(6, 6))
        r = 2
        delta = stable_svd_update(b, a, StableSvdConfig(rank=r, lambda0=0.0))
        sv = np.linalg.svd(delta, compute_uv=False)
        assert (sv > sv[0] * 1e-12).sum() <= r

    def test_rectangular_identity_convention(self):
        b = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        a = np.eye(2)
        cfg = StableSvdConfig(rank=2, lambda0=1e-6, kappa_max=1e6)
        delta = stable_svd_update(b, a, cfg)
        # lambda lands on the main diagonal only, even for the 3x2 shape
        assert delta.shape == (3, 2)
        assert delta[2, 0] == 0.0 and delta[2, 1] == 0.0

    def test_rank_too_large_rejected(self):
        with pytest.raises(DimensionError):
            stable_svd_update(np.ones((2, 2)), np.ones((2, 2)),
                              StableSvdConfig(rank=3, lambda0=0.0))

    @staticmethod
    def _relative_gap(delta, reference):
        return np.abs(delta - reference).max() / np.abs(reference).max()

    def test_matches_two_svd_reference_on_random_shapes(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(300):
            d, k = (int(n) for n in rng.integers(1, 41, size=2))
            inner = int(rng.integers(1, 9))
            b = rng.normal(size=(d, inner)) * 10.0 ** rng.uniform(-3, 3)
            a = rng.normal(size=(inner, k))
            cfg = StableSvdConfig(
                rank=int(rng.integers(1, min(d, k) + 1)),
                lambda0=float(rng.choice([0.0, 1e-6, 1e-2])),
                kappa_max=float(10.0 ** rng.uniform(0.5, 8)),
            )
            delta = stable_svd_update(b, a, cfg)
            worst = max(worst, self._relative_gap(delta, two_svd_stable_update(b, a, cfg)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("kappa", [10.0, 1e9])
    def test_ridge_matches_reference_below_and_above_kappa_max(self, kappa):
        # kappa_max 1e6: the ridge scales with kappa below it, saturates above.
        rng = np.random.default_rng(11)
        u, _, vt = jacobi_svd(rng.normal(size=(5, 5)))
        b = u @ np.diag(np.geomspace(1.0, 1.0 / kappa, 5)) @ vt
        cfg = StableSvdConfig(rank=3, lambda0=1e-2, kappa_max=1e6)
        delta = stable_svd_update(b, np.eye(5), cfg)
        reference = two_svd_stable_update(b, np.eye(5), cfg)
        assert self._relative_gap(delta, reference) <= 1e-12
        lam = 1e-2 * min(kappa, 1e6) / 1e6
        truncated = two_svd_stable_update(b, np.eye(5), StableSvdConfig(rank=3, lambda0=0.0))
        assert np.allclose(np.diag(delta - truncated), lam, rtol=1e-9, atol=0.0)

    def test_zero_product_gets_the_full_ridge(self):
        cfg = StableSvdConfig(rank=2, lambda0=1e-6, kappa_max=1e6)
        b, a = np.zeros((3, 2)), np.ones((2, 4))
        delta = stable_svd_update(b, a, cfg)
        assert np.array_equal(delta, two_svd_stable_update(b, a, cfg))
        assert np.array_equal(delta, 1e-6 * np.eye(3, 4))
        no_ridge = stable_svd_update(b, a, StableSvdConfig(rank=2, lambda0=0.0))
        assert np.array_equal(no_ridge, np.zeros((3, 4)))

    def test_one_svd_per_update(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rng = np.random.default_rng(12)
        b, a = rng.normal(size=(6, 3)), rng.normal(size=(3, 5))
        for lambda0 in (0.0, 1e-6):
            calls.clear()
            stable_svd_update(b, a, StableSvdConfig(rank=2, lambda0=lambda0))
            assert calls == [True]


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        adapter = random_adapter(rng, 7, 5, 3, alpha=float(rng.uniform(1, 64)))
        path = tmp_path / "adapter.json"
        save_adapter(adapter, path)
        loaded = load_adapter(path)
        assert loaded.rank == adapter.rank
        assert loaded.alpha == adapter.alpha
        assert np.array_equal(loaded.b, adapter.b)
        assert np.array_equal(loaded.a, adapter.a)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "adapter.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_adapter(path)

    @pytest.mark.parametrize("key, value, refused", [
        ("alpha", True, "True is not a JSON number"),
        ("alpha", "4.0", "'4.0' is not a JSON number"),
        ("rank", 2.0, "2.0 is not a JSON integer"),
        ("d", 3.0, "3.0 is not a JSON integer"),
        ("b", [["1.5", 0.5], [1.0, 2.0], [0.0, 1.0]], "'1.5' is not a JSON number"),
        ("a", [[True, 0.5, 1.0], [1.0, 2.0, 3.0]], "True is not a JSON number"),
        ("a", [1.0, 2.0], "1.0 is not a JSON list"),
    ])
    def test_mistyped_field_names_file_and_key(self, tmp_path, key, value, refused):
        path = tmp_path / "adapter.json"
        save_adapter(random_adapter(np.random.default_rng(13), 3, 3, 2), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_adapter(path)
        assert str(info.value) == f"{path}: adapter container {key!r}: {refused}"

    @pytest.mark.parametrize("change, message", [
        (lambda doc: doc.pop("alpha"), "adapter container has no 'alpha'"),
        (lambda doc: doc.update(alpha=math.nan), r"NaN at \$\['alpha'\] is not a JSON number"),
        (lambda doc: doc.update(alpha=math.inf), r"Infinity at \$\['alpha'\] is not a JSON number"),
        (lambda doc: doc.update(alpha=0.0), "alpha must be positive and finite"),
        (lambda doc: doc.update(alpha=-1.0), "alpha must be positive and finite"),
        (lambda doc: doc.update(b=[[1.0, 2.0], [3.0]]), "inhomogeneous"),
        (lambda doc: doc.update(rank=0), "rank must be positive"),
    ])
    def test_invalid_container_names_file(self, tmp_path, change, message):
        path = tmp_path / "adapter.json"
        save_adapter(random_adapter(np.random.default_rng(14), 2, 3, 2), path)
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message) as info:
            load_adapter(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_container_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "adapter.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_adapter(path)
