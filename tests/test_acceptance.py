"""Acceptance suite: one test per criterion, one verdict line per criterion.

Each test records a single "criterion N PASS/FAIL" line (with the measured
numbers at the pinned tolerances) that the terminal summary prints after the
run.  Criteria 6 and 7 share one toy-scale training run and carry the
runtime budget; everything else is seconds.
"""

import functools
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import conftest
from sssm import synth
from sssm.autodiff import Tensor
from sssm.checkpoint import load_arrays, save_arrays
from sssm.config import RunConfig
from sssm.gradcheck import run_suite
from sssm.imageio import (
    read_gt_pgm,
    read_image,
    read_pfm,
    write_gt_pgm,
    write_image,
    write_pfm,
)
from sssm.losses import (
    TO_LEFT,
    TO_RIGHT,
    LossWeights,
    loop_consistency_loss,
    reconstruction_error,
    smoothness_loss,
    total_loss,
    warp,
)
from sssm.network import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    build_feature_volume,
    init_weights,
    soft_argmin,
)
from sssm.training import OptimizerState, infer, online_adapt, train_from_scratch

MARGIN = 16  # toy-scale border exclusion: the disparity search range


def criterion(num: int, title: str):
    """Record one summary line per criterion, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                msg = str(exc).splitlines()[0][:160] if str(exc) else type(exc).__name__
                conftest.record_acceptance(f"criterion {num} FAIL: {title} [{msg}]")
                raise
            elapsed = time.perf_counter() - start
            extra = f" [{detail}]" if detail else ""
            conftest.record_acceptance(
                f"criterion {num} PASS: {title}{extra} ({elapsed:.1f}s)"
            )

        return wrapper

    return deco


# --- criterion 1 -----------------------------------------------------------


@criterion(1, "gradient oracles: all ops + micro pipeline, 64-bit, tol 1e-6 + 1e-4*rel, < 5 min")
def test_criterion_1_gradient_oracles():
    start = time.perf_counter()
    results = run_suite(seed=0)
    elapsed = time.perf_counter() - start
    failed = [r.name for r in results if not r.ok]
    assert not failed, f"failed gradient checks: {failed}"
    names = " ".join(r.name for r in results)
    for op in ("conv2d", "conv3d", "deconv3d", "soft_argmin", "warp", "ssim",
               "unary", "smoothness", "loop", "mdh", "total_loss", "pipeline"):
        assert op in names, f"missing a check for {op}"
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s, budget is 300s"
    worst = max(r.max_err for r in results)
    return f"{len(results)} checks, worst |analytic-numeric| {worst:.1e}"


# --- criterion 2 -----------------------------------------------------------


def _brute_volume(f1, f2, d_max, direction):
    h, w, f = f1.shape
    vol = np.zeros((h, w, d_max + 1, 2 * f), dtype=f1.dtype)
    for v in range(h):
        for u in range(w):
            for d in range(d_max + 1):
                vol[v, u, d, :f] = f1[v, u]
                src = u - d if direction == LEFT_TO_RIGHT else u + d
                if 0 <= src < w:
                    vol[v, u, d, f:] = f2[v, src]
    return vol


@criterion(2, "feature volume equals brute-force shift-and-concat on 20 random instances")
def test_criterion_2_feature_volume_oracle():
    rng = np.random.default_rng(42)
    for trial in range(20):
        h = int(rng.integers(2, 7))
        w = int(rng.integers(4, 10))
        f = int(rng.integers(1, 5))
        d_max = int(rng.integers(0, w))
        direction = LEFT_TO_RIGHT if trial % 2 == 0 else RIGHT_TO_LEFT
        f1 = rng.standard_normal((h, w, f)).astype(np.float32)
        f2 = rng.standard_normal((h, w, f)).astype(np.float32)
        vol = build_feature_volume(Tensor(f1), Tensor(f2), d_max, direction).data
        np.testing.assert_array_equal(vol, _brute_volume(f1, f2, d_max, direction))
    return "20/20 exact, both directions"


# --- criterion 3 -----------------------------------------------------------


@criterion(3, "soft-argmin: in [0,D]; uniform -> D/2; 50-margin spike and shift invariance at 1e-6")
def test_criterion_3_soft_argmin():
    d_max = 8
    rng = np.random.default_rng(3)
    for _ in range(5):
        costs = rng.standard_normal((4, 6, d_max + 1)) * 10
        out = soft_argmin(Tensor(costs)).data
        assert (out >= 0.0).all() and (out <= d_max).all()

    uniform = np.full((3, 5, d_max + 1), 2.5)
    np.testing.assert_allclose(soft_argmin(Tensor(uniform)).data, d_max / 2, atol=1e-6)

    spike = np.full((2, 3, d_max + 1), 50.0)
    spike[:, :, 5] = 0.0  # best index wins by a margin of 50
    spike_err = np.abs(soft_argmin(Tensor(spike)).data - 5.0).max()
    assert spike_err <= 1e-6

    base = rng.standard_normal((4, 7, d_max + 1))
    shift_err = np.abs(
        soft_argmin(Tensor(base)).data - soft_argmin(Tensor(base + 123.25)).data
    ).max()
    assert shift_err <= 1e-6
    return f"spike err {spike_err:.1e}, shift err {shift_err:.1e}"


# --- criterion 4 -----------------------------------------------------------


@criterion(4, "warp identities: zero-disparity bitwise; integer-shift interior exact; loop loss 0")
def test_criterion_4_warp_identities():
    img = synth.band_limited_texture(np.random.default_rng(4), 12, 20)
    zeros = np.zeros((12, 20), dtype=np.float32)
    for direction in (TO_LEFT, TO_RIGHT):
        out = warp(Tensor(img), Tensor(zeros), direction).data
        assert out.tobytes() == img.tobytes(), "zero-disparity warp is not bitwise identity"

    k = 3
    pair = synth.synth_pair(7, 10, 24, synth.constant_field(float(k)))
    shift = np.full((10, 24), float(k), dtype=np.float32)
    rebuilt = warp(Tensor(pair.right), Tensor(shift), TO_LEFT).data
    np.testing.assert_array_equal(rebuilt[:, k:], pair.left[:, k:])

    d = Tensor(shift)
    across = warp(Tensor(pair.left), d, TO_RIGHT)
    loop = loop_consistency_loss(Tensor(pair.left), across, d, side="l", margin=2 * k)
    assert float(loop.data) == 0.0
    return f"k={k} interior exact; loop loss {float(loop.data)!r}"


# --- criterion 5 -----------------------------------------------------------


@criterion(5, "loss algebra: total = weighted sum within 1e-6 at (0.80,0.15,0.15)/1/0.001; affine smoothness 0")
def test_criterion_5_loss_algebra():
    lw = LossWeights()
    assert (lw.lam_ssim, lw.lam_l1, lw.lam_grad) == (0.80, 0.15, 0.15)
    assert lw.w_consistency == 1.0
    assert lw.w_mdh == 0.001

    pair = synth.synth_pair(5, 16, 32, synth.constant_field(2.5))
    rng = np.random.default_rng(5)
    d_l = Tensor(rng.uniform(0, 4, (16, 32)).astype(np.float32))
    d_r = Tensor(rng.uniform(0, 4, (16, 32)).astype(np.float32))
    total, report = total_loss(Tensor(pair.left), Tensor(pair.right), d_l, d_r, lw, margin=4)
    t = report.terms()
    manual = (
        lw.w_photo * (t["unary_l"] + t["unary_r"])
        + lw.w_smooth * (t["smooth_l"] + t["smooth_r"])
        + lw.w_consistency * (t["loop_l"] + t["loop_r"])
        + lw.w_mdh * (t["mdh_l"] + t["mdh_r"])
    )
    gap = abs(float(total.data) - manual)
    assert gap <= 1e-6, f"total differs from weighted sum by {gap:.2e}"

    # Dyadic affine coefficients evaluate exactly in float32, so the second
    # differences vanish exactly, not just approximately.
    img = Tensor(synth.band_limited_texture(rng, 12, 18))
    for d0, du, dv in ((2.0, 0.0, 0.0), (1.0, 0.25, 0.0), (3.0, -0.125, 0.5)):
        field = synth.planar_field(d0, du, dv, 1e9)(rng, 12, 18)
        s = smoothness_loss(Tensor(field), img)
        assert float(s.data) == 0.0, f"affine field ({d0},{du},{dv}) smoothness {float(s.data)!r}"
    return f"sum gap {gap:.1e}; smoothness exactly 0.0 on 3 affine fields"


# --- criteria 6 and 7 share one toy training run ---------------------------

_trained: dict = {}


def _family_a(n=6, h=64, w=128):
    """Training distribution: constant shifts over the default texture."""
    ks = np.linspace(3.0, 8.0, n)
    return [synth.synth_pair((0, i), h, w, synth.constant_field(float(ks[i]))) for i in range(n)]


def _family_b(n=8, h=64, w=128):
    """Shifted distribution: planar ramps over coarser, dimmer texture."""
    pairs = []
    for i in range(n):
        field = synth.planar_field(2.0 + 0.5 * i, 0.05 + 0.01 * (i % 4), 0.02, 14.0)
        pairs.append(
            synth.synth_pair((1000, i), h, w, field,
                             coarse_sigma=10.0, fine_sigma=3.0, amplitude=0.12)
        )
    return pairs


def _interior_mask(pair):
    mask = pair.gt.valid.copy()
    mask[:, :MARGIN] = False
    return mask


def _interior_epe(weights, pairs):
    errs = []
    for pair in pairs:
        d_l, _ = infer(weights, pair)
        errs.append(np.abs(d_l - pair.gt.values)[_interior_mask(pair)].mean())
    return float(np.mean(errs))


def _interior_d1(weights, pairs, threshold=0.5):
    rates = []
    for pair in pairs:
        d_l, _ = infer(weights, pair)
        err = np.abs(d_l - pair.gt.values)
        rates.append(100.0 * (err > threshold)[_interior_mask(pair)].mean())
    return float(np.mean(rates))


def _mean_warp(weights, pairs):
    values = []
    for pair in pairs:
        d_l, d_r = infer(weights, pair)
        values.append(reconstruction_error(pair.left, pair.right, d_l, d_r, MARGIN))
    return float(np.mean(values))


def _clone_weights(src, config, seed):
    dst = init_weights(config, seed=seed)
    for name, t in src.params.items():
        dst.params[name].data = t.data.copy()
    return dst


@pytest.mark.slow
@criterion(6, "toy training: warp error halved within 1500 iters, interior EPE <= 1.0 px by 3000, <= 30 min")
def test_criterion_6_convergence_smoke():
    start = time.perf_counter()
    pairs = _family_a()
    run = RunConfig.toy()
    weights = init_weights(run.net, seed=run.train.seed)
    opt = OptimizerState.fresh(weights)

    warp0 = _mean_warp(weights, pairs)
    epe0 = _interior_epe(weights, pairs)
    warp_now = warp0
    epe_now = epe0
    warp_half_iter = None
    epe_ok_iter = None
    # Train in 100-iteration chunks, measuring on the full frames between
    # chunks; stop as soon as the EPE target is met (at-or-before 3000).
    while opt.iteration < 3000:
        chunk = replace(run.train, max_iterations=min(opt.iteration + 100, 3000))
        opt, _ = train_from_scratch(pairs, weights, chunk, run.loss, opt=opt, margin=MARGIN)
        warp_now = _mean_warp(weights, pairs)
        epe_now = _interior_epe(weights, pairs)
        if warp_half_iter is None and warp_now <= 0.5 * warp0:
            warp_half_iter = opt.iteration
        if epe_now <= 1.0:
            epe_ok_iter = opt.iteration
            break
    elapsed = time.perf_counter() - start

    _trained.update(weights=weights, run=run)
    assert warp_half_iter is not None and warp_half_iter <= 1500, (
        f"warping error not halved by iteration 1500 ({warp0:.5f} -> {warp_now:.5f})"
    )
    assert epe_ok_iter is not None, (
        f"interior EPE still {epe_now:.3f} px after 3000 iterations"
    )
    assert elapsed <= 1800.0, f"took {elapsed:.0f}s, budget is 1800s"
    return (
        f"warp {warp0:.4f}->{warp_now:.4f} (halved at iter {warp_half_iter}); "
        f"EPE {epe0:.2f}->{epe_now:.3f} px at iter {epe_ok_iter}; {elapsed / 60:.1f} min"
    )


@pytest.mark.slow
@criterion(7, "100 adaptation steps on family B strictly lower mean D1(0.5px); lr=0 stream == infer bitwise")
def test_criterion_7_self_improvement():
    assert "weights" in _trained, "criterion 6 training unavailable"
    run = _trained["run"]
    pairs_b = _family_b()
    frozen = _clone_weights(_trained["weights"], run.net, run.train.seed)
    frozen_d1 = _interior_d1(frozen, pairs_b)

    # A zero-learning-rate stream must degenerate to plain inference:
    # bitwise-equal predictions, weights untouched.
    zero_cfg = replace(run.train, learning_rate=0.0, dropped_learning_rate=0.0)
    lr0 = _clone_weights(frozen, run.net, run.train.seed)
    for pair, result in zip(pairs_b[:3], online_adapt(lr0, pairs_b[:3], zero_cfg, run.loss, margin=MARGIN)):
        d_l, d_r = infer(frozen, pair)
        assert result.d_left.tobytes() == d_l.tobytes()
        assert result.d_right.tobytes() == d_r.tobytes()
    for name, t in lr0.params.items():
        assert t.data.tobytes() == frozen.params[name].data.tobytes()

    adapted = _trained["weights"]
    stream = [pairs_b[i % len(pairs_b)] for i in range(100)]
    steps = sum(1 for _ in online_adapt(adapted, stream, run.train, run.loss, margin=MARGIN))
    assert steps == 100
    adapted_d1 = _interior_d1(adapted, pairs_b)
    assert adapted_d1 < frozen_d1, (
        f"adaptation did not improve D1(0.5px): {frozen_d1:.2f}% -> {adapted_d1:.2f}%"
    )
    return f"D1(0.5px) {frozen_d1:.2f}% -> {adapted_d1:.2f}%; lr=0 bitwise equal to infer"


# --- criterion 8 -----------------------------------------------------------


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "sssm.cli", *argv],
        capture_output=True, text=True, timeout=600,
    )


@criterion(8, "two seeded single-threaded runs: loss logs and checkpoints byte-identical")
def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iterations = 6\n")
    data = tmp_path / "data"
    r = _run_cli("synth", "--out", str(data), "--count", "3", "--height", "64",
                 "--width", "128", "--field", "constant:2..5", "--seed", "3")
    assert r.returncode == 0, r.stderr

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = _run_cli("train", "--manifest", str(data / "manifest.txt"), "--out", str(out),
                     "--toy", "--config", str(cfg), "--seed", "5", "--single-thread")
        assert r.returncode == 0, r.stderr
        outs.append(out)

    checked = []
    for rel in ("loss_log.csv", "weights.sssmw"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), f"{rel} differs"
        checked.append(rel)
    return "6-iteration toy runs; " + ", ".join(checked) + " identical"


# --- criterion 9 -----------------------------------------------------------


@criterion(9, "PPM/PGM/PFM/SSSMW2 round trips lossless; GT quantization bound 1/256 px")
def test_criterion_9_io_round_trips(tmp_path):
    rng = np.random.default_rng(9)

    img = rng.random((11, 13, 3)).astype(np.float32)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_image(p1, img)
    write_image(p2, read_image(p1))
    assert p1.read_bytes() == p2.read_bytes(), "PPM round trip not byte-identical"

    gray = rng.random((7, 9)).astype(np.float32)
    g1, g2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_image(g1, gray)
    write_image(g2, read_image(g1)[:, :, 0])
    assert g1.read_bytes() == g2.read_bytes(), "PGM round trip not byte-identical"

    d = (rng.standard_normal((10, 14)) * 40).astype(np.float32)
    fp = tmp_path / "d.pfm"
    write_pfm(fp, d)
    assert read_pfm(fp).tobytes() == d.tobytes(), "PFM round trip not bitwise"

    arrays = {
        "w/a": rng.standard_normal((3, 4)).astype(np.float32),
        "w/b": rng.standard_normal(5).astype(np.float32),
    }
    cp = tmp_path / "w.sssmw"
    save_arrays(cp, arrays)
    back = load_arrays(cp)
    assert list(back) == list(arrays)
    for key in arrays:
        assert back[key].tobytes() == arrays[key].tobytes(), f"checkpoint record {key} not bitwise"

    values = rng.uniform(0.0, 200.0, (16, 16)).astype(np.float32)
    valid = rng.random((16, 16)) > 0.2
    gt = tmp_path / "gt.pgm"
    write_gt_pgm(gt, values, valid)
    read_values, read_valid = read_gt_pgm(gt)
    assert np.array_equal(read_valid, valid)
    worst = float(np.abs(read_values - values)[valid].max())
    assert worst <= 1.0 / 256.0, f"GT quantization error {worst:.6f} exceeds 1/256"
    return f"all containers lossless; GT worst error {worst * 256:.3f}/256 px"
