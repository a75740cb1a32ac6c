"""Averages, norms, tables, window diagnostics, rates, equidistribution."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfem import (
    ArrowheadSystem,
    EmptyGroupError,
    GridFunction,
    InvalidArgumentError,
    NumericalBreakdownError,
    StageSolution,
    UndefinedRateError,
    build_stage,
    builtin_field,
    cauchy_diagnostics,
    cesaro_solution_average,
    coefficient_random,
    continuum_error_norms,
    convergence_table,
    grid_norms,
    rate_estimate,
    rate_from_errors,
    reference_grids,
    sample_grid,
    solve_example_stage,
    solve_stage,
    weyl_cos_mean,
    weyl_fraction,
)
from starfem import analysis, femsolve, forcing, stargraph
from starfem._rng import coefficient_rng
from starfem.analysis import group_average_sweep
from starfem.expcli import main
from starfem.femsolve import center_identity_residual
from starfem.stargraph import edge_groups, group_star

PI = np.pi


class TestSolutionAverage:
    def test_matches_direct_group_mean(self):
        sol = solve_example_stage("ex3", 9, 12)
        avg = cesaro_solution_average(sol, 1)
        direct = sol.values[[2, 5, 8]].mean(axis=0)
        assert np.allclose(avg.values, direct, atol=1e-15)

    def test_empty_group_raises(self):
        sol = solve_example_stage("ex1", 2, 8)
        with pytest.raises(EmptyGroupError):
            cesaro_solution_average(sol, 1)


class TestGridNorms:
    def test_mesh_mismatch_rejected(self):
        a = GridFunction(m=4, values=np.zeros(5))
        b = GridFunction(m=5, values=np.zeros(6))
        with pytest.raises(InvalidArgumentError):
            grid_norms(a, b)

    def test_zero_for_identical_grids(self):
        g = sample_grid(lambda t: np.sin(3 * t), 17)
        assert grid_norms(g, g) == (0.0, 0.0)

    @pytest.mark.parametrize("m", [8, 9, 16, 33])
    def test_quadrature_is_exact_on_cubics(self, m):
        # nodal squares of t^1.5 give the cubic t^3, integrating to 1/4
        f = sample_grid(lambda t: t**1.5, m)
        z = sample_grid(lambda t: 0.0 * t, m)
        l2, _ = grid_norms(f, z)
        assert l2 == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("m", [24, 25])
    def test_quadrature_error_is_fourth_order(self, m):
        f = sample_grid(lambda t: np.sin(PI * t), m)
        z = sample_grid(lambda t: 0.0 * t, m)
        l2, _ = grid_norms(f, z)
        exact = np.sqrt(0.5)
        assert abs(l2 - exact) < 20.0 / m**4

    def test_seminorm_of_a_hat(self):
        g = GridFunction(m=2, values=np.array([0.0, 1.0, 0.0]))
        z = GridFunction(m=2, values=np.zeros(3))
        _, h1 = grid_norms(g, z)
        assert h1 == pytest.approx(2.0, abs=1e-14)

    def test_full_norm_combines_both(self):
        f = sample_grid(lambda t: np.sin(PI * t), 40)
        z = sample_grid(lambda t: 0.0 * t, 40)
        l2, semi = grid_norms(f, z)
        _, full = grid_norms(f, z, full=True)
        assert full == pytest.approx(np.hypot(l2, semi), abs=1e-14)

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("m", [8, 9])
    def test_stacked_grids_match_one_pair_at_a_time(self, m, full):
        # m = 9 closes the Simpson rule with the 3/8 branch
        rng = np.random.default_rng(m)
        f = rng.standard_normal((4, 3, m + 1))
        g = rng.standard_normal((3, m + 1))
        l2, h1 = grid_norms(f, g, full=full)
        assert l2.shape == h1.shape == (4, 3)
        for k in range(4):
            for i in range(3):
                pair = grid_norms(GridFunction(m=m, values=f[k, i]),
                                  GridFunction(m=m, values=g[i]), full=full)
                assert all(type(v) is float for v in pair)
                assert (l2[k, i], h1[k, i]) == pair
                # against the formulas written out for one pair
                d = f[k, i] - g[i]
                ref_l2 = np.sqrt(np.dot(analysis._simpson_weights(m), d * d))
                ref_h1 = np.sqrt(np.sum(np.diff(d) ** 2) * m)
                if full:
                    ref_h1 = np.hypot(ref_l2, ref_h1)
                assert l2[k, i] == pytest.approx(ref_l2, rel=1e-15)
                assert h1[k, i] == pytest.approx(ref_h1, rel=1e-14)

    def test_stacked_grids_must_share_the_mesh(self):
        with pytest.raises(InvalidArgumentError):
            grid_norms(np.zeros((2, 5)), np.zeros((2, 6)))
        with pytest.raises(InvalidArgumentError):
            grid_norms(np.zeros((2, 2)), np.zeros(2))

    @settings(max_examples=40, deadline=None)
    @given(vals=st.lists(st.floats(-100, 100), min_size=5, max_size=5),
           lam=st.floats(-20, 20))
    def test_norms_scale_linearly(self, vals, lam):
        f = GridFunction(m=4, values=np.array(vals))
        z = GridFunction(m=4, values=np.zeros(5))
        g = GridFunction(m=4, values=lam * np.array(vals))
        l2f, h1f = grid_norms(f, z)
        l2g, h1g = grid_norms(g, z)
        assert l2g == pytest.approx(abs(lam) * l2f, abs=1e-10)
        assert h1g == pytest.approx(abs(lam) * h1f, abs=1e-8 * (1 + h1f))

    @settings(max_examples=40, deadline=None)
    @given(a=st.lists(st.floats(-10, 10), min_size=7, max_size=7),
           b=st.lists(st.floats(-10, 10), min_size=7, max_size=7),
           c=st.lists(st.floats(-10, 10), min_size=7, max_size=7))
    def test_triangle_inequality(self, a, b, c):
        fa = GridFunction(m=6, values=np.array(a))
        fb = GridFunction(m=6, values=np.array(b))
        fc = GridFunction(m=6, values=np.array(c))
        for full in (False, True):
            ab = grid_norms(fa, fb, full=full)
            bc = grid_norms(fb, fc, full=full)
            ac = grid_norms(fa, fc, full=full)
            assert ac[0] <= ab[0] + bc[0] + 1e-9
            assert ac[1] <= ab[1] + bc[1] + 1e-9
            assert grid_norms(fb, fa, full=full) == ab


class TestContinuumNorms:
    def test_exact_for_linear_functions(self):
        g = sample_grid(lambda t: 2.0 - 3.0 * t, 13)
        l2, h1 = continuum_error_norms(g, lambda t: 2.0 - 3.0 * t,
                                       lambda t: -3.0 + 0.0 * t)
        assert l2 <= 1e-14
        assert h1 <= 1e-13

    def test_interpolation_orders(self):
        errs = []
        for m in (16, 32, 64):
            g = sample_grid(lambda t: np.sin(PI * t), m)
            errs.append(continuum_error_norms(
                g, lambda t: np.sin(PI * t),
                lambda t: PI * np.cos(PI * t)))
        l2_rate = np.log2(errs[0][0] / errs[1][0])
        h1_rate = np.log2(errs[1][1] / errs[2][1])
        assert l2_rate == pytest.approx(2.0, abs=0.05)
        assert h1_rate == pytest.approx(1.0, abs=0.05)


class TestStageRunner:
    def test_noisy_family_gets_its_edge_count(self):
        sol = solve_example_stage("ex2", 12, 8, seed=4)
        assert sol.stage.n == 12  # n_edges injected, no error

    def test_matches_direct_solve(self):
        sol = solve_example_stage("ex3", 7, 9, h=1.5)
        direct = solve_stage(build_stage(7), builtin_field("ex3"), 1.5, 9)
        assert sol.center == direct.center
        assert np.array_equal(sol.values, direct.values)


def _stages(chunks):
    """(n, counts, center, averages, sums) of each stage of a sweep."""
    for stages, counts, centers, averages, sums in chunks:
        yield from zip(stages, counts, centers, averages, sums)


def _reduced_identity(counts, center, sums, h, m, values=(1.0, 2.0)):
    """Center identity of a stage's group-reduced system, from the arrays.

    The reduced system has edge coefficients n_i K_i and the group load
    sums, so its identity is center sum(n_i K_i) = h + sum of the moments.
    """
    reduced = StageSolution(stage=group_star(counts * np.asarray(values)),
                            m=m, h=h, center=center,
                            values=np.zeros((len(counts), m + 1)),
                            node_loads=sums)
    return center_identity_residual(reduced)


class TestGroupAverageSweep:
    """The reduced sweep against full stage solves plus group averaging."""

    STAGES = (10, 11, 50, 1000)

    @pytest.mark.parametrize("h", [0.75, "linear"])
    @pytest.mark.parametrize("coeff", ["deterministic", "random"])
    @pytest.mark.parametrize("orientation", ["center", "rim"])
    @pytest.mark.parametrize("family,params", [
        ("ex1", {}), ("ex2", {"noise": 1.5}), ("ex3", {}), ("ex4", {}),
        ("ex5", {}), ("constant", {"c": -2.5}), ("manufactured", {}),
    ])
    def test_matches_full_solve(self, family, params, orientation, coeff, h):
        params = dict(params, orientation=orientation)
        h_of = (lambda n: 0.25 * n) if h == "linear" else (lambda n: h)
        m = 12
        sweep = list(_stages(group_average_sweep(
            family, self.STAGES, m, coeff=coeff, seed=3, parameters=params,
            h=h_of)))
        assert [s[0] for s in sweep] == list(self.STAGES)
        for n, counts, center, averages, sums in sweep:
            sol = solve_example_stage(family, n, m, coeff=coeff, seed=3,
                                      parameters=params, h=h_of(n))
            refs = [cesaro_solution_average(sol, i) for i in (1, 2)]
            scale = max(np.max(np.abs(r.values)) for r in refs)
            assert counts.tolist() == [int(sol.stage.group_mask(i).sum())
                                       for i in (1, 2)]
            for got, ref in zip(averages, refs):
                assert np.max(np.abs(got - ref.values)) <= 1e-11 * scale
            assert abs(center - sol.center) <= 1e-11 * scale
            # roundoff: normalized by the group-summed moments, which
            # cancel more than the per-edge ones of the full stage
            assert _reduced_identity(counts, center, sums, h_of(n), m) \
                <= 1e-12

    @pytest.mark.parametrize("family,coeff", [("ex5", "random"),
                                              ("ex2", "deterministic")])
    def test_small_blocks_and_chunks_match_full_solve(self, family, coeff,
                                                      monkeypatch):
        # m = 12 and two groups: blocks of 2 edges, chunks of 6 stages, so
        # one block spans several stages and the stages span three chunks
        # (ex2 restarts per stage and walks each one in blocks)
        monkeypatch.setattr(analysis, "SWEEP_BLOCK_VALUES", 180)
        monkeypatch.setattr(analysis, "SWEEP_CHUNK_VALUES", 180)
        stages = (3, 4, 5, 6, 7, 9, 12, 13, 14, 20, 21, 22, 40, 41)
        load_terms = analysis.group_load_terms
        segments = []

        def spy(field, ells, key, groups, m, **kwargs):
            segments.append(np.unique(np.asarray(key) // 2).size)
            return load_terms(field, ells, key, groups, m, **kwargs)

        monkeypatch.setattr(analysis, "group_load_terms", spy)
        m = 12
        chunks = list(group_average_sweep(family, stages, m, coeff=coeff,
                                          seed=5, h=0.3))
        assert len(chunks) == (len(stages) if family == "ex2" else 3)
        sweep = list(_stages(chunks))
        assert [s[0] for s in sweep] == list(stages)
        assert max(segments) >= (2 if family == "ex5" else 1)
        for n, counts, center, averages, _ in sweep:
            sol = solve_example_stage(family, n, m, coeff=coeff, seed=5,
                                      h=0.3)
            refs = [cesaro_solution_average(sol, i) if sol.stage.group_mask(i)
                    .any() else None for i in (1, 2)]
            scale = max(np.max(np.abs(r.values)) for r in refs
                        if r is not None)
            for count, got, ref in zip(counts, averages, refs):
                assert (count == 0) == (ref is None)
                if ref is not None:
                    assert np.max(np.abs(got - ref.values)) <= 1e-11 * scale
            assert abs(center - sol.center) <= 1e-11 * scale

    def test_stages_with_different_empty_groups_share_a_chunk(self,
                                                              monkeypatch):
        # stage 2 has no group-1 edge under the deterministic rule and the
        # later stages have both groups: one chunk, two stacked solves
        solve = analysis.solve
        stacks = []

        def spy(system):
            stacks.append(system.block_off.shape)
            return solve(system)

        monkeypatch.setattr(analysis, "solve", spy)
        stages = (2, 3, 4, 5, 6, 7)
        m = 10
        chunks = list(group_average_sweep("ex1", stages, m, h=0.4))
        assert sorted(stacks) == [(1, 1), (5, 2)]
        assert len(chunks) == 1
        ns, counts, centers, averages, sums = chunks[0]
        assert ns.tolist() == list(stages)
        assert counts.shape == (6, 2) and centers.shape == (6,)
        assert averages.shape == sums.shape == (6, 2, m + 1)
        for n, count, center, avgs, stage_sums in _stages(chunks):
            sol = solve_example_stage("ex1", n, m, h=0.4)
            refs = [cesaro_solution_average(sol, i) if sol.stage.group_mask(i)
                    .any() else None for i in (1, 2)]
            scale = max(np.max(np.abs(r.values)) for r in refs
                        if r is not None)
            for k, got, ref in zip(count, avgs, refs):
                assert (k == 0) == (ref is None)
                if ref is not None:
                    assert np.max(np.abs(got - ref.values)) <= 1e-11 * scale
            assert abs(center - sol.center) <= 1e-11 * scale
            assert _reduced_identity(count, center, stage_sums, 0.4, m) \
                <= 1e-12

    def test_a_stage_failing_the_gate_is_named(self, monkeypatch):
        # stage 2 is a stack of its own (no group-1 edge); the second stage
        # of the other stack is perturbed in every pass, so the refinement
        # step cannot repair it
        edge_values = femsolve._edge_values
        rng = np.random.default_rng(0)

        def perturb_second(z, km, w, center):
            edge_values(z, km, w, center)
            if len(z) > 1:
                z[1] *= 1.0 + 1e-3 * rng.standard_normal(z[1].shape)

        monkeypatch.setattr(femsolve, "_edge_values", perturb_second)
        with pytest.raises(NumericalBreakdownError,
                           match=r"^stage n=11: .*stacked system 1\)$"):
            list(group_average_sweep("ex1", [2, 10, 11, 12, 13], 8))

    def test_a_stack_failing_as_a_whole_names_its_stages(self, monkeypatch):
        monkeypatch.setattr(ArrowheadSystem, "backward_error",
                            lambda self, center, interior: 1.0)
        with pytest.raises(NumericalBreakdownError, match=r"^stages n=10\.\.20:"):
            list(group_average_sweep("ex1", [10, 15, 20], 8))

    def test_empty_group_reads_a_zero_count(self):
        # the deterministic rule has no group-1 edge before edge 3
        (ns, counts, _, averages, sums), = group_average_sweep("ex1", [2, 3],
                                                               8)
        assert counts.tolist() == [[0, 2], [1, 2]]
        assert not averages[0, 0].any() and not sums[0, 0].any()
        assert averages[1, 0].any()

    def test_stages_validated(self):
        for stages in ([10, 10], [1, 5]):
            with pytest.raises(InvalidArgumentError):
                list(group_average_sweep("ex1", stages, 8))
        with pytest.raises(InvalidArgumentError):
            list(group_average_sweep("ex1", [4], 1))

    def test_every_stage_passes_the_gate(self, monkeypatch, tmp_path):
        monkeypatch.setattr(ArrowheadSystem, "backward_error",
                            lambda self, center, interior: 1.0)
        with pytest.raises(NumericalBreakdownError):
            convergence_table("ex1", [10, 20], 16, "oracle")
        with pytest.raises(NumericalBreakdownError):
            cauchy_diagnostics("ex1", [10], window=4, m=8)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("example=ex1\nstages=4,8\nmesh=8\n")
        out = tmp_path / "t.csv"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()


class TestStarFreeSweep:
    """The sweep draws each block's groups itself and holds no n-array."""

    # 20 stages: with blocks of 7 edges and chunks of 17 stages, blocks
    # split inside stages, some blocks span several stages, and the second
    # chunk continues the walk of the first
    STAGES = (2, 3, 5, 8, 13, 16, 17, 18, 30, 31, 45, 50, 64, 65, 66, 90,
              100, 101, 128, 150)

    def _split_sweep(self, monkeypatch, family, coeff, m, **kwargs):
        monkeypatch.setattr(analysis, "SWEEP_BLOCK_VALUES", 448)
        monkeypatch.setattr(analysis, "SWEEP_CHUNK_VALUES", 448)
        blocks = []
        load_terms = analysis.group_load_terms

        def spy(field, ells, key, groups, m, **kwargs):
            blocks.append((int(ells[0]), int(ells[-1]), groups))
            return load_terms(field, ells, key, groups, m, **kwargs)

        monkeypatch.setattr(analysis, "group_load_terms", spy)
        chunks = list(group_average_sweep(family, self.STAGES, m, coeff=coeff,
                                          seed=11, **kwargs))
        return chunks, blocks

    @pytest.mark.parametrize("coeff", ["deterministic", "random"])
    @pytest.mark.parametrize("family", ["ex3", "ex5"])
    def test_matches_build_stage_and_full_solve(self, monkeypatch, family,
                                                coeff):
        m = 12
        chunks, blocks = self._split_sweep(monkeypatch, family, coeff, m,
                                           h=0.4)
        assert len(chunks) == 2
        assert max(hi - lo + 1 for lo, hi, _ in blocks) == 7
        assert max(groups for _, _, groups in blocks) > 2  # spans stages
        inside = [n for n in self.STAGES
                  if any(lo <= n < hi for lo, hi, _ in blocks)]
        assert len(inside) >= 10  # stages that end inside a block
        for n, counts, center, averages, _ in _stages(chunks):
            stage = build_stage(n, coeff, seed=11)
            sol = solve_stage(stage, builtin_field(family), 0.4, m)
            assert counts.tolist() == [int(stage.group_mask(i).sum())
                                       for i in (1, 2)]
            scale = np.max(np.abs(sol.values))
            assert abs(center - sol.center) <= 1e-13 * scale
            for i, got in enumerate(averages, start=1):
                if counts[i - 1]:
                    ref = cesaro_solution_average(sol, i).values
                    assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    def test_ex2_restarts_noise_and_coefficients_per_stage(self,
                                                           monkeypatch):
        # each stage redraws its noise, so each walk starts again at edge 1
        # with a fresh coefficient stream
        m = 10
        chunks, blocks = self._split_sweep(monkeypatch, "ex2", "random", m)
        assert len(chunks) == len(self.STAGES)
        assert sum(lo == 1 for lo, _, _ in blocks) == len(self.STAGES)
        for n, counts, center, averages, _ in _stages(chunks):
            sol = solve_example_stage("ex2", n, m, coeff="random", seed=11)
            scale = np.max(np.abs(sol.values))
            assert abs(center - sol.center) <= 1e-13 * scale
            for i, got in enumerate(averages, start=1):
                if counts[i - 1]:
                    ref = cesaro_solution_average(sol, i).values
                    assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    def test_peak_memory_does_not_grow_with_n(self):
        def peak(n):
            stages = [10**k for k in range(1, 7) if 10**k <= n]
            tracemalloc.start()
            try:
                for _ in group_average_sweep("ex3", stages, 100):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10**5), peak(10**6)
        # a star of 10^6 edges alone would add 16 MB
        assert abs(large - small) <= 2**18
        assert large <= 4 * 2**20

    @pytest.mark.parametrize("coeff", ["deterministic", "random"])
    def test_folded_sweep_memory_does_not_grow_with_n(self, coeff):
        # ex5 windows of 11 stages at m = 100: Gauss-point rows per edge
        # held ~15 MB of blocks (2^20 values, and their temporaries)
        def peak(n):
            stages = list(range(n - 5, n + 6))
            tracemalloc.start()
            try:
                for _ in group_average_sweep("ex5", stages, 100,
                                             coeff=coeff):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # first use of the FFT and of the coefficient stream, untraced
        list(group_average_sweep("ex5", [4, 5], 8, coeff=coeff))
        small, large = peak(10**5), peak(10**6)
        assert abs(large - small) <= 2**18
        assert large <= 3 * 2**20

    @pytest.mark.parametrize("coeff", ["deterministic", "random"])
    def test_group_sums_of_a_long_stage_match_fsum(self, monkeypatch, coeff):
        # ex3's q is 1 or 2, below 2m, so each block sums A and c per
        # (group, q) before the fold scales them by G(q) and H(q)
        n = 10**6
        blocks = []
        sums_per_q = femsolve._sums_per_q

        def spy(*args):
            blocks.append(sums_per_q(*args))
            return blocks[-1]

        monkeypatch.setattr(femsolve, "_sums_per_q", spy)
        list(group_average_sweep("ex3", [n], 8, coeff=coeff, seed=2))
        assert len(blocks) > 50
        # (groups, q = 0, 1, 2) per block, added in turn as the sweep adds
        # the blocks' load sums
        assert all(a.shape == c.shape == (2, 3) for a, c in blocks)
        a_sums = sum(a for a, _ in blocks)
        c_sums = sum(c.sum(axis=1) for _, c in blocks)
        ells = np.arange(1, n + 1)
        A, q, c = builtin_field("ex3").pi_sine_coeffs(ells)
        group = build_stage(n, coeff, seed=2).group_of - 1
        for i in (0, 1):
            assert a_sums[i, 0] == 0.0
            for k in (1, 2):
                # positive terms: no cancellation to hide behind
                ref = math.fsum(A[(group == i) & (q == k)])
                assert abs(a_sums[i, k] - ref) <= 1e-14 * abs(ref)
            ref = math.fsum(c[group == i])
            assert abs(c_sums[i] - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("coeff", ["deterministic", "random"])
    @pytest.mark.parametrize("family", ["ex3", "ex4", "ex5"])
    def test_every_third_mask_is_evaluated_once_per_block(self, monkeypatch,
                                                          family, coeff):
        # the deterministic groups and the radial forcing classes share it
        calls, blocks = [], []

        def counted(ells):
            calls.append(len(ells))
            return ells % 3 == 0

        for module in (analysis, forcing, stargraph):
            monkeypatch.setattr(module, "every_third", counted)
        load_terms = analysis.group_load_terms

        def spy(field, ells, *args, **kwargs):
            blocks.append(len(ells))
            return load_terms(field, ells, *args, **kwargs)

        monkeypatch.setattr(analysis, "group_load_terms", spy)
        list(group_average_sweep(family, [10, 5000, 40000], 8, coeff=coeff))
        assert len(blocks) > 1
        assert calls == blocks

    @pytest.mark.parametrize("coeff", ["deterministic", "random"])
    def test_folded_weights_of_a_long_stage_match_fsum(self, monkeypatch,
                                                        coeff):
        # ex5: the sums of A G per (group, q mod 2m) and of the two half
        # hats per group, as the sweep's blocks take them, against
        # math.fsum over the same per-edge terms; then the stage's node
        # sums against the fold of those fsum weights
        n, m = 10**6, 8
        period = 2 * m
        blocks, yielded = [], []
        weights, group_terms = femsolve.folded_weights, analysis._group_terms

        def spy_weights(*args, **kwargs):
            blocks.append(weights(*args, **kwargs))
            return blocks[-1]

        def spy_terms(*args):
            for ends, counts, terms in group_terms(*args):
                yielded.append(terms.copy())
                yield ends, counts, terms

        monkeypatch.setattr(femsolve, "folded_weights", spy_weights)
        monkeypatch.setattr(analysis, "_group_terms", spy_terms)
        list(group_average_sweep("ex5", [n], m, coeff=coeff, seed=2))
        assert len(blocks) > 50
        # the blocks' sums added with no rounding of their own
        got_w, got_center, got_rim, _ = (
            np.apply_along_axis(math.fsum, 0, np.array(part))
            for part in zip(*blocks))
        ells = np.arange(1, n + 1)
        A, q, _ = builtin_field("ex5").pi_sine_coeffs(ells)
        G, H = femsolve._fold_scalars(q, m)
        group = build_stage(n, coeff, seed=2).group_of - 1
        key = group * period + q % period
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        ref_w = np.zeros((2, period))
        for k, part in zip(key[order][np.r_[0, cuts]],
                           np.split((A * G)[order], cuts)):
            ref_w.flat[k] = math.fsum(part)
            assert abs(got_w.flat[k] - ref_w.flat[k]) \
                <= 1e-15 * math.fsum(np.abs(part))
        half = A * H
        sign = 2 * (q & 1) - 1
        ref_ends = np.zeros((2, 2))
        for i in (0, 1):
            mine = group == i
            for j, (got, terms) in enumerate(((got_center, half[mine]),
                                              (got_rim, (sign * half)[mine]))):
                ref_ends[i, j] = math.fsum(terms)
                assert abs(got[i] - ref_ends[i, j]) \
                    <= 1e-15 * math.fsum(np.abs(terms))
        k = np.arange(m + 1)
        table = np.sin(np.pi * ((np.arange(period)[:, None] * k) % period) / m)
        ref = np.array([[math.fsum(ref_w[i] * table[:, j]) for j in k]
                        for i in (0, 1)])
        ref[:, 0], ref[:, m] = ref_ends[:, 0], ref_ends[:, 1]
        (sums,), = yielded  # (1, groups, m+1): one stage
        assert np.max(np.abs(sums - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestEdgeGroups:
    def test_random_blocks_draw_one_coefficient_stream(self):
        probs, values = (0.2, 0.3, 0.5), (1.0, 2.0, 3.0)
        groups = edge_groups("random", seed=7, probs=probs, values=values)
        cuts = [0, 1, 5, 1000, 1003, 4097, 5000]
        drawn = np.concatenate([groups(np.arange(lo + 1, hi + 1))
                                for lo, hi in zip(cuts, cuts[1:])])
        ref = coefficient_random(5000, 7, probs, values)
        assert np.array_equal(np.asarray(values)[drawn], ref)
        # the stream itself: value i where the uniform draw first falls
        # below the cumulative probability of i
        u = coefficient_rng(7).random(5000)
        pick = np.searchsorted(np.cumsum(probs), u, side="right")
        assert np.array_equal(np.asarray(values)[np.minimum(pick, 2)], ref)

    def test_random_blocks_must_be_consecutive(self):
        groups = edge_groups("random", seed=7)
        groups(np.arange(1, 11))
        with pytest.raises(InvalidArgumentError, match="edge 11"):
            groups(np.arange(12, 20))

    def test_deterministic_rule_needs_two_values(self):
        with pytest.raises(InvalidArgumentError):
            edge_groups("deterministic", values=(2.0,))
        with pytest.raises(InvalidArgumentError):
            edge_groups("explicit")


class TestReferenceGrids:
    def test_oracle_and_printed_differ_for_flagged_example(self):
        oracle, id1 = reference_grids("ex3", "oracle", 20)
        printed, id2 = reference_grids("ex3", "printed", 20)
        assert (id1, id2) == ("oracle", "printed")
        assert not np.allclose(oracle[0].values, printed[0].values)

    def test_upscaled_reference_is_solved_on_the_same_mesh(self):
        grids, rid = reference_grids("ex3", "upscaled", 24)
        assert rid == "upscaled"
        assert all(g.m == 24 for g in grids)

    def test_callables_and_grids_pass_through(self):
        fn = lambda t: np.cos(t)
        grids, rid = reference_grids("ex1", [fn, fn], 10)
        assert rid == "custom"
        assert np.allclose(grids[0].values, np.cos(np.arange(11) / 10))

    def test_unknown_keyword_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reference_grids("ex1", "exact", 10)

    def test_example_without_oracle_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reference_grids("ex5", "oracle", 10)


class TestConvergenceTable:
    def test_row_structure_and_frozen_values(self):
        rows = convergence_table("ex1", [10, 20], 100, "oracle")
        assert [(r.n, r.group) for r in rows] == [
            (10, 1), (10, 2), (20, 1), (20, 2)]
        assert all(r.reference_id == "oracle" and r.m == 100 for r in rows)
        # frozen regression anchors
        assert rows[0].l2_error == pytest.approx(3.5265264111e-01, rel=1e-8)
        assert rows[1].h1_error == pytest.approx(2.7263630874e-01, rel=1e-8)
        assert rows[2].center_value == pytest.approx(4.9859714991e-02,
                                                     rel=1e-8)

    def test_stages_must_increase(self):
        with pytest.raises(InvalidArgumentError):
            convergence_table("ex1", [10, 10], 50, "oracle")
        with pytest.raises(InvalidArgumentError):
            convergence_table("ex1", [20, 10], 50, "oracle")

    def test_callable_datum_is_applied_per_stage(self):
        rows = convergence_table("constant", [4, 8], 16, "oracle",
                                 parameters={"c": 0.0},
                                 h=lambda n: float(n * n))
        # with F = 0 the center is h / sum K; a datum growing faster than
        # the edge count must push it up (h = n alone would cancel)
        assert rows[2].center_value == pytest.approx(
            2 * rows[0].center_value, rel=1e-12)


class TestCauchyDiagnostics:
    def test_window_must_cover_two_stages(self):
        with pytest.raises(InvalidArgumentError):
            cauchy_diagnostics("ex1", [50], window=1, m=8)

    def test_window_must_stay_above_the_smallest_stage(self):
        with pytest.raises(InvalidArgumentError):
            cauchy_diagnostics("ex1", [3], window=10, m=8)

    def test_rows_per_center_and_group(self):
        rows = cauchy_diagnostics("ex1", [10, 14], window=4, m=8)
        assert [(r.n, r.group) for r in rows] == [
            (10, 1), (10, 2), (14, 1), (14, 2)]
        assert all(r.window == 4 for r in rows)
        assert all(r.epsilon > 0 and r.delta > 0 for r in rows)

    def test_window_average_matches_direct_computation(self):
        window, center, m = 4, 10, 8
        rows = cauchy_diagnostics("ex1", [center], window=window, m=m)
        lo = center - window // 2 + 1
        eps = 0.0
        for j in range(lo, lo + window):
            a = cesaro_solution_average(solve_example_stage("ex1", j, m), 2)
            b = cesaro_solution_average(solve_example_stage("ex1", j - 1, m), 2)
            eps += grid_norms(a, b)[0]
        assert rows[1].epsilon == pytest.approx(eps / window, rel=1e-12)

    def test_group_empty_everywhere_is_skipped(self):
        # equal group values collapse every edge into group 2
        rows = cauchy_diagnostics("ex1", [10], window=4, m=8,
                                  values=(1.0, 1.0))
        assert [r.group for r in rows] == [2]

    def test_group_empty_at_some_stages_is_an_error(self):
        # the deterministic rule has no group-1 edge until stage 3
        with pytest.raises(EmptyGroupError):
            cauchy_diagnostics("ex1", [3], window=2, m=8)


class TestRates:
    def test_worked_example(self):
        assert rate_estimate(9e-2, 9.9e-3, 9.999e-5) == pytest.approx(
            2.08185, abs=1e-4)

    def test_exact_geometric_decay(self):
        assert rate_estimate(1e-1, 1e-3, 1e-9) == pytest.approx(3.0,
                                                                abs=1e-12)

    def test_nonpositive_gaps_rejected(self):
        with pytest.raises(UndefinedRateError):
            rate_estimate(0.0, 1e-3, 1e-4)
        with pytest.raises(UndefinedRateError):
            rate_estimate(1e-2, -1e-3, 1e-4)

    def test_equal_gaps_rejected(self):
        with pytest.raises(UndefinedRateError):
            rate_estimate(1e-3, 1e-3, 1e-4)

    def test_sliding_estimates(self):
        errors = [1e-1, 1e-2, 1e-4, 1e-8, 1e-9]
        alphas = rate_from_errors(errors)
        assert len(alphas) == 2
        gaps = np.abs(np.diff(errors))
        assert alphas[0] == pytest.approx(
            rate_estimate(gaps[0], gaps[1], gaps[2]))

    def test_too_few_errors_rejected(self):
        with pytest.raises(UndefinedRateError):
            rate_from_errors([1e-1, 1e-2, 1e-3])


class TestEquidistribution:
    def test_small_case_by_hand(self):
        # residues 1..6 land below pi for 1, 2, 3 only
        assert weyl_fraction(6, (0.0, PI)) == pytest.approx(0.5)
        # 7 wraps to 0.7168, joining the low half
        assert weyl_fraction(7, (0.0, PI)) == pytest.approx(4 / 7)

    def test_interval_validated(self):
        with pytest.raises(InvalidArgumentError):
            weyl_fraction(10, (-0.1, 1.0))
        with pytest.raises(InvalidArgumentError):
            weyl_fraction(10, (2.0, 1.0))
        with pytest.raises(InvalidArgumentError):
            weyl_fraction(10, (0.0, 7.0))
        with pytest.raises(InvalidArgumentError):
            weyl_fraction(0, (0.0, PI))

    def test_cos_mean_matches_dirichlet_kernel(self):
        # sum cos l has the closed form sin(n/2) cos((n+1)/2) / sin(1/2)
        for n in (1, 17, 1000):
            closed = abs(np.sin(n / 2) * np.cos((n + 1) / 2)
                         / np.sin(0.5)) / n
            assert weyl_cos_mean(n) == pytest.approx(closed, abs=1e-15)

    def test_cos_mean_validates_count(self):
        with pytest.raises(InvalidArgumentError):
            weyl_cos_mean(0)


class TestReadingReport:
    """ex3 against its printed curves with t from the center or the rim."""

    @staticmethod
    def _rows(reading):
        rows = convergence_table("ex3", [10], 100, "printed",
                                 parameters={"orientation": reading},
                                 full_h1=True)
        return {(r.n, r.group): r for r in rows}

    def test_rim_reading_reproduces_the_published_row(self):
        rim = self._rows("rim")
        assert rim[(10, 1)].l2_error == pytest.approx(1.6392, rel=2e-3)
        assert rim[(10, 2)].l2_error == pytest.approx(0.4900, rel=2e-3)
        assert rim[(10, 1)].h1_error == pytest.approx(5.7447, rel=2e-3)
        assert rim[(10, 2)].h1_error == pytest.approx(1.3210, rel=2e-3)

    def test_center_reading_misses_that_row(self):
        center = self._rows("center")
        assert abs(center[(10, 2)].l2_error - 0.4900) > 0.5
