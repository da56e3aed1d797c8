import math
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import mzcg
from mzcg import csvio, sde
from mzcg.cli import main
from mzcg.config import EXPERIMENTS, KEYS, ConfigError, _array_bytes, resolve
from mzcg.csvio import format_value, read_csv, write_csv
from mzcg.experiments import RUNNERS, run, simulate_stationary, time_to_half
from mzcg.kernel import fit_decay_rate
from mzcg.sde import IntegratorConfig, NumericalBlowupError


# Numbers near the edges of the floats, where derived scales overflow.
EDGE_VALUES = ["0", "-1", "1", "2", "1e-320", "5e-324", "1e-200", "1e200", "1e308",
               "1.7976931348623157e308", "1e300", "inf", "nan", "0.001", "0.01",
               "9007199254740993", "1" + "0" * 400, "1,2", "1,", ",", ""]
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=8),
)


# A tiny run of each experiment.  From it, any one key set to any edge value
# gives a run that is refused or ends within a second, so none is left out.
TINY = {
    "landscape": ["grid_points=3"],
    "kernel": ["n_samples=3", "n_lags=3", "lag_efolds=0.5"],
    "kernel-matrix": ["n_samples=3", "n_lags=3", "lag_efolds=0.1"],
    "mean-trajectory": ["n_samples=3", "dt=0.001", "t_final=0.01"],
    "ensemble": ["n_samples=3", "dt=0.001", "t_final=0.01"],
    "stationary": ["n_samples=3", "dt_main=0.001", "t_main=0.01", "dt_resid=0.0001",
                   "t_resid=0.001"],
}


def set_pairs(experiment):
    """--set pairs of the experiment's own keys and of arbitrary text."""
    keys = st.one_of(st.sampled_from(sorted(KEYS[experiment])), st.text(max_size=8))
    return st.lists(st.builds("{}={}".format, keys, VALUES), max_size=4)


def run_cli(args):
    return CliRunner().invoke(main, args)


class TestConfigResolution:
    def test_defaults_are_concrete(self):
        cfg = resolve("kernel")
        assert cfg["x0"] == pytest.approx(math.pi / 10.0)
        assert cfg["dt"] == pytest.approx(1e-4 / 20.0)
        assert cfg["experiment"] == "kernel"

    def test_desk_scale_overlay(self):
        cfg = resolve("mean-trajectory", desk_scale=True)
        assert cfg["dt"] == 1e-4
        assert cfg["n_samples"] == 200
        assert cfg["desk_scale"] is True

    def test_full_scale_defaults(self):
        mt = resolve("mean-trajectory")
        assert mt["dt"] == 1e-5 and mt["t_final"] == 80.0
        ens = resolve("ensemble")
        assert ens["beta_list"] == (1.0, 10.0, 100.0)
        assert ens["n_samples"] == 500
        assert ens["t_final"] == 320.0 and ens["dt"] == 1e-5
        assert ens["x0"] == pytest.approx(math.pi / 20.0)
        assert resolve("kernel-matrix")["n_samples"] == 2000
        assert resolve("kernel")["n_samples"] == 2000

    def test_file_overrides_defaults_and_set_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("omega = 4.0  # wavenumber\ntau=0.2\n\n# comment line\n")
        cfg = resolve("kernel", config_path=path, set_pairs=("omega=6.5",))
        assert cfg["tau"] == 0.2
        assert cfg["omega"] == 6.5
        assert cfg["x0"] == pytest.approx(math.pi / 6.5)

    def test_seed_flag_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("master_seed=5\n")
        cfg = resolve("kernel", config_path=path, set_pairs=("master_seed=6",), seed=7)
        assert cfg["master_seed"] == 7

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(EXPERIMENTS).flatmap(
        lambda e: st.tuples(st.just(e), set_pairs(e))))
    def test_resolve_raises_only_config_errors_and_returns_finite_floats(self, case):
        experiment, pairs = case
        try:
            cfg = resolve(experiment, set_pairs=pairs)
        except ConfigError:
            return
        for value in cfg.values():
            for v in value if isinstance(value, tuple) else (value,):
                assert not isinstance(v, float) or math.isfinite(v)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            resolve("kernel", set_pairs=("gamma=1.0",))

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            resolve("kernel", set_pairs=("n_samples=many",))

    def test_invalid_model_kind_rejected(self):
        with pytest.raises(ConfigError, match="model kind"):
            resolve("mean-trajectory", set_pairs=("models=markov",))

    def test_positivity_enforced(self):
        with pytest.raises(ConfigError):
            resolve("kernel", set_pairs=("lambda=-2",))

    def test_memory_check_counts_the_engines_noise_chunk(self, monkeypatch):
        # 200,000 streams draw 2 x 512 steps of noise at once, 1.6 GB,
        # beside 9.6 MB of records: more than a machine of 1 GB holds.
        # 20,000 streams draw 164 MB, which it does.
        sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 10**9 // 4096}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        pairs = ["record_stride=4096", "dt=1e-4", "t_final=0.4096", "beta_list=1"]
        with pytest.raises(ConfigError, match="use fewer n_samples$"):
            resolve("ensemble", set_pairs=pairs + ["n_samples=200000"])
        resolve("ensemble", set_pairs=pairs + ["n_samples=20000"])

    def test_memory_check_bounds_one_block_by_what_it_holds(self, monkeypatch):
        # A full-scale ensemble that records each of its 32 million steps:
        # several stream blocks hold every record, 1,152 GB, while one holds
        # the statistics, 5.4 GB, which a machine of 8 GB holds.  Without a
        # worker count the check takes the several-block bound.
        sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8 * 10**9 // 4096}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        resolve("ensemble", set_pairs=["record_stride=1"], threads=1)
        for threads in (2, None):
            with pytest.raises(ConfigError, match="needs 1,152.0 GB"):
                resolve("ensemble", set_pairs=["record_stride=1"], threads=threads)
        with pytest.raises(ConfigError, match="needs 10.8 GB .* use a larger record_stride$"):
            resolve("ensemble", set_pairs=["record_stride=1", "t_final=640"], threads=1)

    def test_memory_check_sizes_the_noise_chunk_by_bytes(self, monkeypatch):
        # A chunk of 4,096 steps would need 13.1 GB at 200,000 streams; the
        # engine draws 512 steps at that width, 1.6 GB.
        sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8 * 10**9 // 4096}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        resolve("ensemble", set_pairs=["n_samples=200000", "record_stride=4096", "dt=1e-4",
                                       "t_final=0.4096", "beta_list=1"])

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            resolve("kernel", config_path=tmp_path / "absent.cfg")


class TestDriver:
    def test_full_system_blowup_writes_its_file_then_raises(self, tmp_path):
        cfg = resolve("ensemble", set_pairs=("n_samples=4", "dt=0.2", "t_final=20"))
        out = tmp_path / "ens.csv"
        with pytest.raises(NumericalBlowupError) as info:
            RUNNERS["ensemble"](cfg, out)
        meta, header, _ = read_csv(out)
        assert header == []
        assert (meta["blowup_step"], meta["blowup_stream"], meta["blowup_beta"]) == (
            str(info.value.step), str(info.value.stream_id), f"{info.value.beta:g}")

    def test_labels_name_files_and_blowup_comments_give_exit_3(self, tmp_path):
        files = [(None, [("a", 1)], ["v"], [np.ones(2)]),
                 ("x", [("blowup_m_step", 4)], ["v"], [np.ones(1)])]
        out = tmp_path / "o.csv"
        assert run(lambda cfg, threads: None, lambda cfg, raw: files, {}, out) == 3
        assert read_csv(tmp_path / "o_x.csv")[0] == {"blowup_m_step": "4"}
        assert run(lambda cfg, threads: None, lambda cfg, raw: files[:1], {}, out) == 0


class TestCsvIO:
    def test_float_roundtrip_is_exact(self, tmp_path):
        values = np.array([math.pi, 1.0 / 3.0, 1e-300, -0.0, 8020.0])
        path = tmp_path / "t.csv"
        write_csv(path, [("a", 1)], ["v"], [values])
        _, header, data = read_csv(path)
        assert header == ["v"]
        assert np.array_equal(data[:, 0], values)

    def test_padding_becomes_nan(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [], ["a", "b"], [[1.0, 2.0, 3.0], [4.0]])
        _, _, data = read_csv(path)
        assert np.isnan(data[1:, 1]).all()
        assert data[0, 1] == 4.0

    def test_format_inf(self):
        assert format_value(math.inf) == "inf"
        assert format_value(-math.inf) == "-inf"
        assert format_value(True) == "true"


class TestLandscape:
    def test_grid_and_origin_row(self, tmp_path):
        out = tmp_path / "land.csv"
        res = run_cli(["landscape", "--out", str(out), "--set", "grid_points=21"])
        assert res.exit_code == 0
        meta, header, data = read_csv(out)
        assert header == ["x", "y", "V"]
        assert data.shape == (21 * 21, 3)
        origin = data[(data[:, 0] == 0.0) & (data[:, 1] == 0.0)]
        assert origin.shape[0] == 1 and origin[0, 2] == 0.0
        assert meta["grid_points"] == "21"
        assert "threads" not in meta and "out" not in meta

    def test_alternate_parameter_case(self, tmp_path):
        out = tmp_path / "land.csv"
        res = run_cli(["landscape", "--out", str(out), "--set", "grid_points=5",
                       "--set", "omega=4", "--set", "tau=0.2"])
        assert res.exit_code == 0
        meta, _, _ = read_csv(out)
        assert meta["omega"] == "4" and meta["tau"] == "0.20000000000000001"


class TestKernelExperiment:
    def test_columns_and_recomputable_summary(self, tmp_path):
        out = tmp_path / "k.csv"
        res = run_cli(["kernel", "--out", str(out), "--set", "n_samples=200",
                       "--set", "n_lags=24"])
        assert res.exit_code == 0
        meta, header, data = read_csv(out)
        assert header == ["s", "empirical", "stderr", "approx"]
        # approx column at s=0 equals the closed-form amplitude 8000
        assert data[0, 3] == pytest.approx(8000.0)
        # the summary is recomputable from the body alone
        rate = 20.0 * (1.0 + 4.0 * 100.0)
        refit = fit_decay_rate(data[:, 0], data[:, 1], s_max=2.0 / rate)
        assert refit == pytest.approx(float(meta["fitted_decay_rate"]), rel=1e-12)
        assert float(meta["theoretical_decay_rate"]) == -rate


class TestKernelMatrixExperiment:
    def test_two_conditioning_files(self, tmp_path):
        out = tmp_path / "m.csv"
        res = run_cli(["kernel-matrix", "--out", str(out), "--set", "n_samples=128",
                       "--set", "n_lags=12"])
        assert res.exit_code == 0
        for label in ("cos1", "cos0"):
            meta, header, data = read_csv(tmp_path / f"m_{label}.csv")
            assert header == ["s", "m11", "m12", "m21", "m22", "log_abs_m12"]
            with np.errstate(divide="ignore"):
                expected = np.log(np.abs(data[:, 2]))
            assert np.allclose(data[:, 5], expected, equal_nan=True)


class TestMeanTrajectoryExperiment:
    def test_blowup_truncation_and_exit_code(self, tmp_path):
        out = tmp_path / "mt.csv"
        res = run_cli([
            "mean-trajectory", "--out", str(out),
            "--set", "dt=0.001", "--set", "t_final=0.5",
            "--set", "n_samples=8", "--set", "record_stride=1",
        ])
        assert res.exit_code == 3  # naive-memory diverges and is truncated
        meta, header, data = read_csv(out)
        assert header[:3] == ["t", "full_mean", "full_stderr"]
        assert "naive-memory" in header
        assert "blowup_naive-memory_step" in meta
        naive = data[:, header.index("naive-memory")]
        assert np.isnan(naive[-1])  # truncated tail is blank
        # memory-free column relaxes like exp(-mu t): time-to-half ~ ln2/mu
        mf = data[:, header.index("memory-free")]
        assert time_to_half(data[:, 0], mf) == pytest.approx(math.log(2.0) / 2.0, rel=0.02)

    def test_without_naive_model_exits_clean(self, tmp_path):
        out = tmp_path / "mt.csv"
        res = run_cli([
            "mean-trajectory", "--out", str(out),
            "--set", "dt=0.001", "--set", "t_final=0.2", "--set", "n_samples=4",
            "--set", "models=memory-corrected,memory-free",
        ])
        assert res.exit_code == 0
        meta, header, _ = read_csv(out)
        assert header == ["t", "full_mean", "full_stderr", "memory-corrected", "memory-free"]
        assert not any(k.startswith("blowup") for k in meta)

    def test_full_system_blowup_names_stream(self, tmp_path):
        out = tmp_path / "mt.csv"
        res = run_cli([
            "mean-trajectory", "--out", str(out), "--set", "dt=1.5", "--set", "t_final=150",
            "--set", "n_samples=4", "--set", "models=memory-free",
        ])
        assert res.exit_code == 3
        meta, header, _ = read_csv(out)
        assert header == []
        assert (meta["blowup_step"], meta["blowup_stream"]) == ("8", "1")
        assert "blowup_beta" not in meta
        assert "numerical blowup at step 8 (stream 1);" in res.stderr

    def test_two_blocks_byte_identical_at_any_worker_count(self, tmp_path):
        # The models ride in the first of two stream blocks; naive-memory is
        # truncated, so both runs exit 3.
        args = ["mean-trajectory", "--set", "dt=0.001", "--set", "t_final=0.5",
                "--set", "n_samples=300"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a), "--threads", "1"]).exit_code == 3
        assert run_cli(args + ["--out", str(b), "--threads", "2"]).exit_code == 3
        assert a.read_bytes() == b.read_bytes()
        assert "blowup_naive-memory_step" in read_csv(a)[0]


class TestEnsembleExperiment:
    def test_per_beta_files_and_columns(self, tmp_path):
        out = tmp_path / "ens.csv"
        res = run_cli([
            "ensemble", "--out", str(out),
            "--set", "dt=0.001", "--set", "t_final=0.2",
            "--set", "n_samples=4", "--set", "beta_list=1,10",
        ])
        assert res.exit_code == 0
        for beta in ("1", "10"):
            meta, header, data = read_csv(tmp_path / f"ens_beta{beta}.csv")
            assert header == ["t", "full_mean", "full_stderr", "approx_mean",
                              "approx_stderr", "nomem_mean", "nomem_stderr"]
            assert meta["beta"] == beta
            assert data[0, 1] == data[0, 3] == data[0, 5]  # common start

    def test_files_echo_the_stability_ratios(self, tmp_path):
        # At the desk step dt = 1e-4: the full system's dt lam (1 + tau^2
        # omega^2), and the memory-corrected drift's dt (mu + 2 tau^2 omega^4
        # / beta) at a crest, beyond Euler's limit of 2 at beta = 1.
        out = tmp_path / "ens.csv"
        res = run_cli(["ensemble", "--out", str(out), "--set", "dt=1e-4",
                       "--set", "t_final=0.001", "--set", "n_samples=2"])
        assert res.exit_code == 0
        for beta, approx in (("1", 8.0002), ("10", 0.8002), ("100", 0.0802)):
            meta, _, _ = read_csv(tmp_path / f"ens_beta{beta}.csv")
            assert float(meta["stability_ratio_full"]) == pytest.approx(0.802, rel=1e-12)
            assert float(meta["stability_ratio_approx"]) == pytest.approx(approx, rel=1e-12)

    def test_files_do_not_depend_on_the_noise_chunk(self, tmp_path, monkeypatch):
        # Noise is addressed by position: a budget that cuts the chunk to 7
        # steps, the last of 50 short, moves no byte.
        args = ["ensemble", "--set", "dt=0.001", "--set", "t_final=0.05",
                "--set", "n_samples=300", "--set", "beta_list=1,10"]
        assert run_cli(args + ["--out", str(tmp_path / "a.csv")]).exit_code == 0
        monkeypatch.setattr(sde, "NOISE_CHUNK_BYTES", 16 * 300 * 7)
        monkeypatch.setattr(sde, "NOISE_CHUNK_FLOOR", 1)
        assert sde.noise_chunk_steps(300, 50) == 7
        assert run_cli(args + ["--out", str(tmp_path / "b.csv")]).exit_code == 0
        for beta in ("1", "10"):
            assert (tmp_path / f"a_beta{beta}.csv").read_bytes() == (
                tmp_path / f"b_beta{beta}.csv").read_bytes()


# Runs whose stream count, 301, no block count above one used below divides.
STREAMS_301 = {
    "ensemble": ["n_samples=301", "dt=0.001", "t_final=0.05", "beta_list=1,10"],
    "mean-trajectory": ["n_samples=301", "dt=0.001", "t_final=0.05",
                        "models=memory-free,naive-memory"],
}


def _in_blocks(width, layout):
    """A ``map_stream_blocks`` that runs the worker serially on blocks of
    ``width`` streams, each result's arrays put in ``layout`` and sent
    through pickle, as worker results are."""
    def arrange(x):
        if isinstance(x, np.ndarray):
            return layout(x)
        if isinstance(x, (list, tuple)):
            return type(x)(map(arrange, x))
        return x

    def in_blocks(worker, n_items, threads=1):
        return [pickle.loads(pickle.dumps(arrange(worker(a, min(a + width, n_items)))))
                for a in range(0, n_items, width)]

    return in_blocks


def _file_bytes(files):
    return [(label, comments, header, [np.asarray(c).tobytes() for c in columns])
            for label, comments, header, columns in files]


def _files_at(experiment, cfg, threads, out_dir):
    out = out_dir / str(threads) / "o.csv"
    out.parent.mkdir(parents=True)
    RUNNERS[experiment](cfg, out, threads=threads)
    return {path.name: path.read_bytes() for path in out.parent.iterdir()}


class TestStreamStatistics:
    """The stream statistics sum along a contiguous stream axis, so their
    bits depend neither on how the streams are split into blocks, nor on the
    layout in which the blocks arrive, nor on how the records are cut into
    record blocks: one block of every stream reduces its records as the
    engine records them, several are joined a record block at a time."""

    @pytest.mark.parametrize("experiment", sorted(STREAMS_301))
    def test_blocks_of_any_width_and_layout_reduce_alike(self, experiment, monkeypatch):
        cfg = resolve(experiment, set_pairs=STREAMS_301[experiment])
        simulate, reduce = RUNNERS[experiment].args
        # One block, as --threads 1 gives it: reduced by the engine's sink.
        want = _file_bytes(reduce(cfg, simulate(cfg, 1)))
        # A stream-first layout would make a sum along the streams add them
        # one after another.
        for layout in (np.asarray, np.asfortranarray):
            for width in (1, 7, 8, 9, 127, 128, 129, 257):
                monkeypatch.setattr(mzcg.experiments, "map_stream_blocks",
                                    _in_blocks(width, layout))
                assert _file_bytes(reduce(cfg, simulate(cfg, 1))) == want, (layout, width)

    @pytest.mark.parametrize("experiment, block_records", [
        *(pytest.param(name, None, id=name) for name in sorted(STREAMS_301)),
        *(pytest.param(name, k, id=f"{name}-{k}-record-blocks")
          for name in sorted(STREAMS_301) for k in (1, 3)),
    ])
    def test_files_byte_identical_at_any_block_count(
        self, experiment, block_records, tmp_path, monkeypatch
    ):
        if block_records is None:
            cfg = resolve(experiment, set_pairs=STREAMS_301[experiment])
            outputs = [_files_at(experiment, cfg, threads, tmp_path) for threads in (1, 2, 3, 8)]
        else:
            # 26 records, which blocks of 3 do not divide; the budget holds
            # block_records records of every stream, in the engine's one
            # block and in the joined blocks of several.
            cfg = resolve(experiment, set_pairs=STREAMS_301[experiment] + ["record_stride=2"])
            assert IntegratorConfig(cfg["dt"], cfg["t_final"], 2).n_records == 26
            components = 3 * len(cfg["beta_list"]) if experiment == "ensemble" else 1
            outputs = [_files_at(experiment, cfg, 1, tmp_path / "default")]
            monkeypatch.setattr(sde, "RECORD_BLOCK_BYTES",
                                block_records * 8 * components * cfg["n_samples"])
            outputs += [_files_at(experiment, cfg, threads, tmp_path) for threads in (1, 2, 3)]
        assert len(outputs[0]) == (2 if experiment == "ensemble" else 1)
        assert all(files == outputs[0] for files in outputs)

    @pytest.mark.parametrize("experiment, n_samples", [("ensemble", 4),
                                                       ("mean-trajectory", 64)])
    def test_one_block_holds_no_more_per_record_than_its_memory_bound(
            self, monkeypatch, experiment, n_samples):
        # numpy reports its buffers to tracemalloc, and Python its floats.
        # Between two horizons, the peak of a whole run, its files written,
        # grows by at most what the one-block bound adds per record.  Both
        # horizons fill the engine's record block (3,640 and 2,048 records
        # here) and the writer's block of rows, shortened to 1,024.
        monkeypatch.setattr(csvio, "BLOCK_ROWS", 1024)

        def peak_and_bound(t_final):
            cfg = resolve(experiment, set_pairs=[f"n_samples={n_samples}", "record_stride=1",
                                                 f"t_final={t_final}"], desk_scale=True)
            with tempfile.TemporaryDirectory() as tmp:
                tracemalloc.start()
                try:
                    RUNNERS[experiment](cfg, os.path.join(tmp, "o.csv"))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            return peak, _array_bytes(experiment, cfg, 1)[0]

        (peak_a, bound_a), (peak_b, bound_b) = peak_and_bound(0.5), peak_and_bound(1)
        assert 0 < peak_b - peak_a <= bound_b - bound_a

    def test_one_block_never_holds_every_record(self):
        # numpy reports its buffers to tracemalloc.  The one block of every
        # stream hands each record block of about RECORD_BLOCK_BYTES to the
        # statistics as it fills, so what it holds at once is the noise
        # chunk (3.3 MB here), the statistics (1.4 MB) and a record block
        # with its reduction's temporaries, not the 36 MB of records.
        cfg = resolve("ensemble", set_pairs=["n_samples=50", "t_final=1", "record_stride=1"],
                      desk_scale=True)
        n_records = IntegratorConfig(cfg["dt"], cfg["t_final"], 1).n_records
        record_bytes = 8 * 3 * len(cfg["beta_list"]) * cfg["n_samples"] * n_records
        assert record_bytes > 30 * 2**20
        simulate, _ = RUNNERS["ensemble"].args
        tracemalloc.start()
        try:
            simulate(cfg, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < record_bytes / 2


class TestStationaryExperiment:
    def test_histogram_normalisation(self, tmp_path):
        out = tmp_path / "st.csv"
        res = run_cli([
            "stationary", "--out", str(out),
            "--set", "n_samples=16", "--set", "t_main=0.3", "--set", "t_resid=0.05",
        ])
        assert res.exit_code == 0
        meta, header, data = read_csv(out)
        assert header == ["bin_center", "x_density", "gaussian_density"]
        width = data[1, 0] - data[0, 0]
        assert (data[:, 1] * width).sum() == pytest.approx(1.0, abs=0.02)
        assert float(meta["x_variance_target"]) == pytest.approx(0.5)

    def test_far_reference_density_is_zero_without_warning(self, tmp_path):
        # The bins lie so far out that the reference Gaussian's square overflows.
        out = tmp_path / "st.csv"
        res = run_cli(["stationary", "--out", str(out), "--set", "hist_halfwidth=1e200",
                       "--set", "n_samples=3", "--set", "t_main=0.01", "--set", "t_resid=0.01"])
        assert res.exit_code == 0 and res.stderr == ""
        assert (read_csv(out)[2][:, 2] == 0.0).all()

    @pytest.mark.parametrize("t_main, step, block, dt_main", [
        # Ids name each case by its t_main.  Two blocks of 256 streams.  The residual phase (streams 512..1023)
        # blows up at step 12 in both blocks; the main phase blows up at step
        # 116, its last, in the second block only, and a main-phase blowup is
        # reported before any residual-phase one.  Which stream of a block
        # leaves range first is rounding chaos at these steps (it differs
        # between numpy's AVX-512 and AVX2 kernels), so the stream is checked
        # against an in-process run of one block.
        pytest.param("12.76", 116, range(256, 512), "0.1101", id="12.76-expected0"),
        # Main phase clean: the first block's residual blowup is reported.
        pytest.param("0.11", 12, range(512, 768), "0.11", id="0.11-expected1"),
    ])
    def test_blowup_reported_alike_at_any_worker_count(
        self, tmp_path, t_main, step, block, dt_main
    ):
        out = tmp_path / "st.csv"
        pairs = ["n_samples=512", f"dt_main={dt_main}", f"t_main={t_main}",
                 "stride_main=1", "dt_resid=0.5", "t_resid=20", "stride_resid=1"]
        with pytest.raises(NumericalBlowupError) as info:
            simulate_stationary(resolve("stationary", set_pairs=pairs), 1)
        err = info.value
        assert (err.step, err.stream_id in block, err.beta) == (step, True, 1.0)
        expected = (str(step), str(err.stream_id), "1")
        args = ["stationary", "--out", str(out)]
        for pair in pairs:
            args += ["--set", pair]
        seen = []
        for threads in ("1", "2"):
            res = run_cli(args + ["--threads", threads])
            assert res.exit_code == 3
            meta, _, _ = read_csv(out)
            assert (meta["blowup_step"], meta["blowup_stream"], meta["blowup_beta"]) == expected
            seen.append(res.stderr)
        assert seen[0] == seen[1]


class TestCLIContract:
    def test_kernel_rerun_byte_identical(self, tmp_path):
        args = ["kernel", "--set", "n_samples=64", "--set", "n_lags=8", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]).exit_code == 0
        assert run_cli(args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_key_is_config_error(self, tmp_path):
        res = run_cli(["kernel", "--out", str(tmp_path / "k.csv"), "--set", "nope=1"])
        assert res.exit_code == 2

    def test_bad_config_file_is_config_error(self, tmp_path):
        res = run_cli(["kernel", "--config", str(tmp_path / "absent.cfg")])
        assert res.exit_code == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["mean-trajectory", "--set", "dt=0.001", "--set", "t_final=0.05",
                "--set", "n_samples=600", "--set", "models=memory-free", "--seed", "3"]
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert run_cli(args + ["--out", str(a), "--threads", "1"]).exit_code == 0
        assert run_cli(args + ["--out", str(b), "--threads", "1"]).exit_code == 0
        assert run_cli(args + ["--out", str(c), "--threads", "3"]).exit_code == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    @staticmethod
    def four_usable_cpus(monkeypatch):
        """Let --threads 4 run four stream blocks on any machine (it is
        capped at the usable CPUs); returns the block counts run."""
        monkeypatch.setattr(mzcg.cli, "_usable_cpus", lambda: 4)
        counts = []

        def counted(worker, n_items, threads=1):
            blocks = sde.map_stream_blocks(worker, n_items, threads)
            counts.append(len(blocks))
            return blocks

        monkeypatch.setattr(mzcg.experiments, "map_stream_blocks", counted)
        return counts

    def test_thermostatted_threads_byte_identical(self, tmp_path, monkeypatch):
        blocks = self.four_usable_cpus(monkeypatch)
        args = ["ensemble", "--set", "dt=0.001", "--set", "t_final=0.05",
                "--set", "n_samples=300", "--set", "beta_list=1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a), "--threads", "1"]).exit_code == 0
        assert run_cli(args + ["--out", str(b), "--threads", "4"]).exit_code == 0
        assert blocks == [1, 4]
        assert (tmp_path / "a_beta1.csv").read_bytes() == (tmp_path / "b_beta1.csv").read_bytes()

    def test_thermostatted_threads_byte_identical_several_betas(self, tmp_path, monkeypatch):
        # Four stream blocks, each integrating both betas in one batch.
        blocks = self.four_usable_cpus(monkeypatch)
        args = ["ensemble", "--set", "dt=0.001", "--set", "t_final=0.05",
                "--set", "n_samples=300", "--set", "beta_list=1,10"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a), "--threads", "1"]).exit_code == 0
        assert run_cli(args + ["--out", str(b), "--threads", "4"]).exit_code == 0
        assert blocks == [1, 4]
        for beta in ("1", "10"):
            assert (tmp_path / f"a_beta{beta}.csv").read_bytes() == (
                tmp_path / f"b_beta{beta}.csv"
            ).read_bytes()

    def test_ensemble_blowup_names_stream_and_beta(self, tmp_path):
        out = tmp_path / "ens.csv"
        res = run_cli(["ensemble", "--out", str(out), "--set", "dt=0.2",
                       "--set", "t_final=20", "--set", "n_samples=4"])
        assert res.exit_code == 3
        meta, _, _ = read_csv(out)
        assert meta["blowup_step"] == "22"
        assert meta["blowup_stream"] == "1"
        assert meta["blowup_beta"] == "1"
        assert "step 22 (stream 1, beta 1)" in res.output
        # Every beta steps in one batch, so a blowup leaves no per-beta file.
        assert not list(tmp_path.glob("ens_beta*.csv"))

    def test_blowup_reported_alike_at_any_worker_count(self, tmp_path):
        # Two stream blocks that both blow up at step 22: the error must come
        # from the first block, as in a serial run.
        out = tmp_path / "ens.csv"
        args = ["ensemble", "--out", str(out), "--set", "n_samples=300",
                "--set", "dt=0.2", "--set", "t_final=10"]
        seen = []
        for threads in ("1", "2"):
            res = run_cli(args + ["--threads", threads])
            assert res.exit_code == 3
            meta, _, _ = read_csv(out)
            assert (meta["blowup_step"], meta["blowup_stream"], meta["blowup_beta"]) == (
                "22", "1", "1"
            )
            seen.append(res.stderr)
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("blowup", [False, True], ids=["no-blowup", "blowup"])
    def test_unwritable_output_is_io_error(self, tmp_path, blowup):
        # dt = 0.2 blows up at step 22; either way the file cannot be written.
        window = ["dt=0.2", "t_final=20"] if blowup else ["dt=0.01", "t_final=0.1"]
        args = ["ensemble", "--out", str(tmp_path / "missing" / "ens.csv"),
                "--set", "n_samples=4"]
        res = run_cli(args + [arg for pair in window for arg in ("--set", pair)])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("io error:")

    def test_threads_below_one_is_usage_error(self, tmp_path):
        res = run_cli(["landscape", "--out", str(tmp_path / "l.csv"), "--threads", "0"])
        assert res.exit_code == 2
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("affinity, cpu_count, asked, used", [
        ({0, 1}, 64, 8, 2),
        ({0, 1}, 64, 1, 1),
        ({0, 1, 2, 3}, 2, 3, 3),
        (None, 3, 8, 3),
        (None, None, 8, 1),
    ])
    def test_threads_capped_at_usable_cpus(
        self, tmp_path, monkeypatch, affinity, cpu_count, asked, used
    ):
        # The CPU count is patched and the runner replaced, so no worker starts.
        seen = []

        def runner(cfg, out, threads=1):
            seen.append(threads)
            return 0

        monkeypatch.setitem(mzcg.experiments.RUNNERS, "landscape", runner)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        res = run_cli(["landscape", "--out", str(tmp_path / "l.csv"), "--threads", str(asked)])
        assert res.exit_code == 0
        assert seen == [used]

    @pytest.mark.parametrize("cpus, code", [(1, 0), (2, 2)])
    def test_memory_check_takes_the_capped_worker_count(self, tmp_path, monkeypatch, cpus,
                                                        code):
        # --threads 4 runs one stream block on one usable CPU, which holds the
        # 5.4 GB of statistics of a full-scale ensemble that records every
        # step, on a machine of 8 GB; two blocks hold 1,152 GB of records.
        # The runner is replaced, so nothing runs.
        sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8 * 10**9 // 4096}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        monkeypatch.setattr(mzcg.cli, "_usable_cpus", lambda: cpus)
        seen = []

        def runner(cfg, out, threads=1):
            seen.append(threads)
            return 0

        monkeypatch.setitem(mzcg.experiments.RUNNERS, "ensemble", runner)
        res = run_cli(["ensemble", "--set", "record_stride=1", "--threads", "4",
                       "--out", str(tmp_path / "e.csv")])
        assert res.exit_code == code
        assert seen == ([1] if code == 0 else [])

    @pytest.mark.parametrize("args", [
        ["kernel", "--set", "omega=0"],
        ["kernel", "--set", "dt=inf"],
        ["kernel", "--set", "n_lags=1"],
        ["kernel", "--set", "x0=nan"],
        ["kernel", "--set", "lambda=0"],
        ["kernel", "--set", "tau=0"],
        ["kernel-matrix", "--set", "omega=0"],
        ["ensemble", "--set", "omega=0"],
        ["ensemble", "--set", "beta_list=1,nan"],
        ["mean-trajectory", "--set", "t_final=inf"],
        ["kernel", "--set", "lag_efolds=0"],
        ["kernel", "--set", "lag_efolds=-1"],
        ["kernel-matrix", "--set", "lag_efolds=-1"],
        ["stationary", "--set", "hist_halfwidth=-1"],
        ["stationary", "--set", "hist_halfwidth=0"],
        ["mean-trajectory", "--set", "t_final=0.001", "--set", "dt=0.01"],
        ["ensemble", "--set", "t_final=0.001", "--set", "dt=0.01"],
        ["stationary", "--set", "t_main=0.001", "--set", "dt_main=0.01"],
        ["kernel", "--set", "dt=1"],
        ["kernel", "--set", "omega=1e-320"],
        ["kernel-matrix", "--set", "omega=1e-320"],
        ["ensemble", "--set", "omega=1e-320"],
        ["kernel", "--set", "lambda=1e308"],
        ["kernel", "--set", "tau=1e200"],
        ["stationary", "--set", "beta=1e-320"],
        ["kernel", "--set", "dt=1e-323", "--set", "lag_efolds=1e-319", "--set", "n_samples=2"],
        ["kernel-matrix", "--set", "dt=1e-323", "--set", "lag_efolds=1e-319",
         "--set", "n_samples=2"],
        # Subnormal and tiny normal lags, whose squares underflow in the fit.
        ["kernel", "--set", "dt=1e-320", "--set", "lag_efolds=1e-314", "--set", "n_samples=2",
         "--set", "n_lags=3"],
        ["kernel", "--set", "dt=2e-165", "--set", "lag_efolds=8.02e-160", "--set", "n_samples=2",
         "--set", "n_lags=3"],
        # omega x0 overflows to inf, whose cosine is nan (math.cos would raise).
        pytest.param(["kernel", "--set", "x0=1e308"], id="x0-overflow"),
        # Arrays beyond physical memory, e.g. 17 TB of statistics for an
        # ensemble that records each of 1e11 steps, even in one stream block;
        # each fails before anything is allocated.
        pytest.param(["ensemble", "--set", "record_stride=1", "--set", "t_final=1e6"],
                     id="records-exceed-memory"),
        ["mean-trajectory", "--set", "record_stride=1", "--set", "t_final=1e6"],
        ["stationary", "--set", "stride_main=1", "--set", "n_samples=10000000"],
        ["kernel", "--set", "n_samples=100000000000"],
        ["landscape", "--set", "grid_points=10000000"],
        # A byte count beyond the floats.
        pytest.param(["kernel", "--set", "n_lags=1" + "0" * 400], id="bytes-beyond-floats"),
        # One sample has no standard error.
        pytest.param(["ensemble", "--set", "n_samples=1", "--set", "dt=0.01",
                      "--set", "t_final=0.1"], id="ensemble-one-sample"),
        pytest.param(["mean-trajectory", "--set", "n_samples=1", "--set", "dt=0.01",
                      "--set", "t_final=0.1"], id="mean-trajectory-one-sample"),
        # Entries that would name the same output file or column.
        pytest.param(["ensemble", "--set", "beta_list=1,1.0000001", "--set", "t_final=0.01",
                      "--set", "n_samples=3"], id="betas-with-one-file-name"),
        pytest.param(["ensemble", "--set", "beta_list=1,1", "--set", "t_final=0.01",
                      "--set", "n_samples=3"], id="repeated-beta"),
        pytest.param(["mean-trajectory", "--set", "models=memory-free,memory-free",
                      "--set", "t_final=0.01", "--set", "n_samples=3"], id="repeated-model"),
        # Derived values that overflow: the valley's phase omega x0, the drift
        # constants tau^2 omega^2 and lambda tau omega, and the landscape's potential.
        pytest.param(["ensemble", "--set", "x0=1e308"], id="omega-x0-overflow"),
        pytest.param(["ensemble", "--set", "tau=1e200"], id="tau2-omega2-overflow"),
        pytest.param(["mean-trajectory", "--set", "omega=1e308"], id="drift-constants-overflow"),
        pytest.param(["landscape", "--set", "x_min=-1e300", "--set", "x_max=1e300",
                      "--set", "grid_points=3"], id="potential-overflow"),
        # omega times the widest equilibrium start draw overflows; tau = 0
        # leaves every drift constant finite.
        pytest.param(["stationary", "--set", "tau=0", "--set", "omega=1e308",
                      "--set", "n_samples=100"], id="start-phase-overflow"),
        # A histogram beyond physical memory.
        pytest.param(["stationary", "--set", "bins=9007199254740993", "--set", "t_main=0.01",
                      "--set", "t_resid=0.01"], id="bins-exceed-memory"),
        # Kernels that vanish in floating point: the lag-0 product underflows,
        # or the Gibbs spread of the samples is lost against tau.
        pytest.param(["kernel", "--set", "tau=1e-200"], id="kernel-underflows"),
        pytest.param(["kernel", "--set", "beta=1e300", "--set", "n_samples=20",
                      "--set", "n_lags=5"], id="kernel-spread-lost"),
        # Two lags end the grid at s_max / 100, here below one step.
        pytest.param(["kernel", "--set", "n_lags=2", "--set", "lag_efolds=4"],
                     id="two-lags-below-one-step"),
        # The first positive lag, lag_efolds / 100 decay times, lies beyond
        # the decay fit's window of 2 decay times.
        pytest.param(["kernel", "--set", "lag_efolds=200.0001", "--set", "n_samples=4",
                      "--set", "n_lags=3"], id="first-lag-beyond-fit-window"),
        # The kernel sampler marches y / tau, which tau = 0 leaves undefined
        # and a subnormal tau overflows.
        pytest.param(["kernel-matrix", "--set", "tau=0"], id="kernel-matrix-flat-valley"),
        pytest.param(["kernel-matrix", "--set", "tau=1e-310"],
                     id="kernel-matrix-y-over-tau-overflows"),
    ])
    def test_invalid_inputs_are_config_errors(self, tmp_path, args):
        res = run_cli(args + ["--out", str(tmp_path / "o.csv")])
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    def test_first_lag_on_the_fit_window_edge_runs(self, tmp_path):
        # lag_efolds = 200 puts the first positive lag at 2 decay times, the
        # last lag the decay fit takes.
        res = run_cli(["kernel", "--set", "lag_efolds=200", "--set", "n_samples=4",
                       "--set", "n_lags=3", "--out", str(tmp_path / "o.csv")])
        assert res.exit_code == 0, res.output
        assert res.stderr == ""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(EXPERIMENTS).flatmap(lambda e: st.tuples(
        st.just(e), st.sampled_from(sorted(KEYS[e])), st.sampled_from(EDGE_VALUES))))
    def test_runs_on_edge_values_end_as_the_contract_says(self, case):
        # Exit 0 silently, or exit 2 or 3 with one line; never a traceback or a
        # warning, except the documented lam/mu advisory.
        experiment, key, value = case
        args = [experiment]
        for pair in TINY[experiment] + [f"{key}={value}"]:
            args += ["--set", pair]
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            res = run_cli(args + ["--out", os.path.join(tmp, "o.csv")])
        assert res.exit_code in (0, 2, 3), res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert len(res.stderr.splitlines()) == (0 if res.exit_code == 0 else 1)
        assert [str(w.message) for w in seen if "lam/mu" not in str(w.message)] == []

    @pytest.mark.parametrize("args, where", [
        (["ensemble", "--set", "x0=1e200", "--set", "t_final=0.01", "--set", "n_samples=3"],
         "step 1 (stream 0, beta 1)"),
        (["mean-trajectory", "--set", "x0=1e200", "--set", "t_final=0.01",
          "--set", "n_samples=3"], "step 1 (stream 0)"),
    ], ids=["ensemble", "mean-trajectory"])
    def test_blowup_with_overflowing_squares_prints_one_line(self, tmp_path, args, where):
        # In a child process, so that a numpy warning would reach stderr.
        src = str(Path(mzcg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run(
            [sys.executable, "-m", "mzcg.cli", *args, "--out", str(tmp_path / "o.csv")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert res.returncode == 3
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and f"numerical blowup at {where};" in lines[0]

    @pytest.mark.parametrize("args", [
        ["mean-trajectory", "--set", "t_final=1e300"],
        ["kernel", "--set", "lag_efolds=1e300"],
        ["mean-trajectory", "--set", "t_final=1e300", "--set", "dt=1e-10"],
        ["stationary", "--set", "t_main=1e300"],
    ])
    def test_step_counts_that_cannot_run_are_config_errors(self, tmp_path, args):
        # In a child process with a timeout: these runs used to hang.
        src = str(Path(mzcg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run(
            [sys.executable, "-m", "mzcg.cli", *args, "--out", str(tmp_path / "o.csv")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert res.returncode == 2
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "2**53 steps" in lines[0]
