"""Definitions shared by the benchmark's command, worker and self-test.

The benchmark lives beside the program it measures and imports it from
``src/`` of the same checkout. Nothing here imports numpy or avsep, so
run.py can validate its arguments and the checkout before any worker runs.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "avsep" / "__init__.py"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("separate-full", "train-toy", "gradcheck")

# Inputs are drawn from ``seed % N_INPUT_SETS``: a reference output is kept
# for each of these input sets, so every run can be checked against one.
N_INPUT_SETS = 32

# Toy training runs a fixed step count. The target SI-SNRi is unreachable
# and both patiences exceed the step count, so the run length never depends
# on convergence.
TRAIN_STEPS = 40
TRAIN_STEPS_PER_EPOCH = 10

# Fewest timed calls of each kind after the first call of a run. A traced
# run makes exactly this many, so its per-layer totals cover the same work
# on every run. separate-full makes "full" then "fast" calls; the other
# workloads make "steady" calls.
MIN_CALLS = {"full": 2, "fast": 2, "steady": 2}

# Share of the time left after the first call that separate-full spends on
# full-cycle calls before it switches to --fast calls.
FULL_SHARE = 0.6

# Set-up is timed several times in a run: SETUP_TRIALS checkpoint loads
# before the first call, and on the timed plan one fresh-interpreter import
# (and, for train-toy, one build_params) after every call. Spreading the
# trials over the run keeps setup_s from depending on the host's speed in
# the run's first second alone.
SETUP_TRIALS = 3

# Correctness tolerances, fixed when the references were generated.
SKETCH_DIM = 32
SKETCH_SEED = 2308
SEPARATE_REL_TOL = 1e-4  # relative L2 error of the waveform sketch
TRAIN_SNRI_TOL_DB = 0.25  # absolute error of the final SI-SNRi

# Workloads whose traced run checks, for every ``separate`` call, that the
# conv MACs summed from the wrapped calls equal ``count_macs`` plus the
# video-stub MACs it leaves out. gradcheck is not among them: its fixed
# inputs carry 4 video frames for 40 samples, off the 25 fps grid that
# ``count_macs`` assumes.
MAC_CROSS_CHECK = ("separate-full", "train-toy")

SGEMM_SHAPE = (512, 2560, 1000)  # im2col matmul of the first audio down-conv


def blas_threads() -> int:
    """BLAS threads for the worker processes: two, or fewer on a smaller box."""
    return max(1, min(2, nproc()))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def input_seed(seed: int) -> int:
    return seed % N_INPUT_SETS


def worker_env() -> dict[str, str]:
    """Environment of every child process: pinned BLAS threads and this
    checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    n = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the measured code
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "avsep").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else None


# End-to-end metrics with a regression bound in BENCHMARK.json. Every
# workload reports each of them, defined through the workload's own call:
# ``call_s`` is the mean time of one ``separate`` call at the full cycle
# count, of one training step, or of one ``checks.run_all()``, over the calls
# after the first. The host runs identical calls up to 1.8x slower in phases
# of 20-40 s, so a run's call times cluster round two speeds; the mean moves
# less from run to run than the median, which jumps between the clusters.
# For the same reason the first call of a run, a single sample, cannot meet
# any bound of at most 25%: it is recorded (as ``separate_first_s``) but not
# gated.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("call_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Each workload's own end-to-end metrics, by their workload-specific names.
# They are printed and recorded with every untraced run; the gated metrics
# above are the ones that exist on every workload.
WORKLOAD_METRICS = {
    "separate-full": (
        ("setup_s", "s", "lower"),
        ("separate_first_s", "s", "lower"),
        ("separate_s", "s", "lower"),
        ("separate_fast_s", "s", "lower"),
        ("peak_rss_mb", "MB", "lower"),
        ("fail_ratio", "ratio", "lower"),
    ),
    "train-toy": (
        ("setup_s", "s", "lower"),
        ("train_step_s", "s", "lower"),
        ("train_si_snri_db", "dB", "higher"),
        ("peak_rss_mb", "MB", "lower"),
        ("fail_ratio", "ratio", "lower"),
    ),
    "gradcheck": (
        ("setup_s", "s", "lower"),
        ("gradcheck_s", "s", "lower"),
        ("peak_rss_mb", "MB", "lower"),
        ("fail_ratio", "ratio", "lower"),
    ),
}

# Per-layer metrics of a traced run. ``_s`` is self time for the op layers
# (tensor, nn, data) and inclusive time for the composite layers (blocks,
# model, metrics, trainer); ``_calls`` is a count. ``<layer>.self_s`` is
# the self time of every span of one layer: the eight of them plus
# ``unattributed_s`` add up to ``traced_wall_s``, and the run checks that.
PER_LAYER = (
    ("tensor.sigmoid_s", "s", "lower"),
    ("tensor.elementwise_s", "s", "lower"),
    ("tensor.backward_s", "s", "lower"),
    ("tensor.op_calls", "count", "lower"),
    ("tensor.fd_grad_s", "s", "lower"),
    ("nn.conv1d_s", "s", "lower"),
    ("nn.conv1d_calls", "count", "lower"),
    ("nn.conv1d_gmac_per_s", "GMAC/s", "higher"),
    ("nn.conv1d_bwd_s", "s", "lower"),
    ("nn.conv_transpose1d_s", "s", "lower"),
    ("nn.conv_transpose1d_bwd_s", "s", "lower"),
    ("nn.gln_s", "s", "lower"),
    ("nn.gln_bwd_s", "s", "lower"),
    ("nn.interp_resample_s", "s", "lower"),
    ("nn.interp_resample_bwd_s", "s", "lower"),
    ("nn.avg_pool1d_s", "s", "lower"),
    ("nn.out_bytes", "bytes", "lower"),
    ("blocks.inter_a_t_s", "s", "lower"),
    ("blocks.top_down_pass_s", "s", "lower"),
    ("blocks.inter_a_m_s", "s", "lower"),
    ("blocks.intra_a_global_s", "s", "lower"),
    ("blocks.inter_a_b_s", "s", "lower"),
    ("model.load_checkpoint_s", "s", "lower"),
    ("model.build_params_s", "s", "lower"),
    ("model.encode_audio_s", "s", "lower"),
    ("model.audio_only_cycle_s", "s", "lower"),
    ("model.separation_features_s", "s", "lower"),
    ("model.macs", "MAC", "lower"),
    ("model.gmac_per_s", "GMAC/s", "higher"),
    ("metrics.si_snr_loss_s", "s", "lower"),
    ("metrics.si_snri_s", "s", "lower"),
    ("data.load_wav_s", "s", "lower"),
    ("data.load_embedding_s", "s", "lower"),
    ("data.save_wav_s", "s", "lower"),
    ("data.energy_envelope_s", "s", "lower"),
    ("trainer.forward_s", "s", "lower"),
    ("trainer.backward_s", "s", "lower"),
    ("trainer.clip_s", "s", "lower"),
    ("trainer.adam_s", "s", "lower"),
    ("checks.fd_evals", "count", "lower"),
    ("checks.max_rel_err", "ratio", "lower"),
    ("blas.sgemm_gmac_per_s", "GMAC/s", "higher"),
    ("trace_overhead_ratio", "ratio", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in
      ("tensor", "nn", "blocks", "model", "metrics", "data", "trainer", "checks")),
    ("unattributed_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
)
