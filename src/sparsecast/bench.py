"""Attention-kernel microbenchmark: wall time, exact dot-product counters,
and transient score-buffer bytes.

One record covers one (kernel, batch, seq_len) cell at fixed heads and
head width.  Inputs are seeded standard-normal tensors shaped
(batch, seq_len, heads, dims); each repeat times a full pass over every
batch item and head.  Counters are exact and identical across repeats;
the reported wall time is the lower median (a real repeat, no smoothing),
and the three phase times (scoring / selection / aggregation) come from
that repeat.  A cell that cannot allocate is recorded with -1 fields and the
sweep continues.
"""

import csv
import io
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .attention import KINDS, ScoreBudget, attend_kind, counting
from .layers import uniform_init
from .tensor import Tensor, no_grad

# The default sweep is the unmasked kinds; a kernel's index in ``KINDS``
# seeds its cells, so the masked (decoder) kinds stay after them.
BENCH_KERNELS = KINDS[:3]
CSV_HEADER = ["kernel", "batch", "seq_len", "heads", "dims", "median_ns",
              "dot_products", "peak_bytes", "t1_ns", "t2_ns", "t3_ns"]
DEFAULT_BATCHES = (1, 4, 16, 32, 64)
DEFAULT_SEQ_LENS = (64, 128, 256, 512, 768, 1024)


@dataclass
class BenchRecord:
    kernel: str
    batch: int
    seq_len: int
    heads: int
    dims: int
    median_ns: int
    dot_products: int
    peak_bytes: int
    t1_ns: int
    t2_ns: int
    t3_ns: int
    failed: bool = False

    def csv_row(self):
        return [self.kernel, self.batch, self.seq_len, self.heads, self.dims,
                self.median_ns, self.dot_products, self.peak_bytes,
                self.t1_ns, self.t2_ns, self.t3_ns]


def _run_once(kernel: str, q: np.ndarray, k: np.ndarray, v: np.ndarray,
              c: float, score_kernel, score_bias, rng_seed: int):
    """One full pass over a (batch, L, heads, dims) input; returns
    (elapsed_ns, budget)."""
    batch, L, heads, dims = q.shape
    rng = np.random.default_rng(rng_seed)
    with counting(ScoreBudget()) as budget:
        start = time.perf_counter_ns()
        for b in range(batch):
            q_full, k_full, v_full = (Tensor(x[b].reshape(L, heads * dims)) for x in (q, k, v))
            attend_kind(kernel, q_full, k_full, v_full, heads, c, score_kernel=score_kernel,
                        score_bias=score_bias, rng=rng)
        elapsed = time.perf_counter_ns() - start
    return elapsed, budget


def check_bench_args(batches, seq_lens, kernels, heads: int, dims: int, repeats: int,
                     warmup: int, c: float, seed: int) -> None:
    """Reject a sweep setting before any cell runs, with a ``ValueError``
    whose message starts with the argument's name."""
    for name, values in (("batches", batches), ("seq_lens", seq_lens)):
        if not values or min(values) < 1:
            raise ValueError(f"{name}: must list integers >= 1, got {list(values)}")
    if not kernels or not set(kernels) <= set(KINDS):
        raise ValueError(f"kernels: must list kernels among {list(KINDS)}, "
                         f"got {list(kernels)}")
    for name, value, low in (("heads", heads, 1), ("dims", dims, 1), ("repeats", repeats, 1),
                             ("warmup", warmup, 0), ("c", c, 1), ("seed", seed, 0)):
        if value < low:
            raise ValueError(f"{name}: must be >= {low}, got {value}")


def bench_attention(batches=DEFAULT_BATCHES, seq_lens=DEFAULT_SEQ_LENS,
                    kernels=BENCH_KERNELS, heads: int = 8, dims: int = 64,
                    repeats: int = 5, warmup: int = 2, c: float = 5.0,
                    seed: int = 0) -> list:
    """Sweep the benchmark grid and return one record per cell.

    Runs single-threaded in a fixed order so cells do not contend; the
    random inputs and the sampling seed are derived per cell, making
    counters reproducible run to run.
    """
    check_bench_args(batches, seq_lens, kernels, heads, dims, repeats, warmup, c, seed)
    records = []
    with no_grad():
        for kernel in kernels:
            for batch in batches:
                for L in seq_lens:
                    cell_seed = np.random.SeedSequence(
                        [seed, KINDS.index(kernel), batch, L]
                    ).generate_state(1)[0]
                    rng = np.random.default_rng(cell_seed)
                    try:
                        q = rng.standard_normal((batch, L, heads, dims))
                        k = rng.standard_normal((batch, L, heads, dims))
                        v = rng.standard_normal((batch, L, heads, dims))
                        score_kernel = Tensor(uniform_init(rng, (heads, heads * dims, 3),
                                                           heads * dims * 3))
                        score_bias = Tensor(np.zeros(heads))
                        runs = []
                        for rep in range(warmup + repeats):
                            result = _run_once(kernel, q, k, v, c, score_kernel,
                                               score_bias, cell_seed + 1)
                            if rep >= warmup:
                                runs.append(result)
                        budgets = {r[1].dot_products_materialized for r in runs}
                        if len(budgets) != 1:
                            raise RuntimeError("nondeterministic dot-product counter")
                        # the lower median is a real repeat: its phases fit in its time
                        median_ns = statistics.median_low(r[0] for r in runs)
                        rep = next(r[1] for r in runs if r[0] == median_ns)
                        records.append(BenchRecord(
                            kernel=kernel, batch=batch, seq_len=L, heads=heads,
                            dims=dims, median_ns=median_ns,
                            dot_products=rep.dot_products_materialized,
                            peak_bytes=rep.peak_bytes, t1_ns=rep.t1_ns,
                            t2_ns=rep.t2_ns, t3_ns=rep.t3_ns,
                        ))
                    except MemoryError:
                        records.append(BenchRecord(
                            kernel=kernel, batch=batch, seq_len=L, heads=heads,
                            dims=dims, median_ns=-1, dot_products=-1, peak_bytes=-1,
                            t1_ns=-1, t2_ns=-1, t3_ns=-1, failed=True,
                        ))
    return records


def write_bench_csv(records, fp) -> None:
    """Write records with the fixed column roster (see CSV_HEADER)."""
    writer = csv.writer(fp)
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow(record.csv_row())


def bench_csv_text(records) -> str:
    buf = io.StringIO()
    write_bench_csv(records, buf)
    return buf.getvalue()
