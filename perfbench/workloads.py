"""Workload definitions of the end-to-end benchmark.

Each workload is a seeded ms input (simulated with omega::sim by the probe),
the omegaplus_scan flags that describe its scan shape, and the reason it
exists. Only shape flags are passed: LD engine, ω kernel, chunk size and
split stay at the CLI defaults, which run.py checks on every run.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class InputSpec:
    """A simulated ms input; workloads that name the same input share it.

    --seed varies only the genotypes; the SNP positions come from a seed
    fixed in the probe, so every seed gives the same grid geometry and
    work counts.
    """

    name: str
    samples: int
    snps: int
    length_bp: int
    rho: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input: InputSpec
    grid: int
    maxwin: int
    minwin: int
    threads: int
    # Extra CLI flags beyond the scan shape (mode switches only).
    cli_flags: tuple = ()
    # Probe --shape of the traced run: serial | stream | hetero.
    trace_shape: str = "serial"
    # Argmax windows re-scored by the brute-force oracle, once per seed.
    spot_checks: int = 0
    # Extra checks on each run's --metrics-json: min_chunks, checkpoint,
    # hetero (see run.default_path_problems).
    expect: dict = field(default_factory=dict)


# 128 haplotypes at ~10 SNPs/kb: 200 kb windows hold ~2,000 SNPs and
# consecutive grid positions (2 kb apart) share almost all of them, so
# relocation, ω search and DP extend carry the scan. Scaled from 2 Mb / 20 k
# SNPs / grid 1000 to 600 kb / 6 k SNPs / grid 300 (same density, window
# and grid spacing) so one run takes under 1 s.
DENSE = InputSpec("dense", samples=128, snps=6_000, length_bp=600_000, rho=30.0)

# 2,048 haplotypes (32 words per site): the LD count kernel, ms parse and
# SnpMatrix packing dominate; 20 grid positions with min close to max
# window keep relocation and ω search small. Scaled from 4,096 x 12 k so
# the per-seed popcount reference stays a few seconds.
WIDE = InputSpec("wide", samples=2_048, snps=8_000, length_bp=1_000_000, rho=50.0)

# 64 haplotypes x 300 k SNPs: three times the CLI's default --chunk-sites
# (100 k), so the streamed scan reads 4 overlapping chunks and writes a
# checkpoint after each.
STREAM = InputSpec("stream", samples=64, snps=300_000, length_bp=30_000_000, rho=1_500.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense_t1",
            why="1-thread baseline: relocation, omega search and DP extend "
            "do the work, IO is under 1 percent",
            input=DENSE,
            grid=300,
            maxwin=200_000,
            minwin=10_000,
            threads=1,
            trace_shape="serial",
            spot_checks=3,
        ),
        Workload(
            name="wide_ld_t1",
            why="high-LD mix: parse, SnpMatrix pack and the LD count kernel "
            "dominate; bypasses DP and omega changes",
            input=WIDE,
            grid=20,
            maxwin=300_000,
            minwin=250_000,
            threads=1,
            trace_shape="serial",
        ),
        Workload(
            name="stream_t4",
            why="streamed ms with checkpoints on 4 workers: chunked reads, "
            "seam overlap and span-engine idle time",
            input=STREAM,
            grid=2_000,
            maxwin=30_000,
            minwin=3_000,
            threads=4,
            cli_flags=("--stream", "--checkpoint"),
            trace_shape="stream",
            expect={"min_chunks": 3, "checkpoint": True},
        ),
        # The hetero executor re-dispatches an accelerator span to the CPU
        # once its wall time passes 8 x its modeled time + 0.25 s. With
        # dense_t1's 200 kb windows the FPGA-sim spans run at ~30 x their
        # modeled time, right at that deadline, so whether a span is
        # re-dispatched, and with it the work and wall time of a run,
        # depends on the host's speed at the moment. With 50 kb windows the
        # simulators run at ~2-3 x their modeled time, no span reaches the
        # deadline and every run does the same work. The grid is denser
        # (6,000 positions, 100 bp apart) so one run still takes ~0.75 s.
        Workload(
            name="hetero_t4",
            why="dense_t1 input on the hetero backend (auto split, 4 "
            "threads): the hw simulators and the hetero planner",
            input=DENSE,
            grid=6_000,
            maxwin=50_000,
            minwin=5_000,
            threads=4,
            cli_flags=("--backend", "hetero"),
            trace_shape="hetero",
            expect={"hetero": True},
        ),
    )
}
