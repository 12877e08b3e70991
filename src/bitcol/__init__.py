"""Bit-column sparsity toolkit for int8 weight tensors."""

from .bitflip import (
    ExternalOracle,
    FlipResult,
    apply_strategy,
    flip_layer,
    greedy_search,
    proxy_oracle,
)
from .codec import (
    CompressedLayer,
    SparsityStats,
    column_index,
    compress_layer,
    compression_ratio,
    csr_size,
    decompress_layer,
    partition_groups,
    sparsity_stats,
    zre_size,
)
from .engine import bce_column, bce_group, dot_ref, parse_index, simulate_layer
from .mapper import (
    CATALOG,
    SpatialUnrolling,
    select_su,
    weight_bank_layout,
)
from .model_io import load_network, read_compressed, save_network, write_compressed, write_report_csv
from .perf import (
    AcceleratorSpec,
    UnitCosts,
    compare,
    evaluate_network,
    preset,
    total_latency,
)
from .workload import BitcolError, Layer, LayerShape, Network

__version__ = "0.1.0"
