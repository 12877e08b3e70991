"""Bit-column sparsity toolkit for int8 weight tensors."""

from .bitflip import (
    ExternalOracle,
    FlipResult,
    apply_strategy,
    best_column_set,
    flip_layer,
    greedy_search,
    nearest_with_mask,
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
from .engine import bce_column, bce_group, dot_ref, parse_index, simulate_layer, smm
from .mapper import (
    CATALOG,
    SpatialUnrolling,
    select_su,
    spatial_utilization,
    weight_bank_layout,
)
from .model_io import load_network, read_compressed, save_network, write_compressed, write_report_csv
from .perf import (
    AcceleratorSpec,
    UnitCosts,
    compare,
    dense_activity,
    effective_macs,
    effective_memory,
    evaluate_network,
    imbalance_adjust,
    preset,
    total_energy,
    total_latency,
)
from .workload import BitcolError, Layer, LayerShape, Network

__version__ = "0.1.0"
