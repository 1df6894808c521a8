"""Federated learning simulator with embedded per-client ownership
signatures, trigger-set backdoors, feasibility certificates and removal
attacks."""

from .data import Dataset, Shard, TriggerSet, forge_pattern_triggers, forge_pgd_triggers, make_synthetic, split
from .errors import CapacityError, ConfigError, FedsignError, FormatError, KeyMismatchError, ShapeError, StateError
from .feasibility import FeasibilityReport, capacity_bound, check_conditions, decide, stack
from .federation import ClientState, FedConfig, RoundLog, WatermarkSpec, add_dp_noise, aggregate, client_update, run_federation, sample_clients, setup_clients
from .manifest import RunManifest, load_manifest, parse_manifest
from .metrics import ExperimentSummary, false_positive_analysis, run_sweep
from .nn import ModelParams, Network, accuracy, build_cnn, build_mlp, cross_entropy, fit, network_from_descriptor, sgd_epochs
from .watermark import VerificationResult, WatermarkKey, bce_reg, extract, hinge_reg, keygen, load_key, read_bits, save_key, verify_black, verify_white

__version__ = "0.1.0"
