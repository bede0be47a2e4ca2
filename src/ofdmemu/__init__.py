"""Digital OFDM transport that behaves like an analog link.

The package inverts a standard coded-OFDM transmit chain over GF(2) so
that arbitrary complex symbol targets come out of the air interface as
nearby constellation points, recovers soft estimates at the receiver,
learns a convolutional compensator for the residual deterministic
distortion, and trains image codecs end to end through a differentiable
surrogate of the whole link.
"""

from .config import PhyConfig, parse_config_file
from .errors import (
    ConfigError,
    FramingError,
    OfdmEmuError,
    SelectionError,
    TrainingError,
)
from .framefile import (
    read_frame,
    read_model_into,
    save_checkpoint,
    write_frame,
    write_loss_trace,
    write_model,
)
from .gf2 import Gf2Solver, Unsolvable
from .harness import (
    CheckpointMissing,
    ExperimentSpec,
    MetricRow,
    SelfTestReport,
    emit_plotdata,
    run_sweep,
    selftest,
    write_csv,
)
from .inversion import (
    SymbolSystem,
    build_symbol_system,
    certify_subset,
    default_subset,
    max_usable_subcarriers,
    restrict_offsets,
    restrict_rows,
)
from .link import (
    EmulationSetup,
    LinkRecord,
    TargetSymbols,
    awgn,
    box_edge,
    box_scale,
    check_snr,
    emulated_link,
    float_serialization_link,
    ideal_analog_link,
    reference_waveform,
    sender_invert,
    targets_from_waveform,
)
from .phy import (
    BasebandFrame,
    conv_encode,
    interleave,
    puncture,
    qam_map,
    qam_quantize,
    rx_chain,
    scramble,
    tx_chain,
    viterbi_decode,
)
from .training import (
    Curriculum,
    PipelineResult,
    StageResult,
    TrainConfig,
    collect_link_records,
    evaluate_image_link,
    run_training_pipeline,
    stage1_train_compensator,
    stage2_train_proxy,
    stage3_alternate,
    train_jscc_ideal,
)

__version__ = "0.1.0"
