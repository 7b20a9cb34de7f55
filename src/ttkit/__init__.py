"""Desk-scale streaming transducer toolkit.

Windowed-attention transformer encoders over audio and label sequences, a
joint network trained with the alignment-marginal loss, and frame-synchronous
decoders (greedy, beam with shallow fusion, constant-work streaming).
"""

from .attention import AttentionMask, Counters, EncoderConfig, receptive_field
from .decode import BigramLm, FusionConfig, StreamState, beam_decode, greedy_decode
from .frontend import FrontendConfig, spec_augment, stack_subsample
from .model import ModelConfig, TransducerModel, desk_config, init_model
from .tasks import SyntheticTaskConfig, Utterance, gen_synthetic, read_dataset, wer, write_dataset
from .tensor import Rng, Tensor, backward, no_grad
from .train import ScheduleConfig, TrainConfig, load_checkpoint, lr_at, save_checkpoint, train_loop
from .transducer import LogProbGrid, batch_loss, brute_force_log_prob, rnnt_log_prob

__version__ = "0.1.0"
