"""Desk-scale neural machine translation training toolkit with CBMI-based
adaptive loss weighting, a suite of baseline weighting schemes, and a
CBMI-driven prior-selection objective."""

__version__ = "0.1.0"

from .corpus import BmiTable, FrequencyTable, SentencePair, Vocabulary, make_batches
from .decoding import BeamConfig, BleuReport, analyze_cbmi, beam_search, beam_search_many, bleu
from .models import ModelConfig, ModelParams, init_params, lm_forward, nmt_forward
from .tensor import Tape, Tensor
from .training import StepMetrics, TrainConfig, Trainer, lr_schedule, train
from .weighting import BaselineConfig, CbmiConfig, CbmiRecord, WeightScheme

__all__ = [
    "BaselineConfig",
    "BeamConfig",
    "BleuReport",
    "BmiTable",
    "CbmiConfig",
    "CbmiRecord",
    "FrequencyTable",
    "ModelConfig",
    "ModelParams",
    "SentencePair",
    "StepMetrics",
    "Tape",
    "Tensor",
    "TrainConfig",
    "Trainer",
    "Vocabulary",
    "WeightScheme",
    "analyze_cbmi",
    "beam_search",
    "beam_search_many",
    "bleu",
    "init_params",
    "lm_forward",
    "lr_schedule",
    "make_batches",
    "nmt_forward",
    "train",
]
