"""Experiment harness: campaigns, sweeps and report tables."""

from ..obs.spec import OBS_MODES, ObsSpec, ObsSummary
from . import report
from .experiment import (
    METRICS_MODES,
    TRANSPORT_MODES,
    CampaignResult,
    RoundRecord,
    churn_duel,
    duel,
    run_campaign,
    run_churn_campaign,
)

__all__ = [
    "METRICS_MODES",
    "OBS_MODES",
    "TRANSPORT_MODES",
    "CampaignResult",
    "ObsSpec",
    "ObsSummary",
    "RoundRecord",
    "churn_duel",
    "duel",
    "report",
    "run_campaign",
    "run_churn_campaign",
]
