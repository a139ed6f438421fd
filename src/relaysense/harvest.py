"""RF energy harvested by a relay from the primary transmissions it overhears.

While the relay listens, each active primary contributes its path gain
twice: once through the deterministic large-scale weighting applied by the
harvester front end and once through the random squared channel magnitude.
Only frames in which the network actually detects the primary can bank the
energy, so the usable average is discounted by the detection probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fading import LinkSet, PrimaryModel
from .sensing import SecondaryPolicy


@dataclass
class HarvestReport:
    """Harvested power of one relay, in watts.

    mean_power is the long-run average RF power collected while listening;
    usable_power discounts it by the probability that the frame detects the
    primary and therefore keeps the energy instead of spending the slot
    transmitting.
    """

    mean_power: float
    usable_power: float

    def __post_init__(self):
        if self.mean_power < 0.0 or self.usable_power < 0.0:
            raise ValueError("harvested power cannot be negative")
        if self.usable_power > self.mean_power * (1.0 + 1e-12):
            raise ValueError("usable harvested power cannot exceed the raw mean")


def harvest_mean_power(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                       i: int) -> float:
    """Average RF power harvested by relay i while the band is observed."""
    g = links.g_pu_relay[links.check_relay(i)]
    return policy.eta * primary.tx_power * primary.duty * float(np.sum(g * g))


def avg_harvested_power(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                        i: int, p_detect: float) -> HarvestReport:
    """Harvest summary for relay i at the given frame detection probability."""
    if not 0.0 <= p_detect <= 1.0:
        raise ValueError("detection probability must lie in [0, 1]")
    mean = harvest_mean_power(links, primary, policy, i)
    return HarvestReport(mean_power=mean, usable_power=p_detect * mean)
