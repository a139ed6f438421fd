"""Green cognitive relaying: closed forms, Monte Carlo checks, and the
sensing-time optimiser for an RF-harvesting AF relay network."""

from .fading import (InterferenceLaw, LinkSet, PrimaryModel, max_exp_expectation,
                     mean_channel_gain)
from .sensing import (ReportGain, SecondaryPolicy, avg_clipped_gain,
                      build_report_gain, detection_probability,
                      fixed_gain_report, report_e2e_cdf, solve_saturation_gain)
from .harvest import HarvestReport, avg_harvested_power
from .transmission import (TransCoeffs, build_trans_coeffs, outage_probability,
                           relay_selection_prob, rho_from_doppler)
from .energy_opt import (EnergyModel, InfeasibleDataError, SensingOptimum, ecg,
                         optimize_sensing_time, total_energy, total_energy_nonharvesting)
from .mcsim import (MCEstimate, mc_clipped_gain, mc_detection, mc_ecg,
                    mc_frame_energy, mc_harvest, mc_outage)
from .scenario import Scenario, preset, scenario_from_conf

__version__ = "0.1.0"
