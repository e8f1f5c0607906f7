"""Gridded-field numerics: flux-ratio loss, radial spectra, metrics,
synthetic generators, and gradient-based field refinement."""

__version__ = "0.1.0"

from .errors import (ConvergenceStallError, CsvParseError,
                     DegenerateSpectrumError, DegenerateVarianceError,
                     DimensionMismatchError, FluxgridError, FormatError,
                     StabilityError, TooSmallGridError)
from .findiff import DEFAULT_EPS, GradientField, gradient_central
from .formats import read_csv, read_fgrd, write_csv, write_fgrd
from .grid_core import (Grid2D, GridPair, coarsen_block_mean, make_pair,
                        upsample_quadratic)
from .metrics import MetricReport, bias, metric_report, pearson, r_squared, rmse
from .refine import RefineConfig, RefineTrace, gradient, objective, refine
from .spectral import (SpectrumProfile, default_fit_range, fit_slope,
                       power_spectrum_2d, radial_profile, ralsd, spectral_loss)
from .supergrid import (FluxReport, PdeLossResult, SupergridPartition,
                        build_partition, cell_fluxes, choose_supergrid, pde_loss)
from .synth import (AdvDiffSpec, GrfSpec, gen_affine, gen_constant, gen_grf,
                    make_scenario, step_advdiff)

__all__ = [name for name in dir() if not name.startswith("_")]
