"""Minimum squared error clustering by subset reclassification.

The package splits into the partition bookkeeping (core), the closed-form
error deltas for subset moves and their one acceptance tolerance (reclass),
the correction loop and sequence builder (kh_engine), K-means baselines
(baselines), exact 1-D thresholding (otsu1d), an exhaustive small-instance
oracle (oracle), image segmentation (segment), and the command line front
end (cli).
"""

from .baselines import (KMeansConfig, is_lloyd_fixed_point, kmeans_sequence,
                        lloyd)
from .core import (ClusterStats, Dataset, InputFormatError,
                   InternalConsistencyError, Partition, PartitionSequence,
                   PreconditionError, SizeGuardError, apply_move,
                   partition_energy, sigma, stats_of_subset)
from .kh_engine import (BOTH, IDENTICAL, SINGLETONS, CorrectionResult,
                        MoveProposal, StabilityReport, SubsetPolicy,
                        build_sequence, correct_pairs, correct_tuples,
                        merge_step, split_step, verify_stability)
from .oracle import OracleResult, global_min, minimum_curve
from .otsu1d import Histogram, build_histogram, optimal_thresholds
from .reclass import (alpha, delta_e_correct, delta_e_merge, gap_identity,
                      merge_many, move_tolerance)
from .segment import (GrayImage, SegmentMap, read_pgm, segment_curve,
                      write_pgm)

__version__ = "0.1.0"

__all__ = [
    "ClusterStats", "Dataset", "Partition", "PartitionSequence",
    "InputFormatError", "InternalConsistencyError", "PreconditionError",
    "SizeGuardError", "apply_move", "partition_energy", "sigma",
    "stats_of_subset",
    "delta_e_merge", "delta_e_correct", "alpha",
    "merge_many", "gap_identity", "move_tolerance",
    "KMeansConfig", "lloyd", "kmeans_sequence",
    "is_lloyd_fixed_point",
    "SubsetPolicy", "SINGLETONS", "IDENTICAL", "BOTH",
    "MoveProposal", "StabilityReport", "CorrectionResult", "correct_pairs",
    "correct_tuples", "verify_stability", "merge_step", "split_step",
    "build_sequence",
    "Histogram", "build_histogram", "optimal_thresholds",
    "OracleResult", "global_min", "minimum_curve",
    "GrayImage", "SegmentMap", "read_pgm", "write_pgm", "segment_curve",
]
